"""The runtime is the standard library: importing every ``repro`` module
loads no third-party package (``pyproject.toml`` declares none)."""

import os
import subprocess
import sys

IMPORT_EVERY_MODULE = """
import sys

before = set(sys.modules)
import pkgutil
import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    __import__(module.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# multiprocessing registers the main script a second time under this
# alias; it is no package.
loaded.discard("__mp_main__")
print("\\n".join(sorted(loaded)))
"""


def test_importing_repro_loads_only_the_standard_library():
    # A fresh interpreter: the test session has pytest, hypothesis and
    # whatever ``site`` loaded in sys.modules already, so only what the
    # imports themselves add is judged.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    output = subprocess.run(
        [sys.executable, "-c", IMPORT_EVERY_MODULE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    outside_stdlib = sorted(
        name for name in output.split() if name not in sys.stdlib_module_names
    )
    assert outside_stdlib == ["repro"]
