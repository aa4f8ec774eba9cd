# repro-lint: module=repro.sim.fixture_clean
"""Known-good: every house pattern done right -- zero findings.

Seeded RNG instance, sorted set/dict iteration on the fingerprint path,
sorted directory listing and a None-gated obs runtime.
"""

import os
import random

from repro.obs import runtime as obs_runtime


def noise_stream(seed: int) -> random.Random:
    return random.Random(seed)


def config_fingerprint(values: dict) -> str:
    parts = []
    for name in sorted(values.keys()):
        parts.append(f"{name}={values[name]!r}")
    return "|".join(parts)


def entry_names(directory: str) -> list:
    return sorted(os.listdir(directory))


def record_step(step: int) -> None:
    obs = obs_runtime.current()
    if obs is not None:
        obs.metrics.counter("steps").inc(step)

