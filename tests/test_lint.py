"""Tests for repro.lint: the determinism & fork-safety analyzer.

Covers the fixture corpus (each known-bad file produces exactly its own
rule id, known-good files produce none), waivers, the CLI surface (JSON
output, --list-rules), self-application to the shipped tree, and the FPR
tripwire: deleting a field consumption from a fingerprint routine must
produce a finding.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import RunConfiguration
from repro.engine.cache import config_fingerprint
from repro.lint import run_lint
from repro.lint.cli import main as lint_main
from repro.lint.walker import module_name_for
from repro.sim.environment import default_environment

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"

#: (fixture file, the one rule id it must produce).
BAD_FIXTURES = [
    ("det001_wall_clock.py", "DET001"),
    ("det002_entropy.py", "DET002"),
    ("det003_global_random.py", "DET003"),
    ("fpr001_missing_field.py", "FPR001"),
    ("obs001_ungated.py", "OBS001"),
    ("obs002_eager_import.py", "OBS002"),
    ("fab003_global.py", "FAB003"),
    ("lnt001_unjustified_waiver.py", "LNT001"),
]

ALL_RULE_IDS = sorted({rule for _, rule in BAD_FIXTURES})


class TestFixtureCorpus:
    @pytest.mark.parametrize("filename,rule", BAD_FIXTURES)
    def test_bad_fixture_produces_exactly_its_rule(self, filename, rule):
        result = run_lint([str(FIXTURES / "bad" / filename)])
        assert result.findings, f"{filename} produced no findings"
        assert {finding.rule for finding in result.findings} == {rule}

    def test_every_rule_family_has_a_failing_fixture(self):
        families = {rule[:3] for rule in ALL_RULE_IDS}
        assert families == {"DET", "FPR", "OBS", "FAB", "LNT"}

    def test_good_fixtures_are_clean(self):
        result = run_lint([str(FIXTURES / "good")])
        assert result.findings == []

    def test_module_directive_pins_the_name(self):
        path = FIXTURES / "bad" / "det001_wall_clock.py"
        name = module_name_for(str(path), path.read_text())
        assert name == "repro.sim.fixture_wall_clock"


class TestWaivers:
    def test_unjustified_waiver_suppresses_but_reports(self):
        result = run_lint(
            [str(FIXTURES / "bad" / "lnt001_unjustified_waiver.py")]
        )
        assert [finding.rule for finding in result.findings] == ["LNT001"]
        assert [finding.rule for finding in result.waived] == ["DET001"]

    def test_justified_waiver_is_silent(self):
        result = run_lint([str(FIXTURES / "good" / "justified_waiver.py")])
        assert result.findings == []
        assert [finding.rule for finding in result.waived] == ["DET001"]


class TestCli:
    def test_json_output_shape(self, capsys):
        target = str(FIXTURES / "bad" / "obs002_eager_import.py")
        code = lint_main(["--format", "json", target])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert [f["rule"] for f in payload["findings"]] == ["OBS002"]
        finding = payload["findings"][0]
        assert set(finding) == {
            "rule",
            "family",
            "path",
            "line",
            "col",
            "symbol",
            "message",
        }

    def test_list_rules_documents_every_id(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ALL_RULE_IDS + ["LNT002"]:
            assert rule_id in out

    def test_list_rules_drops_the_remote_fabric_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "FAB003" in out
        assert "FAB001" not in out
        assert "FAB002" not in out

    def test_list_rules_drops_the_hash_order_rules(self, capsys):
        # Hash-seed independence is checked at run time instead
        # (tests/test_engine.py, test_fingerprints_ignore_the_hash_seed).
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET004", "DET005", "OBS003"):
            assert rule_id not in out

    @pytest.mark.parametrize(
        "option",
        [
            ["--baseline", "lint-baseline.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--changed"],
        ],
        ids=lambda option: option[0],
    )
    def test_removed_baseline_options_are_usage_errors(self, option, capsys):
        target = str(FIXTURES / "good" / "clean_core.py")
        with pytest.raises(SystemExit) as exit_info:
            lint_main([*option, target])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_path_is_a_usage_error(self, capsys):
        assert lint_main(["does/not/exist.py"]) == 2

    def test_syntax_error_reports_lnt002(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        code = lint_main(["--format", "json", str(broken)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["rule"] for f in payload["findings"]] == ["LNT002"]


class TestSelfApplication:
    def test_shipped_tree_is_clean(self):
        result = run_lint([str(REPO_ROOT / "src")], root=str(REPO_ROOT))
        assert result.findings == []

    def test_cli_exits_zero_on_shipped_tree(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "--format", "json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["ok"] is True


class TestFprTripwire:
    def test_deleting_a_consumption_trips_fpr001(self, tmp_path):
        """Removing a field read from the fingerprint must be caught."""
        config_source = (
            REPO_ROOT / "src" / "repro" / "core" / "config.py"
        ).read_text()
        cache_source = (
            REPO_ROOT / "src" / "repro" / "engine" / "cache.py"
        ).read_text()
        assert "config.noise_seed" in cache_source
        mutated = cache_source.replace("config.noise_seed", "0")
        (tmp_path / "config.py").write_text(config_source)
        (tmp_path / "cache.py").write_text(mutated)
        result = run_lint([str(tmp_path)])
        fpr = [f for f in result.findings if f.rule == "FPR001"]
        assert [f.symbol for f in fpr] == ["RunConfiguration.noise_seed"]

    def test_intact_sources_have_no_fpr_findings(self, tmp_path):
        for name in ("core/config.py", "engine/cache.py"):
            source = (REPO_ROOT / "src" / "repro" / name).read_text()
            (tmp_path / Path(name).name).write_text(source)
        result = run_lint([str(tmp_path)])
        assert [f for f in result.findings if f.rule == "FPR001"] == []


class TestEnvironmentFingerprint:
    def test_default_environment_key_is_unchanged(self):
        key = config_fingerprint(RunConfiguration(), "auto")
        assert "environment=" not in key

    def test_custom_environment_changes_the_key(self):
        def hilly():
            return replace(default_environment(), ground_altitude=12.0)

        base = config_fingerprint(RunConfiguration(), "auto")
        custom = config_fingerprint(
            RunConfiguration(environment_factory=hilly), "auto"
        )
        assert custom != base
        assert "environment=[" in custom
        assert "ground_altitude=12.0" in custom
