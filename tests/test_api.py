"""Tests for the campaign request API and the public surface."""

import dataclasses
import json
import os
import re
import warnings

import pytest

import repro
from repro.engine.api import CampaignRequest, build_cells, run_campaign
from repro.engine.grid import (
    STREAM_SCHEMA_VERSION,
    cell_fingerprint,
    filter_completed,
    load_completed_cells,
    validate_campaign_stream,
    validate_stream_record,
)


class TestCampaignRequest:
    def test_defaults_match_the_flagless_cli(self):
        from repro.engine.cli import build_parser, request_from_args

        # The flags -> request bridge: every request field is the dest of
        # exactly one grid flag.
        fields = sorted(field.name for field in dataclasses.fields(CampaignRequest))
        parser = build_parser()
        assert sorted(
            action.dest for action in parser._actions if action.dest in fields
        ) == fields
        assert request_from_args(parser.parse_args([])) == CampaignRequest()

    def test_cli_flags_and_request_expand_identically(self):
        from repro.engine.cli import build_parser, request_from_args

        argv = [
            "--firmware", "ardupilot", "px4",
            "--workload", "convoy", "waypoint",
            "--strategy", "avis",
            "--budget", "8", "--fleet-size", "2",
            "--traffic-faults", "--separation-aware",
            "--burst-duration", "5",
            "--backend", "pool:2", "--stepper", "adaptive",
        ]
        args = build_parser().parse_args(argv)
        via_cli = build_cells(request_from_args(args))
        request = CampaignRequest(
            firmwares=("ardupilot", "px4"),
            workloads=("convoy", "waypoint"),
            strategies=("avis",),
            budgets=(8.0,),
            fleet_size=2,
            traffic_faults=True,
            separation_aware=True,
            burst_durations=(5.0,),
            backend="pool:2",
            stepper="adaptive",
        )
        via_request = build_cells(request)
        assert [c.cell_id for c in via_cli] == [c.cell_id for c in via_request]
        assert [cell_fingerprint(c) for c in via_cli] == [
            cell_fingerprint(c) for c in via_request
        ]
        assert all(c.backend_spec == "pool:2" for c in via_request)
        assert all(c.config.stepper == "adaptive" for c in via_request)
        assert all("+adaptive" in c.cell_id for c in via_request)

    def test_fabric_fields_never_enter_fingerprints(self):
        plain = CampaignRequest(strategies=("random",), budgets=(5.0,))
        fabricked = CampaignRequest(
            strategies=("random",), budgets=(5.0,),
            backend="pool:4", cache="/shared/avis-cache", workers=3,
        )
        assert [cell_fingerprint(c) for c in build_cells(plain)] == [
            cell_fingerprint(c) for c in build_cells(fabricked)
        ]

    @pytest.mark.parametrize("bad", [
        dict(firmwares=("betaflight",)),
        dict(strategies=("simulated-annealing",)),
        dict(workloads=("convoy",)),  # needs fleet_size >= 2
        dict(traffic_faults=True),  # needs a fleet workload
        dict(strategies=("random",), burst_durations=(5.0,)),
        dict(strategies=("random",), per_dequeue=4),
        dict(strategies=("random",), separation_aware=True),
        dict(stepper="rk4"),
        dict(backend="turbo"),
        dict(backend="remote"),  # remote backends are gone: pool:N
        dict(backend="remote:2"),
        dict(backend="remote:127.0.0.1:7801"),
        dict(cache="remote:nohost"),
        dict(cache="remote:127.0.0.1:7801"),  # share a directory instead
        dict(profiling_runs=0),  # Avis rejects it too
        dict(profiling_runs=-1),
        # A budget is a finite number >= 0 (BudgetAccount agrees).
        dict(budgets=(-1.0,)),
        dict(budgets=(float("nan"),)),
        dict(budgets=(float("inf"),)),
        # Geometry is a finite number > 0; workers, when given, >= 1.
        dict(altitude=-5.0),
        dict(altitude=0.0),
        dict(altitude=float("inf")),
        dict(altitude=float("nan")),
        dict(box_side=-10.0),
        dict(box_side=float("nan")),
        dict(workers=0),
        dict(workers=-2),
        # A burst window is a finite number > 0.
        dict(strategies=("avis",), burst_durations=(float("nan"),)),
        dict(strategies=("avis",), burst_durations=(float("inf"),)),
        dict(strategies=("avis",), burst_durations=(0.0,)),
        # A repeated axis value repeats a cell id; ids render budgets
        # with :g, so distinct floats can collide too.
        dict(budgets=(1.0, 1.0)),
        dict(budgets=(1.0, 1.0000001)),
        dict(strategies=("random", "random")),
        dict(
            workloads=("convoy",), budgets=(5.0, 5.0),
            vehicles=("firmware=ardupilot", "firmware=px4"),
        ),
    ])
    def test_invalid_matrices_are_rejected(self, bad):
        with pytest.raises(ValueError):
            build_cells(CampaignRequest(**bad))

    def test_remote_cache_spec_points_to_a_directory(self):
        with pytest.raises(ValueError, match="directory"):
            build_cells(CampaignRequest(cache="remote:127.0.0.1:7801"))


class TestPublicSurface:
    def test_version_matches_pyproject(self):
        pyproject = os.path.join(
            os.path.dirname(__file__), os.pardir, "pyproject.toml"
        )
        with open(pyproject, encoding="utf-8") as handle:
            declared = re.search(
                r'^version = "([^"]+)"', handle.read(), re.MULTILINE
            ).group(1)
        assert repro.__version__ == declared

    def test_package_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_engine_all_resolves(self):
        import repro.engine as engine

        for name in engine.__all__:
            assert getattr(engine, name) is not None, name

    def test_lazy_exports_are_the_canonical_objects(self):
        from repro.engine.api import CampaignRequest as canonical

        assert repro.CampaignRequest is canonical
        with pytest.raises(AttributeError):
            repro.NoSuchExport

    def test_engine_takes_ready_backends_without_warnings(self):
        from repro.engine.backends import ProcessPoolBackend, SerialBackend
        from repro.engine.campaign import CampaignEngine

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend = ProcessPoolBackend(max_workers=2)
            assert CampaignEngine(backend=backend).backend is backend
            assert isinstance(CampaignEngine().backend, SerialBackend)


class TestRunCampaign:
    def test_run_returns_schema_stamped_records(self, tmp_path):
        stream_path = tmp_path / "run.jsonl"
        outcome = run_campaign(
            CampaignRequest(strategies=("random",), budgets=(3.0,), workers=1),
            stream_path=str(stream_path),
        )
        records = list(outcome.cell_summaries.values())
        assert len(records) == 1
        record = records[0]
        assert record["schema"] == STREAM_SCHEMA_VERSION
        assert record["simulations"] == 3
        assert validate_stream_record(record) == []
        streamed = json.loads(stream_path.read_text())
        assert streamed == record

    def test_streamed_records_validate_through_obs_report(
        self, tmp_path, capsys
    ):
        from repro.obs.report import main as obs_main

        stream_path = tmp_path / "run.jsonl"
        run_campaign(
            CampaignRequest(strategies=("random",), budgets=(2.0, 3.0),
                            workers=1),
            stream_path=str(stream_path),
        )
        assert validate_campaign_stream(str(stream_path)) == []
        assert obs_main(["report", "--validate", str(stream_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_resume_from_a_missing_stream_runs_everything(self, tmp_path):
        outcome = run_campaign(
            CampaignRequest(strategies=("random",), budgets=(2.0,), workers=1),
            resume_path=str(tmp_path / "not-yet-written.jsonl"),
        )
        assert outcome.resumed_cells == 0
        assert list(outcome.results) == ["ardupilot/waypoint/random/2"]

    def test_resume_path_skips_only_matching_records(self, tmp_path):
        request = CampaignRequest(
            strategies=("random",), budgets=(2.0, 3.0), workers=1
        )
        stream_path = tmp_path / "run.jsonl"
        first = run_campaign(request, stream_path=str(stream_path))
        # Keep one record as streamed; re-fingerprint the other so it
        # no longer matches its cell's configuration.
        kept, stale = first.cell_summaries.values()
        stream_path.write_text(
            json.dumps(kept) + "\n"
            + json.dumps(dict(stale, fingerprint="0" * 16)) + "\n"
        )
        outcome = run_campaign(request, resume_path=str(stream_path))
        assert outcome.resumed_cells == 1
        assert list(outcome.results) == [stale["cell"]]
        assert outcome.cell_summaries[kept["cell"]] == kept


class TestStreamSchema:
    def test_records_without_schema_are_version_one_and_valid(self):
        record = {
            "cell": "ardupilot/waypoint/random/5", "fingerprint": "ab" * 8,
            "firmware": "ardupilot", "workload": "waypoint",
            "strategy": "RandomInjection", "simulations": 5,
            "unsafe_scenarios": 0, "budget_spent": 5,
            "triggered_bugs": [],
        }
        assert validate_stream_record(record) == []

    def test_future_schema_versions_are_reported(self):
        record = {"schema": STREAM_SCHEMA_VERSION + 1, "cell": "x"}
        problems = validate_stream_record(record)
        assert any("schema" in problem for problem in problems)

    def test_resume_accepts_pre_schema_records(self, tmp_path):
        """--resume keeps working against PR-6-era (schema-less) streams."""
        request = CampaignRequest(
            strategies=("random",), budgets=(3.0,), workers=1
        )
        (record,) = run_campaign(request).cell_summaries.values()
        legacy = dict(record)
        legacy.pop("schema")
        stream_path = tmp_path / "legacy.jsonl"
        stream_path.write_text(json.dumps(legacy) + "\n")

        cells = build_cells(request)
        completed = filter_completed(
            cells, load_completed_cells(str(stream_path))
        )
        assert set(completed) == {cells[0].cell_id}
        outcome = run_campaign(request, resume_path=str(stream_path))
        assert outcome.resumed_cells == 1 and not outcome.results
