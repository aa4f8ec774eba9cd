"""Tests for the campaign service daemon and its clients."""

import json
import threading

import pytest

from repro.engine.api import CampaignClient, CampaignRequest, ServiceError
from repro.engine.grid import (
    STREAM_SCHEMA_VERSION,
    load_completed_cells,
    validate_campaign_stream,
)
from repro.engine.service import CampaignService
from repro.obs.report import main as obs_main


def _tiny_request(budget=3.0):
    return CampaignRequest(
        strategies=("random",), budgets=(budget,), workers=1
    )


class TestCampaignService:
    def test_two_clients_complete_both_jobs(self, tmp_path):
        stream_path = tmp_path / "service.jsonl"
        with CampaignService(stream_path=str(stream_path)) as service:
            first = CampaignClient(service.endpoint)
            second = CampaignClient(service.endpoint)
            job_a = first.submit(_tiny_request(3.0))
            job_b = second.submit(_tiny_request(4.0))
            assert job_a != job_b

            collected = {}

            def follow(client, job_id):
                collected[job_id] = list(client.watch(job_id, timeout=300.0))

            threads = [
                threading.Thread(target=follow, args=(first, job_a)),
                threading.Thread(target=follow, args=(second, job_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
            assert collected[job_a][0]["simulations"] == 3
            assert collected[job_b][0]["simulations"] == 4
            assert all(
                record["schema"] == STREAM_SCHEMA_VERSION
                for records in collected.values()
                for record in records
            )

            # FIFO: the first-submitted job finished no later than the
            # second started producing.
            status = first.status()
            rows = {row["job"]: row for row in status["jobs"]}
            assert rows[job_a]["state"] == "done"
            assert rows[job_b]["state"] == "done"
            assert rows[job_a]["finished_at"] <= rows[job_b]["finished_at"]

            single = second.status(job_a)
            assert single["job"]["records"] == 1
            assert single["summary"]["totals"]["campaigns"] == 1

        # The server-side stream holds both jobs' records and passes
        # the stream validator -- service records ARE stream records.
        assert len(stream_path.read_text().splitlines()) == 2
        assert validate_campaign_stream(str(stream_path)) == []

    def test_streamed_records_validate_through_obs_report(
        self, tmp_path, capsys
    ):
        stream_path = tmp_path / "service.jsonl"
        with CampaignService(stream_path=str(stream_path)) as service:
            CampaignClient(service.endpoint).run(_tiny_request())
        assert obs_main(["report", "--validate", str(stream_path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_service_stream_resumes_a_grid(self, tmp_path):
        """A service-streamed file is --resume material for the CLI."""
        stream_path = tmp_path / "service.jsonl"
        request = _tiny_request()
        with CampaignService(stream_path=str(stream_path)) as service:
            CampaignClient(service.endpoint).run(request)
        from repro.engine.grid import CampaignGrid, filter_completed

        cells = request.cells()
        completed = filter_completed(
            cells, load_completed_cells(str(stream_path))
        )
        assert set(completed) == {cells[0].cell_id}
        outcome = CampaignGrid(cells, max_workers=1).run(completed=completed)
        assert outcome.resumed_cells == 1
        assert not outcome.results  # nothing re-ran

    def test_malformed_requests_are_rejected_at_submit(self):
        with CampaignService() as service:
            client = CampaignClient(service.endpoint)
            with pytest.raises(ServiceError):
                client.submit(
                    CampaignRequest(strategies=("not-a-strategy",))
                )
            with pytest.raises(ServiceError):
                client.submit(CampaignRequest(traffic_faults=True))
            with pytest.raises(ServiceError, match="pool:N"):
                client.submit(CampaignRequest(backend="remote:2"))
            # The daemon survives rejections and still runs real work.
            records = client.run(_tiny_request())
            assert len(records) == 1

    def test_unknown_job_and_op_report_errors(self):
        with CampaignService() as service:
            client = CampaignClient(service.endpoint)
            with pytest.raises(ServiceError):
                client.status("job-999999")
            with pytest.raises(ServiceError):
                list(client.watch("job-999999"))

    def test_max_jobs_stops_the_service(self):
        service = CampaignService(max_jobs=1).start()
        try:
            records = CampaignClient(service.endpoint).run(_tiny_request())
            assert len(records) == 1
            assert service._stopping.wait(timeout=30.0)
        finally:
            service.close()

    def test_failed_job_reports_failure(self, monkeypatch):
        import repro.engine.service as service_module

        def explode(request, on_record=None):
            raise RuntimeError("sharding exploded")

        monkeypatch.setattr(service_module, "run_campaign", explode)
        with CampaignService() as service:
            client = CampaignClient(service.endpoint)
            job_id = client.submit(_tiny_request())
            with pytest.raises(ServiceError, match="sharding exploded"):
                list(client.watch(job_id, timeout=60.0))
            row = client.status(job_id)["job"]
            assert row["state"] == "failed"


class TestServiceCli:
    def test_submit_and_status_against_live_service(self, tmp_path, capsys):
        from repro.engine.cli import main

        stream_path = tmp_path / "client.jsonl"
        with CampaignService() as service:
            rc = main([
                "submit", "--address", service.endpoint,
                "--strategy", "random", "--budget", "3",
                "--workers", "1", "--quiet",
                "--stream", str(stream_path),
            ])
            assert rc == 0
            out = capsys.readouterr().out
            payload = json.loads(out)
            assert payload["job"] == "job-000001"
            assert payload["records"][0]["simulations"] == 3

            rc = main(["status", "--address", service.endpoint])
            assert rc == 0
            table = json.loads(capsys.readouterr().out)
            assert table["jobs"][0]["state"] == "done"
        assert validate_campaign_stream(str(stream_path)) == []

    def test_submit_no_wait_prints_job_id(self, capsys):
        from repro.engine.cli import main

        with CampaignService(max_jobs=1) as service:
            rc = main([
                "submit", "--address", service.endpoint,
                "--strategy", "random", "--budget", "3",
                "--workers", "1", "--no-wait", "--quiet",
            ])
            assert rc == 0
            assert capsys.readouterr().out.strip() == "job-000001"
            # Let the daemon drain the job before closing.
            assert service._stopping.wait(timeout=300.0)

    def test_submit_reports_connection_failure(self, capsys):
        from repro.engine.cli import main

        rc = main([
            "submit", "--address", "127.0.0.1:9",
            "--strategy", "random", "--budget", "3",
        ])
        assert rc == 1
        assert "submit failed" in capsys.readouterr().err
