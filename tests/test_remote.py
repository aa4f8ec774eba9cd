"""Tests for the remote execution backend and the shared cache directory.

Remote workers are real ``python -m repro.engine worker`` subprocesses,
the only supported remote deployment: each is started with the matrix
flags of one grid cell and announces its endpoint on stdout.
"""

import os
import re
import socket
import subprocess
import sys
import threading
import warnings

import pytest

from conftest import make_run_result

import repro
from repro.core.avis import Avis
from repro.core.strategies import RandomInjection
from repro.core.strategies.avis_strategy import AvisStrategy
from repro.engine.api import CampaignRequest, build_cells
from repro.engine.backends import (
    ProcessPoolBackend,
    RemoteBackend,
    SerialBackend,
    parse_backend_spec,
)
from repro.engine.cache import ResultCache
from repro.engine.remote import (
    PROTOCOL_VERSION,
    ProtocolError,
    WorkerServer,
    connect_workers,
    context_fingerprint,
    context_label,
    decode_payload,
    encode_payload,
    format_address,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.hinj.faults import FaultScenario, FaultSpec
from repro.sensors.base import SensorId, SensorType

#: Matrix flags of the one cell every test worker serves (a short AUTO
#: mission), and the same cell as a request for the controller side.
WORKER_FLAGS = ("--workload", "auto", "--altitude", "8",
                "--strategy", "random", "--budget", "4")
WORKER_REQUEST = CampaignRequest(
    workloads=("auto",), altitude=8.0, strategies=("random",), budgets=(4.0,)
)

_SERVING = re.compile(r"worker serving (\S+) on (\S+):(\d+) \(context ([^)]*)\)")

#: Seconds a worker may take to profile and bind before it is killed.
STARTUP_TIMEOUT_S = 120.0


def _scenarios(count, start=2.0, step=1.5):
    return [
        FaultScenario([FaultSpec(SensorId(SensorType.GPS, 0), start + i * step)])
        for i in range(count)
    ]


class CliWorker:
    """One ``python -m repro.engine worker`` subprocess."""

    def __init__(self, process, address, cell_id, label):
        self.process = process
        self.address = address
        self.cell_id = cell_id
        self.label = label

    def kill(self):
        self.process.kill()
        self.process.wait(timeout=10.0)


def start_workers(count, flags=WORKER_FLAGS):
    """Start ``count`` workers on ephemeral ports and wait until each
    prints its ``worker serving ... on HOST:PORT`` line."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    processes = [
        subprocess.Popen(
            [sys.executable, "-m", "repro.engine", "worker", "--port", "0",
             *flags],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        for _ in range(count)
    ]
    # A worker that never announces itself is killed, which ends its
    # stdout and fails the start instead of hanging the test.
    watchdogs = [
        threading.Timer(STARTUP_TIMEOUT_S, process.kill)
        for process in processes
    ]
    for watchdog in watchdogs:
        watchdog.start()
    workers = []
    try:
        for process in processes:
            output = []
            for line in process.stdout:
                output.append(line)
                match = _SERVING.search(line)
                if match:
                    cell_id, host, port, label = match.groups()
                    workers.append(
                        CliWorker(process, (host, int(port)), cell_id, label)
                    )
                    break
            else:
                raise RuntimeError("worker exited early:\n" + "".join(output))
    except BaseException:
        for process in processes:
            process.kill()
            process.wait(timeout=10.0)
        raise
    finally:
        for watchdog in watchdogs:
            watchdog.cancel()
    return workers


def stop_workers(workers):
    for worker in workers:
        worker.kill()
        worker.process.stdout.close()


@pytest.fixture(scope="module")
def worker_cell():
    (cell,) = build_cells(WORKER_REQUEST)
    return cell


@pytest.fixture(scope="module")
def worker_monitor(worker_cell):
    return Avis(worker_cell.config,
                profiling_runs=worker_cell.profiling_runs).monitor


@pytest.fixture(scope="module")
def cli_workers():
    """Two long-lived workers for the tests that do not kill them."""
    workers = start_workers(2)
    yield workers
    stop_workers(workers)


def _remote_spec(workers):
    return "remote:" + ",".join(format_address(w.address) for w in workers)


class TestFraming:
    def _pair(self):
        server, client = socket.socketpair()
        server.settimeout(5.0)
        client.settimeout(5.0)
        return server, client

    def test_frames_round_trip(self):
        server, client = self._pair()
        try:
            frame = {"op": "task", "index": 3, "payload": "x" * 10_000}
            send_frame(client, frame)
            assert recv_frame(server) == frame
        finally:
            server.close()
            client.close()

    def test_truncated_frame_raises_protocol_error(self):
        server, client = self._pair()
        try:
            client.sendall(b"\x00\x00\x00\x10{\"op\"")  # promises 16 bytes
            client.close()
            with pytest.raises((ProtocolError, ConnectionError)):
                recv_frame(server)
        finally:
            server.close()

    def test_oversized_frame_rejected(self):
        server, client = self._pair()
        try:
            client.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError):
                recv_frame(server)
        finally:
            server.close()
            client.close()

    def test_payload_round_trips_scenarios(self):
        scenario = _scenarios(1)[0]
        assert decode_payload(encode_payload(scenario)) == scenario

    def test_addresses_round_trip(self):
        assert parse_address("127.0.0.1:7800") == ("127.0.0.1", 7800)
        assert format_address(("10.0.0.2", 9)) == "10.0.0.2:9"
        with pytest.raises(ValueError):
            parse_address("no-port")
        with pytest.raises(ValueError):
            parse_address("host:not-a-number")


class TestBackendSpecs:
    def test_specs_resolve_to_backends(self):
        assert isinstance(parse_backend_spec("serial"), SerialBackend)
        pool = parse_backend_spec("pool:3")
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.max_workers == 3
        assert isinstance(parse_backend_spec("pool"), ProcessPoolBackend)
        addressed = parse_backend_spec("remote:127.0.0.1:7801,127.0.0.1:7802")
        assert isinstance(addressed, RemoteBackend)
        assert addressed.max_workers == 2

    @pytest.mark.parametrize(
        "spec",
        ["", "turbo", "pool:0", "pool:x", "remote:", "remote:0",
         "serial:2", "remote:host"],
    )
    def test_bad_specs_are_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_backend_spec(spec)

    @pytest.mark.parametrize("spec", ["remote", "remote:2"])
    def test_local_remote_fleets_point_to_pool(self, spec):
        with pytest.raises(ValueError, match="pool:N"):
            parse_backend_spec(spec)

    def test_avis_takes_only_spec_strings(self, short_auto_config):
        for backend in (SerialBackend(), None, 4):
            with pytest.raises(TypeError, match="spec string"):
                Avis(short_auto_config, backend=backend)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            avis = Avis(short_auto_config, backend="pool:2")
        assert isinstance(avis.engine.backend, ProcessPoolBackend)


class TestWorkerLabel:
    def test_cli_label_is_the_controller_context(
        self, cli_workers, worker_cell, worker_monitor
    ):
        expected = context_label(
            context_fingerprint(worker_cell.config, worker_monitor)
        )
        assert [w.cell_id for w in cli_workers] == [worker_cell.cell_id] * 2
        assert [w.label for w in cli_workers] == [expected] * 2

    def test_different_cells_get_different_labels(self):
        auto, waypoint = build_cells(CampaignRequest(
            workloads=("auto", "waypoint"), strategies=("random",),
            budgets=(4.0,),
        ))
        fingerprints = [
            context_fingerprint(cell.config, None) for cell in (auto, waypoint)
        ]
        # The readable fingerprints share a long prefix, so a prefix
        # label would print the same context for both cells.
        assert fingerprints[0][:16] == fingerprints[1][:16]
        assert context_label(fingerprints[0]) != context_label(fingerprints[1])


class TestRemoteDeterminism:
    """The acceptance bar: remote == pool == serial, bit for bit."""

    def _campaign(self, cell, backend, strategy_factory, budget=5.0):
        avis = Avis(cell.config, profiling_runs=cell.profiling_runs,
                    budget_units=budget, backend=backend)
        avis.profile()
        campaign = avis.check(strategy=strategy_factory())
        return campaign, sorted(avis.cache.keys())

    def test_remote_matches_pool_and_serial(self, cli_workers, worker_cell):
        factory = lambda: RandomInjection(rng_seed=5)  # noqa: E731
        serial, serial_keys = self._campaign(worker_cell, "serial", factory)
        pooled, pooled_keys = self._campaign(worker_cell, "pool:2", factory)
        remote, remote_keys = self._campaign(
            worker_cell, _remote_spec(cli_workers), factory
        )
        for other in (pooled, remote):
            assert other.simulations == serial.simulations
            assert other.budget_spent == serial.budget_spent
            assert other.unsafe_scenario_count == serial.unsafe_scenario_count
            assert other.triggered_bug_ids == serial.triggered_bug_ids
            assert [r.scenario for r in other.results] == [
                r.scenario for r in serial.results
            ]
            assert [len(r.unsafe_conditions) for r in other.results] == [
                len(r.unsafe_conditions) for r in serial.results
            ]
        # Identical content-addressed cache keys: the runs really were
        # the same (config, scenario) pure functions on every fabric.
        assert pooled_keys == serial_keys
        assert remote_keys == serial_keys

    def test_sabre_budgets_match_serial(self, cli_workers, worker_cell):
        factory = lambda: AvisStrategy()  # noqa: E731
        serial, serial_keys = self._campaign(
            worker_cell, "serial", factory, budget=4.0
        )
        remote, remote_keys = self._campaign(
            worker_cell, _remote_spec(cli_workers), factory, budget=4.0
        )
        assert remote.simulations == serial.simulations
        assert remote.labels == serial.labels
        assert remote.budget_spent == pytest.approx(serial.budget_spent)
        assert [r.scenario for r in remote.results] == [
            r.scenario for r in serial.results
        ]
        assert remote_keys == serial_keys

    def test_worker_loss_mid_round_converges(self, worker_cell, worker_monitor):
        scenarios = _scenarios(6)
        expected = SerialBackend().run_scenarios(
            worker_cell.config, worker_monitor, scenarios
        )
        workers = start_workers(2)
        backend = RemoteBackend([w.address for w in workers])
        killed = []

        def assassinate(index, result):
            # Hard-kill one worker as soon as the first result lands;
            # its in-flight task must be requeued on the survivor.
            if not killed:
                workers[0].kill()
                killed.append(index)

        try:
            results = backend.run_scenarios(
                worker_cell.config, worker_monitor, scenarios,
                on_result=assassinate,
            )
        finally:
            stop_workers(workers)
        assert killed, "kill hook never fired"
        assert backend.requeued >= 1
        assert [r.scenario for r in results] == [
            r.scenario for r in expected
        ]
        assert [len(r.unsafe_conditions) for r in results] == [
            len(r.unsafe_conditions) for r in expected
        ]

    def test_all_workers_dead_falls_back_to_serial(
        self, worker_cell, worker_monitor
    ):
        scenarios = _scenarios(4)
        expected = SerialBackend().run_scenarios(
            worker_cell.config, worker_monitor, scenarios
        )
        workers = start_workers(2)
        backend = RemoteBackend([w.address for w in workers])

        def massacre(index, result):
            for worker in workers:
                if worker.process.poll() is None:
                    worker.kill()

        try:
            results = backend.run_scenarios(
                worker_cell.config, worker_monitor, scenarios,
                on_result=massacre,
            )
        finally:
            stop_workers(workers)
        assert [r.scenario for r in results] == [
            r.scenario for r in expected
        ]
        assert [len(r.unsafe_conditions) for r in results] == [
            len(r.unsafe_conditions) for r in expected
        ]

    def test_fingerprint_mismatch_rejects_worker(
        self, cli_workers, worker_cell, worker_monitor
    ):
        address = cli_workers[0].address
        fingerprint = context_fingerprint(worker_cell.config, worker_monitor)
        connections, failures = connect_workers(
            [address], "not-the-" + fingerprint, retries=1
        )
        assert not connections
        assert len(failures) == 1
        assert "fingerprint mismatch" in failures[0][1]
        # The same worker still accepts the real fingerprint.
        connections, failures = connect_workers(
            [address], fingerprint, retries=1
        )
        assert len(connections) == 1
        for connection in connections:
            connection.close()

    def test_explicit_unreachable_addresses_raise(
        self, worker_cell, worker_monitor
    ):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = probe.getsockname()
        backend = RemoteBackend([dead_address], connect_timeout=0.5, retries=1)
        with pytest.raises(ConnectionError):
            backend.run_scenarios(
                worker_cell.config, worker_monitor, _scenarios(1)
            )


class TestWorkerServer:
    """An in-process worker: it serves until its listener closes."""

    def _serve(self, worker_cell, worker_monitor):
        server = WorkerServer(worker_cell.config, worker_monitor, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def _stop(self, server, thread):
        # Shutting the listener down wakes the blocked accept; closing it
        # is what ends serve_forever.
        try:
            server._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        server.close()
        thread.join(timeout=10.0)
        return not thread.is_alive()

    def test_closed_listener_ends_serve_forever(
        self, worker_cell, worker_monitor
    ):
        server = WorkerServer(worker_cell.config, worker_monitor, port=0)
        server.close()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_shutdown_frame_is_unknown_and_worker_keeps_serving(
        self, worker_cell, worker_monitor
    ):
        server, thread = self._serve(worker_cell, worker_monitor)
        try:
            with socket.create_connection(server.address, timeout=10.0) as sock:
                send_frame(sock, {"type": "hello", "protocol": PROTOCOL_VERSION,
                                  "fingerprint": server.fingerprint})
                assert recv_frame(sock)["type"] == "welcome"
                send_frame(sock, {"type": "shutdown"})
                reply = recv_frame(sock)
                assert reply == {"type": "error",
                                 "reason": "unknown frame 'shutdown'"}
            # The controller hung up; the worker awaits the next one.
            connections, failures = connect_workers(
                [server.address], server.fingerprint, retries=1
            )
            assert failures == []
            assert len(connections) == 1
            for connection in connections:
                connection.close()
        finally:
            assert self._stop(server, thread)


class TestCacheFabric:
    def test_two_clients_share_one_store(self, tmp_path):
        # Two stores over one directory: each serves the other's puts
        # from disk.
        first = ResultCache(directory=str(tmp_path))
        second = ResultCache(directory=str(tmp_path))
        first.put("key-a", make_run_result(triggered_bugs=["APM-0001"]))
        restored = second.get("key-a")
        assert restored is not None
        assert restored.triggered_bugs == ["APM-0001"]
        second.put("key-b", make_run_result())
        assert first.get("key-b") is not None
        assert (first.hits, first.misses) == (1, 0)
        assert (second.hits, second.misses) == (1, 0)

    def test_stamp_mismatch_refuses_the_store(self, tmp_path):
        writer = ResultCache(directory=str(tmp_path))
        writer.put("key-a", make_run_result())
        # Entries written under another bug registry are never served.
        (tmp_path / ResultCache.VERSION_FILENAME).write_text("0" * 64 + "\n")
        reader = ResultCache(directory=str(tmp_path))
        assert reader.invalidated == 1
        assert reader.get("key-a") is None
        assert reader.misses == 1
        # The directory is re-stamped and shared again from here on.
        reader.put("key-b", make_run_result())
        assert ResultCache(directory=str(tmp_path)).get("key-b") is not None

    def test_lost_server_degrades_to_misses(self, tmp_path):
        import shutil

        directory = tmp_path / "shared"
        writer = ResultCache(directory=str(directory))
        reader = ResultCache(directory=str(directory))
        writer.put("key-a", make_run_result())
        shutil.rmtree(directory)
        # A lost shared directory is a miss, never an error; what a store
        # already holds in memory still hits.
        assert reader.get("key-a") is None
        assert reader.misses == 1
        assert writer.get("key-a") is not None
        reader.put("key-b", make_run_result())
        assert reader.get("key-b") is not None

    def test_campaign_runs_through_shared_cache(self, short_auto_config, tmp_path):
        # Two orchestrators, each on its own store over one directory:
        # the second campaign is served entirely from the first's puts.
        def campaign():
            cache = ResultCache(directory=str(tmp_path))
            avis = Avis(short_auto_config, profiling_runs=2,
                        budget_units=3.0, cache=cache)
            avis.profile()
            return avis.check(strategy=RandomInjection(rng_seed=3)), cache

        cold, _ = campaign()
        warm, warm_cache = campaign()
        assert warm.simulations == cold.simulations
        assert [r.scenario for r in warm.results] == [
            r.scenario for r in cold.results
        ]
        assert warm_cache.hits >= warm.simulations
        assert warm_cache.misses == 0
