"""The remote execution wire layer: frames, handshakes, workers.

The distributed campaign fabric ships ``(context fingerprint,
serialized scenario)`` tasks from a campaign's controller to worker
processes over TCP and collects ``(index, serialized result)`` replies.
This module owns everything below
:class:`repro.engine.backends.RemoteBackend`:

* **Framing** -- every message is one length-prefixed JSON object
  (4-byte big-endian length, then UTF-8 JSON).  JSON keeps the frames
  inspectable on the wire; the simulation objects inside them
  (:class:`~repro.hinj.faults.FaultScenario`,
  :class:`~repro.core.runner.RunResult`) travel as base64-encoded
  pickles in the ``scenario``/``result`` fields, exactly the payloads
  that already cross the fork boundary of the process-pool backend.
* **Handshake** -- a controller opens each worker connection with a
  ``hello`` frame carrying the *context fingerprint*: the cache-layer
  rendering of everything a run's outcome depends on (configuration,
  workload parameters, monitor calibration).  A worker serving a
  different context answers ``reject`` instead of ``welcome``, so a
  drifted worker can never silently contribute results from the wrong
  campaign -- the same self-invalidation idea the result cache's
  version stamps use.
* **Worker server** -- :class:`WorkerServer` runs simulations for one
  ``(config, monitor)`` context, one controller connection at a time
  (parallelism comes from running several workers).  Workers are
  started with ``python -m repro.engine worker``: each rebuilds its
  grid cell from the same matrix flags as the controller and profiles
  itself deterministically, so its fingerprint matches.  Because a
  run's outcome is a pure function of ``(config, scenario)``, a worker
  is interchangeable with in-process execution -- which is what makes
  the remote backend bit-identical to the serial one.  Local
  parallelism on one host is the process-pool backend's job
  (``pool:N``).
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import socket
import struct
from typing import Iterable, List, Optional, Tuple

from repro.core.config import RunConfiguration
from repro.engine.cache import campaign_fingerprint, config_fingerprint

#: Version of the frame protocol.  A controller and a worker must agree
#: exactly; bumped whenever a frame gains or changes a required field.
PROTOCOL_VERSION = 1

#: Hard cap on one frame's JSON body.  A full fleet RunResult pickles to
#: well under a megabyte; anything larger than this is a corrupt or
#: hostile length prefix, and refusing it beats allocating blindly.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(ConnectionError):
    """A peer spoke something other than the frame protocol."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, frame: dict) -> None:
    """Serialize ``frame`` as one length-prefixed JSON message."""
    body = json.dumps(frame, sort_keys=True).encode("utf-8")
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> dict:
    """Read one length-prefixed JSON frame; raises ``ConnectionError``
    when the peer hangs up and :class:`ProtocolError` on garbage."""
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the protocol cap")
    try:
        frame = json.loads(_recv_exact(sock, length).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError("frame is not a JSON object")
    return frame


def encode_payload(obj: object) -> str:
    """Render a simulation object for the JSON wire (base64 pickle)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str) -> object:
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


# ----------------------------------------------------------------------
# Context identity
# ----------------------------------------------------------------------
def context_fingerprint(config: RunConfiguration, monitor) -> str:
    """Everything a remote run's outcome depends on, as one string.

    The configuration term is the cache layer's
    :func:`~repro.engine.cache.config_fingerprint`; the workload term is
    :func:`~repro.engine.cache.campaign_fingerprint`, which folds in the
    monitor's calibrated separation threshold -- a worker profiled under
    a different calibration would record different proximity events, so
    it must not serve this campaign.
    """
    workload_term = campaign_fingerprint(config, monitor)
    return config_fingerprint(config, workload_term)


def context_label(fingerprint: str) -> str:
    """A short, log-friendly digest of a context fingerprint.

    Fingerprints are readable renderings that share long prefixes
    (``firmware=ardupilot...``), so a prefix would not tell two workers
    apart; a sha256 digest does.
    """
    return hashlib.sha256(fingerprint.encode("utf-8")).hexdigest()[:16]


def parse_address(text: str) -> Tuple[str, int]:
    """Parse one ``host:port`` endpoint (IPv4/hostname only)."""
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected host:port, got '{text}'")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in '{text}'") from None
    if not 0 < port < 65536:
        raise ValueError(f"port out of range in '{text}'")
    return host, port


def format_address(address: Tuple[str, int]) -> str:
    """Inverse of :func:`parse_address`, used for worker labels."""
    return f"{address[0]}:{address[1]}"


# ----------------------------------------------------------------------
# Worker server
# ----------------------------------------------------------------------
class WorkerServer:
    """Serves simulations of one ``(config, monitor)`` context over TCP.

    One controller connection is served at a time: the backend opens a
    persistent connection per worker and pipelines tasks over it, so a
    worker process is busy exactly when its controller keeps it busy.
    ``serve_forever`` runs until the process is killed or the listener
    is closed.
    """

    def __init__(
        self,
        config: RunConfiguration,
        monitor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._config = config
        self._monitor = monitor
        self._fingerprint = context_fingerprint(config, monitor)
        self._listener = socket.create_server((host, port))
        self._runner = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` endpoint."""
        return self._listener.getsockname()[:2]

    @property
    def fingerprint(self) -> str:
        """The context fingerprint this worker answers hellos with."""
        return self._fingerprint

    def close(self) -> None:
        self._listener.close()

    def serve_forever(self) -> None:
        """Accept controllers until the listener closes."""
        try:
            while True:
                try:
                    connection, _ = self._listener.accept()
                except OSError:
                    return
                try:
                    self._serve_connection(connection)
                finally:
                    try:
                        connection.close()
                    except OSError:
                        pass
        finally:
            self.close()

    def _serve_connection(self, connection: socket.socket) -> None:
        """Serve one controller until it disconnects."""
        try:
            hello = recv_frame(connection)
        except (ConnectionError, OSError):
            return
        if (
            hello.get("type") != "hello"
            or hello.get("protocol") != PROTOCOL_VERSION
        ):
            try:
                send_frame(
                    connection,
                    {"type": "reject", "reason": "protocol mismatch"},
                )
            except OSError:
                pass
            return
        if hello.get("fingerprint") != self._fingerprint:
            try:
                send_frame(
                    connection,
                    {
                        "type": "reject",
                        "reason": "context fingerprint mismatch",
                        "fingerprint": self._fingerprint,
                    },
                )
            except OSError:
                pass
            return
        try:
            send_frame(
                connection,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "fingerprint": self._fingerprint,
                },
            )
        except OSError:
            return
        while True:
            try:
                frame = recv_frame(connection)
            except (ConnectionError, OSError):
                return  # controller went away; await the next one
            kind = frame.get("type")
            if kind != "task":
                try:
                    send_frame(
                        connection,
                        {"type": "error", "reason": f"unknown frame '{kind}'"},
                    )
                except OSError:
                    return
                continue
            reply = self._run_task(frame)
            try:
                send_frame(connection, reply)
            except OSError:
                return

    def _run_task(self, frame: dict) -> dict:
        index = frame.get("index")
        try:
            scenario = decode_payload(frame["scenario"])
        except Exception as error:  # corrupt payload must not kill the worker
            return {
                "type": "error",
                "index": index,
                "reason": f"undecodable scenario: {error}",
            }
        if self._runner is None:
            # One runner per worker lifetime, exactly like SerialBackend
            # holds one per batch -- provisioning is per-run regardless.
            from repro.core.runner import TestRunner

            self._runner = TestRunner(self._config, monitor=self._monitor)
        try:
            result = self._runner.run(scenario)
        except Exception as error:
            return {
                "type": "error",
                "index": index,
                "reason": f"simulation failed: {error}",
            }
        return {
            "type": "result",
            "index": index,
            "result": encode_payload(result),
        }


# ----------------------------------------------------------------------
# Controller-side connection
# ----------------------------------------------------------------------
class WorkerConnection:
    """A controller's persistent, handshaken link to one worker."""

    def __init__(
        self,
        address: Tuple[str, int],
        fingerprint: str,
        connect_timeout: float = 10.0,
        task_timeout: Optional[float] = 600.0,
    ) -> None:
        self.address = address
        self.label = format_address(address)
        self._task_timeout = task_timeout
        self._sock = socket.create_connection(address, timeout=connect_timeout)
        try:
            send_frame(
                self._sock,
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "fingerprint": fingerprint,
                },
            )
            welcome = recv_frame(self._sock)
            if welcome.get("type") != "welcome":
                raise ProtocolError(
                    f"worker {self.label} rejected the handshake: "
                    f"{welcome.get('reason', 'no reason given')}"
                )
        except BaseException:
            self._sock.close()
            raise

    def run_task(self, index: int, scenario) -> Tuple[int, object]:
        """Ship one task frame and block for its result frame."""
        self._sock.settimeout(self._task_timeout)
        send_frame(
            self._sock,
            {
                "type": "task",
                "index": index,
                "scenario": encode_payload(scenario),
            },
        )
        reply = recv_frame(self._sock)
        kind = reply.get("type")
        if kind == "result":
            return reply["index"], decode_payload(reply["result"])
        if kind == "error":
            raise RemoteTaskError(reply.get("reason", "unknown worker error"))
        raise ProtocolError(f"unexpected reply frame '{kind}'")

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RemoteTaskError(RuntimeError):
    """A worker executed a task and reported a failure.

    Distinct from connection loss: the worker is healthy and the task
    itself is poisoned, so requeueing it elsewhere would fail the same
    way.  The backend surfaces it instead of retrying forever.
    """


def connect_workers(
    addresses: Iterable[Tuple[str, int]],
    fingerprint: str,
    connect_timeout: float = 10.0,
    task_timeout: Optional[float] = 600.0,
    retries: int = 3,
    retry_delay_s: float = 0.2,
) -> Tuple[List[WorkerConnection], List[Tuple[Tuple[str, int], str]]]:
    """Handshake every address; returns ``(connections, failures)``.

    Connection-refused and timeouts are retried ``retries`` times with a
    linear backoff (workers may still be binding); a handshake
    *rejection* is never retried -- the worker is alive and serving a
    different context, so waiting cannot help.
    """
    import time as _time

    connections: List[WorkerConnection] = []
    failures: List[Tuple[Tuple[str, int], str]] = []
    for address in addresses:
        last_error = "unreachable"
        for attempt in range(max(1, retries)):
            try:
                connections.append(
                    WorkerConnection(
                        address,
                        fingerprint,
                        connect_timeout=connect_timeout,
                        task_timeout=task_timeout,
                    )
                )
                break
            except ProtocolError as error:
                last_error = str(error)
                failures.append((address, last_error))
                break
            except (OSError, ConnectionError) as error:
                last_error = str(error) or type(error).__name__
                if attempt + 1 < max(1, retries):
                    _time.sleep(retry_delay_s * (attempt + 1))
        else:
            failures.append((address, last_error))
    return connections, failures
