"""The in-process link between the ground-control station and the firmware.

The link is a pair of FIFO queues.  Delivery is deterministic: a message
sent during step *n* is available to the receiving side from step *n*
onwards.  An optional per-message delivery delay models the "slight
delays between the workload sending and the firmware receiving messages"
that the paper cites as a source of benign non-determinism; it is
deterministic here (a fixed number of steps) so runs stay reproducible.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.mavlink.messages import Message


class _Channel:
    """One direction of the link (a FIFO with an optional delivery delay)."""

    def __init__(self, delay_steps: int = 0) -> None:
        if delay_steps < 0:
            raise ValueError("delay_steps cannot be negative")
        self._delay_steps = delay_steps
        self._queue: Deque[Tuple[int, Message]] = deque()
        self._step = 0

    def advance(self) -> None:
        """Advance the channel clock by one simulation step."""
        self._step += 1

    def send(self, message: Message) -> None:
        """Enqueue ``message`` for delivery ``delay_steps`` steps from now."""
        self._queue.append((self._step + self._delay_steps, message))

    def receive_all(self) -> List[Message]:
        """Dequeue every message whose delivery time has arrived."""
        delivered: List[Message] = []
        while self._queue and self._queue[0][0] <= self._step:
            _, message = self._queue.popleft()
            delivered.append(message)
        return delivered


class MavLink:
    """Bidirectional link: GCS <-> vehicle."""

    def __init__(self, delay_steps: int = 0) -> None:
        self._to_vehicle = _Channel(delay_steps=delay_steps)
        self._to_gcs = _Channel(delay_steps=delay_steps)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Advance both directions by one simulation step."""
        self._to_vehicle.advance()
        self._to_gcs.advance()

    # ------------------------------------------------------------------
    # GCS side
    # ------------------------------------------------------------------
    def gcs_send(self, message: Message) -> None:
        """Send a message from the ground-control station to the vehicle."""
        self._to_vehicle.send(message)

    def gcs_receive(self) -> List[Message]:
        """Receive every pending message addressed to the GCS."""
        return self._to_gcs.receive_all()

    # ------------------------------------------------------------------
    # Vehicle side
    # ------------------------------------------------------------------
    def vehicle_send(self, message: Message) -> None:
        """Send a message from the vehicle to the ground-control station."""
        self._to_gcs.send(message)

    def vehicle_receive(self) -> List[Message]:
        """Receive every pending message addressed to the vehicle."""
        return self._to_vehicle.receive_all()
