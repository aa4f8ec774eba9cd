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
    """One direction of the link (a FIFO with an optional delivery delay),
    read against the link's step clock."""

    def __init__(self, delay_steps: int = 0) -> None:
        if delay_steps < 0:
            raise ValueError("delay_steps cannot be negative")
        self._delay_steps = delay_steps
        #: Messages in flight as (due step, message), oldest first.
        self.queue: Deque[Tuple[int, Message]] = deque()

    def send(self, message: Message, step: int) -> None:
        """Enqueue ``message``, sent at ``step``, for delivery
        ``delay_steps`` steps later."""
        self.queue.append((step + self._delay_steps, message))

    def receive_all(self, step: int) -> List[Message]:
        """Dequeue every message due by ``step``."""
        queue = self.queue
        if not queue or queue[0][0] > step:
            return []
        delivered: List[Message] = []
        while queue and queue[0][0] <= step:
            delivered.append(queue.popleft()[1])
        return delivered


class MavLink:
    """Bidirectional link: GCS <-> vehicle."""

    def __init__(self, delay_steps: int = 0) -> None:
        self._to_vehicle = _Channel(delay_steps=delay_steps)
        self._to_gcs = _Channel(delay_steps=delay_steps)
        # Simulation steps advanced so far; both directions share it.
        self._step = 0
        #: The messages in flight to each end, for its per-step empty
        #: check; read them, never change them.
        self.gcs_inbox = self._to_gcs.queue
        self.vehicle_inbox = self._to_vehicle.queue

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def advance(self) -> None:
        """Advance both directions by one simulation step."""
        self._step += 1

    # ------------------------------------------------------------------
    # GCS side
    # ------------------------------------------------------------------
    def gcs_send(self, message: Message) -> None:
        """Send a message from the ground-control station to the vehicle."""
        self._to_vehicle.send(message, self._step)

    def gcs_receive(self) -> List[Message]:
        """Receive every pending message addressed to the GCS."""
        return self._to_gcs.receive_all(self._step)

    # ------------------------------------------------------------------
    # Vehicle side
    # ------------------------------------------------------------------
    def vehicle_send(self, message: Message) -> None:
        """Send a message from the vehicle to the ground-control station."""
        self._to_gcs.send(message, self._step)

    def vehicle_receive(self) -> List[Message]:
        """Receive every pending message addressed to the vehicle."""
        return self._to_vehicle.receive_all(self._step)
