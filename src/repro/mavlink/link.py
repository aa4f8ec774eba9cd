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
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple, Type, TypeVar

from repro.mavlink.messages import Message

MessageT = TypeVar("MessageT", bound=Message)


@dataclass
class LinkStats:
    """Counters describing traffic over one direction of the link."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0


class _Channel:
    """One direction of the link (a FIFO with an optional delivery delay)."""

    def __init__(self, delay_steps: int = 0, capacity: Optional[int] = None) -> None:
        if delay_steps < 0:
            raise ValueError("delay_steps cannot be negative")
        self._delay_steps = delay_steps
        self._capacity = capacity
        self._queue: Deque[Tuple[int, Message]] = deque()
        self._step = 0
        self.stats = LinkStats()

    def advance(self) -> None:
        """Advance the channel clock by one simulation step."""
        self._step += 1

    def send(self, message: Message) -> bool:
        """Enqueue ``message``; returns False when the channel is full."""
        if self._capacity is not None and len(self._queue) >= self._capacity:
            self.stats.dropped += 1
            return False
        self._queue.append((self._step + self._delay_steps, message))
        self.stats.sent += 1
        return True

    def receive_all(self) -> List[Message]:
        """Dequeue every message whose delivery time has arrived."""
        delivered: List[Message] = []
        while self._queue and self._queue[0][0] <= self._step:
            _, message = self._queue.popleft()
            delivered.append(message)
            self.stats.delivered += 1
        return delivered

    @property
    def pending(self) -> int:
        """Number of messages waiting in the channel."""
        return len(self._queue)


class MavLink:
    """Bidirectional link: GCS <-> vehicle."""

    def __init__(self, delay_steps: int = 0, capacity: Optional[int] = None) -> None:
        self._to_vehicle = _Channel(delay_steps=delay_steps, capacity=capacity)
        self._to_gcs = _Channel(delay_steps=delay_steps, capacity=capacity)

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
    def gcs_send(self, message: Message) -> bool:
        """Send a message from the ground-control station to the vehicle."""
        return self._to_vehicle.send(message)

    def gcs_receive(self) -> List[Message]:
        """Receive every pending message addressed to the GCS."""
        return self._to_gcs.receive_all()

    # ------------------------------------------------------------------
    # Vehicle side
    # ------------------------------------------------------------------
    def vehicle_send(self, message: Message) -> bool:
        """Send a message from the vehicle to the ground-control station."""
        return self._to_gcs.send(message)

    def vehicle_receive(self) -> List[Message]:
        """Receive every pending message addressed to the vehicle."""
        return self._to_vehicle.receive_all()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def to_vehicle_stats(self) -> LinkStats:
        """Traffic counters for the GCS -> vehicle direction."""
        return self._to_vehicle.stats

    @property
    def pending_to_vehicle(self) -> int:
        """Messages queued toward the vehicle."""
        return self._to_vehicle.pending

    @property
    def pending_to_gcs(self) -> int:
        """Messages queued toward the GCS."""
        return self._to_gcs.pending


def drain_messages_of_type(
    messages: List[Message], message_type: Type[MessageT]
) -> Tuple[List[MessageT], List[Message]]:
    """Split ``messages`` into those of ``message_type`` and the rest."""
    matching: List[MessageT] = []
    remaining: List[Message] = []
    for message in messages:
        if isinstance(message, message_type):
            matching.append(message)
        else:
            remaining.append(message)
    return matching, remaining
