"""The mode graph used by the liveliness distance (Section IV-C).

"A mode graph is a directed graph, where each node represents a mode and
each edge represents a mode-change event.  The mode graph is constructed
from the observed transitions between modes in the profiling runs."  The
distance between two modes is the length of the shortest path between
them; the longest such path (the graph's diameter, ``D``) normalises the
position and acceleration distances.

The graph holds a handful of labels, so distances are hop counts found by
breadth-first search over two adjacency maps.  A pair with no directed
path falls back to the undirected hop count (successors plus
predecessors); a pair with neither, or an unknown mode, is ``D + 1``
apart.  ``D`` itself is the largest undirected hop count.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hinj.instrumentation import ModeTransition

#: label -> neighbours, each in first-seen order (a dict as ordered set).
_Adjacency = Dict[str, Dict[str, None]]


def _hops(source: str, *adjacencies: _Adjacency) -> Dict[str, int]:
    """Breadth-first hop count from ``source`` to every label it reaches,
    one hop being an edge of any of ``adjacencies``."""
    depth = {source: 0}
    frontier = [source]
    while frontier:
        following = []
        for label in frontier:
            for adjacency in adjacencies:
                for neighbour in adjacency[label]:
                    if neighbour not in depth:
                        depth[neighbour] = depth[label] + 1
                        following.append(neighbour)
        frontier = following
    return depth


class ModeGraph:
    """Directed graph over operating-mode labels with shortest-path distance."""

    def __init__(self) -> None:
        self._successors: _Adjacency = {}
        self._predecessors: _Adjacency = {}
        self._distance_cache: Dict[Tuple[str, str], int] = {}
        self._diameter: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_transition(self, source: Optional[str], destination: str) -> None:
        """Record one observed mode-change event."""
        self._add_mode(destination)
        if source is not None and source != destination:
            self._add_mode(source)
            self._successors[source][destination] = None
            self._predecessors[destination][source] = None
        self._distance_cache.clear()
        self._diameter = None

    def _add_mode(self, label: str) -> None:
        if label not in self._successors:
            self._successors[label] = {}
            self._predecessors[label] = {}

    def add_transitions(self, transitions: Iterable[ModeTransition]) -> None:
        """Record a whole profiling run's transition list."""
        for transition in transitions:
            self.add_transition(transition.previous, transition.label)

    @classmethod
    def from_profiling_runs(
        cls, runs: Sequence[Sequence[ModeTransition]]
    ) -> "ModeGraph":
        """Build the mode graph from the transitions of several runs."""
        graph = cls()
        for transitions in runs:
            graph.add_transitions(transitions)
        return graph

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def modes(self) -> List[str]:
        """Every mode label seen in the profiling runs."""
        return sorted(self._successors)

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """Every observed mode-change edge."""
        return sorted(
            (source, destination)
            for source, successors in self._successors.items()
            for destination in successors
        )

    def __contains__(self, label: str) -> bool:
        return label in self._successors

    def _undirected_hops(self, source: str) -> Dict[str, int]:
        return _hops(source, self._successors, self._predecessors)

    def distance(self, source: str, destination: str) -> int:
        """Shortest-path distance ``d_m`` between two modes.

        Unknown modes (never seen in profiling) and unreachable pairs are
        assigned the graph diameter plus one -- the test run has wandered
        somewhere the profiling runs never go, which is maximally far.
        """
        if source == destination:
            return 0
        key = (source, destination)
        if key in self._distance_cache:
            return self._distance_cache[key]
        result: Optional[int] = None
        if source in self and destination in self:
            result = _hops(source, self._successors).get(destination)
            if result is None:
                # Fall back to the undirected distance: a drone cannot land
                # before flying, but "one transition apart in either
                # direction" is still closer than "unrelated modes".
                result = self._undirected_hops(source).get(destination)
        if result is None:
            result = self.diameter + 1
        self._distance_cache[key] = result
        return result

    @property
    def diameter(self) -> int:
        """``D``: the length of the longest shortest path in the graph."""
        if self._diameter is not None:
            return self._diameter
        longest = 1
        for source in self._successors:
            longest = max(longest, *self._undirected_hops(source).values())
        self._diameter = longest
        return self._diameter

    def describe(self) -> str:
        """Readable adjacency listing used in reports."""
        lines = []
        for source in sorted(self._successors):
            successors = sorted(self._successors[source])
            if successors:
                lines.append(f"{source} -> {', '.join(successors)}")
            else:
                lines.append(f"{source} (terminal)")
        return "\n".join(lines)
