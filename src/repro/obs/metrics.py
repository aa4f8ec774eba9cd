"""The metrics registry: labelled counters, gauges and histograms.

A deliberately small, zero-dependency subset of the Prometheus data
model, tuned for campaign introspection rather than scraping:

* **Counters** only go up (``inc``).  Round counts, proposals, cache
  hits, pruning decisions.
* **Gauges** hold the latest value (``set``).  Queue depths.
* **Histograms** bucket observations against *fixed* boundaries chosen
  at creation.  Round wall times, per-task execute and queue-wait
  times.  Fixed boundaries keep snapshots mergeable across grid cells
  and comparable across runs.

Instruments are keyed by ``(name, labels)``: asking the registry for
the same name and label set returns the same instrument, so
instrumentation sites never hold references across runs.  Snapshots
render labels in sorted order -- two registries fed the same
observations produce byte-identical JSON, which is what the snapshot
determinism tests pin.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram boundaries for durations in seconds: spans four
#: orders of magnitude, from sub-millisecond sensor reads to minute-long
#: campaign rounds.
DEFAULT_TIME_BUCKETS_S: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


def _label_suffix(labels: Dict[str, object]) -> str:
    """The canonical ``{key=value,...}`` rendering of a label set."""
    if not labels:
        return ""
    rendered = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return "{" + rendered + "}"


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move in either direction; snapshots keep the last."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount


class Histogram:
    """Observations bucketed against fixed, sorted boundaries.

    An observation lands in the first bucket whose upper boundary is
    >= the value; values beyond the last boundary land in the implicit
    ``+Inf`` overflow bucket.  ``sum`` and ``count`` ride along so mean
    values survive snapshotting.
    """

    __slots__ = ("boundaries", "bucket_counts", "sum", "count")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_TIME_BUCKETS_S) -> None:
        ordered = tuple(float(boundary) for boundary in boundaries)
        if not ordered:
            raise ValueError("a histogram needs at least one bucket boundary")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket boundaries must be strictly increasing")
        self.boundaries = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect.bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> Dict[str, object]:
        """The JSON-serialisable rendering of this histogram."""
        buckets = {
            f"le={boundary:g}": count
            for boundary, count in zip(self.boundaries, self.bucket_counts)
        }
        buckets["le=+Inf"] = self.bucket_counts[-1]
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


class MetricsRegistry:
    """Get-or-create store of labelled instruments with one snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @staticmethod
    def _key(name: str, labels: Dict[str, object]) -> str:
        if not name:
            raise ValueError("a metric needs a non-empty name")
        return name + _label_suffix(labels)

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter registered under ``name`` and ``labels``."""
        key = self._key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge registered under ``name`` and ``labels``."""
        key = self._key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: object,
    ) -> Histogram:
        """The histogram registered under ``name`` and ``labels``.

        ``buckets`` fixes the boundaries on first creation; asking again
        with *different* boundaries is a registration error (silently
        returning the old buckets would skew every later observation).
        """
        key = self._key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                buckets if buckets is not None else DEFAULT_TIME_BUCKETS_S
            )
        elif buckets is not None and tuple(float(b) for b in buckets) != (
            instrument.boundaries
        ):
            raise ValueError(
                f"histogram '{key}' already registered with boundaries "
                f"{instrument.boundaries}"
            )
        return instrument

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """A deterministic, JSON-serialisable dump of every instrument."""
        return {
            "counters": {
                key: self._counters[key].value for key in sorted(self._counters)
            },
            "gauges": {key: self._gauges[key].value for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].snapshot()
                for key in sorted(self._histograms)
            },
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str, indent: int = 2) -> None:
        """Write the snapshot to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=indent) + "\n")


def merge_snapshots(snapshots: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate several registry snapshots into one.

    Counters and histogram buckets/sums/counts add; gauges keep the
    maximum (the only merge that is meaningful for depth-style gauges
    aggregated across grid cells).  Histograms with mismatched bucket
    boundaries raise -- fixed boundaries are what make merging sound.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in snapshot.get("gauges", {}).items():
            gauges[key] = max(gauges[key], value) if key in gauges else value
        for key, rendered in snapshot.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "count": rendered["count"],
                    "sum": rendered["sum"],
                    "buckets": dict(rendered["buckets"]),
                }
                continue
            if set(merged["buckets"]) != set(rendered["buckets"]):
                raise ValueError(
                    f"histogram '{key}' has mismatched bucket boundaries "
                    "across snapshots"
                )
            merged["count"] += rendered["count"]
            merged["sum"] += rendered["sum"]
            for bucket, count in rendered["buckets"].items():
                merged["buckets"][bucket] += count
    return {
        "counters": {key: counters[key] for key in sorted(counters)},
        "gauges": {key: gauges[key] for key in sorted(gauges)},
        "histograms": {key: histograms[key] for key in sorted(histograms)},
    }
