"""Metric instruments beyond flat counters: histograms and gauges.

:class:`Counters` answers "how many"; the experiments' *why* questions
need distributions — how long fault service took at the tail, how far
behind the ring a message queued, how wide an invalidation fanned out.
A :class:`Histogram` records every observation exactly (simulated
quantities are cheap integers) and reports nearest-rank percentiles,
so every reported quantile is an observed value, as exact as the
simulated times it summarises.

A :class:`Gauge` tracks the latest value of a sampled level (resident
frames).  :class:`Metrics` is the per-run registry of both.

These instruments are pure observation: observing never schedules
simulation events, consumes RNG, or yields effects, so enabling them
cannot change simulated times or event counts.
"""

from __future__ import annotations

__all__ = ["Histogram", "Gauge", "Metrics"]

#: The percentiles every report prints.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)


class Histogram:
    """Exact-value histogram with nearest-rank percentiles."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def min(self) -> float | None:
        return min(self._values) if self._values else None

    @property
    def max(self) -> float | None:
        return max(self._values) if self._values else None

    def mean(self) -> float | None:
        return self.total / len(self._values) if self._values else None

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile (q in [0, 100]); None when empty.

        With a single sample every percentile is that sample; ranks
        never interpolate, so the result is always an observed value.
        """
        if not self._values:
            return None
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} out of [0, 100]")
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = max(1, -(-int(q * len(self._values)) // 100))  # ceil(q*n/100)
        return self._values[rank - 1]

    def summary(self) -> dict[str, float | int | None]:
        out: dict[str, float | int | None] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }
        for q in REPORT_PERCENTILES:
            out[f"p{q:g}"] = self.percentile(q)
        return out


class Gauge:
    """Latest value of a sampled level (plus the observed peak)."""

    __slots__ = ("name", "value", "peak", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None
        self.peak: float | None = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = value if self.peak is None else max(self.peak, value)
        self.updates += 1


class Metrics:
    """A registry of named instruments (one per run)."""

    def __init__(self) -> None:
        self.histograms: dict[str, Histogram] = {}
        self.gauges: dict[str, Gauge] = {}

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        g.set(value)

    def snapshot(self) -> dict[str, dict[str, float | int | None]]:
        out: dict[str, dict[str, float | int | None]] = {
            name: hist.summary() for name, hist in sorted(self.histograms.items())
        }
        for name, g in sorted(self.gauges.items()):
            out[name] = {"value": g.value, "peak": g.peak, "updates": g.updates}
        return out
