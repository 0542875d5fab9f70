"""Histogram / gauge / metrics-registry unit tests, including the
percentile edge cases the reports depend on (empty, single-sample)."""

import pytest

from repro.metrics.hist import Gauge, Histogram, Metrics


def test_empty_histogram_reports_none_everywhere():
    h = Histogram("empty")
    assert h.count == 0 and h.total == 0
    assert h.min is None and h.max is None and h.mean() is None
    for q in (0, 50, 95, 99, 100):
        assert h.percentile(q) is None
    summary = h.summary()
    assert summary["count"] == 0 and summary["p50"] is None


def test_single_sample_is_every_percentile():
    h = Histogram("one")
    h.observe(42)
    for q in (0, 1, 50, 95, 99, 100):
        assert h.percentile(q) == 42
    assert h.min == h.max == h.mean() == 42


def test_percentiles_are_nearest_rank_not_interpolated():
    h = Histogram("ranks")
    for v in (10, 20, 30, 40):
        h.observe(v)
    # ceil(q*n/100) ranks: every answer is an observed value.
    assert h.percentile(0) == 10
    assert h.percentile(25) == 10
    assert h.percentile(26) == 20
    assert h.percentile(50) == 20
    assert h.percentile(75) == 30
    assert h.percentile(99) == 40
    assert h.percentile(100) == 40


def test_percentile_rejects_out_of_range_q():
    h = Histogram("x")
    h.observe(1)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(100.5)


def test_out_of_order_observations_still_rank_correctly():
    h = Histogram("shuffle")
    for v in (30, 10, 40, 20):
        h.observe(v)
    assert h.percentile(50) == 20
    assert h.max == 40
    # Observing after a percentile query re-sorts lazily.
    h.observe(5)
    assert [h.percentile(q) for q in (0, 20, 40, 60, 80, 100)] == [
        5, 5, 10, 20, 30, 40
    ]


def test_gauge_tracks_latest_and_peak():
    g = Gauge("frames")
    assert g.value is None and g.peak is None
    g.set(4)
    g.set(9)
    g.set(2)
    assert g.value == 2 and g.peak == 9 and g.updates == 3


def test_metrics_registry_reuses_instruments():
    m = Metrics()
    m.observe("lat", 5)
    m.observe("lat", 7)
    m.gauge("level", 3)
    assert m.histogram("lat") is m.histograms["lat"]
    assert m.histograms["lat"].count == 2
    snap = m.snapshot()
    assert snap["lat"]["count"] == 2 and snap["lat"]["p50"] == 5
    assert snap["level"] == {"value": 3, "peak": 3, "updates": 1}


def test_format_instruments_renders_percentile_columns():
    from repro.metrics.report import format_instruments

    m = Metrics()
    for v in range(1, 101):
        m.observe("fault.read_ns", v)
    m.gauge("frames.resident", 12)
    table = format_instruments(m)
    assert "fault.read_ns" in table
    assert "p50" in table and "p95" in table and "p99" in table
    assert "frames.resident (gauge)" in table
    empty = format_instruments(Metrics())
    assert "(no observations)" in empty
