"""SLO engine tests: the spec grammar, window scoring, onset rules."""

import pytest

from repro.metrics.report import format_slo_report
from repro.obs.slo import AGGS, SloSpec, evaluate, parse_slo
from repro.obs.timeline import Timeline


# ---------------------------------------------------------------------------
# grammar


def test_parse_agg_spec_with_units():
    spec = parse_slo("p99(fault.read_ns) < 60ms")
    assert spec == SloSpec(
        "p99(fault.read_ns) < 60ms", "p99", "fault.read_ns", "<", 60_000_000
    )
    assert parse_slo("mean(x) <= 2us").threshold == 2_000
    assert parse_slo("max(x) < 1s").threshold == 1_000_000_000
    assert parse_slo("count(span.serve:svm.read.busy_ns) < 500").threshold == 500


def test_parse_link_utilisation_percent_and_ratio():
    assert parse_slo("link_utilisation < 90%").threshold == pytest.approx(0.9)
    assert parse_slo("link_utilisation <= 0.75").threshold == 0.75
    assert parse_slo("link_utilisation <= 0.75").op == "<="


@pytest.mark.parametrize(
    "junk",
    [
        "p42(x) < 5",  # unknown aggregation
        "p99(x) > 5",  # only upper bounds
        "p99(x) < 5% ",  # % needs link_utilisation
        "link_utilisation < 5ms",  # wrong unit
        "utterly wrong",
    ],
)
def test_parse_rejects_junk_with_grammar_hint(junk):
    with pytest.raises(ValueError):
        parse_slo(junk)


def test_holds_respects_operator():
    lt = parse_slo("max(x) < 10")
    le = parse_slo("max(x) <= 10")
    assert lt.holds(9) and not lt.holds(10)
    assert le.holds(10) and not le.holds(11)
    assert set(AGGS) == {"p50", "p90", "p95", "p99", "max", "mean", "count"}


# ---------------------------------------------------------------------------
# evaluation


def _loaded_timeline():
    tl = Timeline(100)
    # Window 0: fast (5ns), window 2: slow (900ns); window 1 idle.
    tl.observe("lat", 5, t=10)
    tl.observe("lat", 900, t=250)
    tl.link_busy("m", 0, 30)     # window 0: 30% util
    tl.link_busy("m", 200, 290)  # window 2: 90% util
    return tl


def test_evaluate_finds_first_violation_per_spec():
    tl = _loaded_timeline()
    report = evaluate(tl, 300, [parse_slo("p99(lat) < 100ns")])
    (res,) = report.results
    assert res.values == [5, None, 900]
    assert res.first_violation == 2 and not res.ok
    assert report.saturation_onset == 2 and not report.ok


def test_idle_window_never_violates():
    tl = _loaded_timeline()
    report = evaluate(tl, 300, [parse_slo("p99(lat) < 1ns")])
    (res,) = report.results
    # Window 1 has no data: None, not a violation.
    assert res.values[1] is None
    assert res.first_violation == 0


def test_link_utilisation_spec_and_onset_is_min_across_specs():
    tl = _loaded_timeline()
    report = evaluate(
        tl, 300,
        [parse_slo("link_utilisation < 50%"), parse_slo("p99(lat) < 100ns")],
    )
    util, lat = report.results
    assert util.values == [pytest.approx(0.3), 0.0, pytest.approx(0.9)]
    assert util.first_violation == 2
    assert report.saturation_onset == 2
    # A stricter latency target moves the onset earlier.
    report2 = evaluate(
        tl, 300,
        [parse_slo("link_utilisation < 50%"), parse_slo("p99(lat) < 1ns")],
    )
    assert report2.saturation_onset == 0


def test_link_utilisation_without_links_is_no_data():
    tl = Timeline(100)
    tl.observe("lat", 5, t=10)
    report = evaluate(tl, 100, [parse_slo("link_utilisation < 1%")])
    (res,) = report.results
    assert res.values == [None]
    assert res.ok


def test_count_falls_back_to_windowed_counters():
    tl = Timeline(100)
    tl.span("serve", 10, 40)
    tl.span("serve", 50, 70)
    report = evaluate(
        tl, 100, [parse_slo("count(span.serve.busy_ns) < 40")]
    )
    (res,) = report.results
    assert res.values == [50.0]  # busy-ns credited into window 0
    assert res.first_violation == 0


def test_passing_report_and_summary_shape():
    tl = _loaded_timeline()
    report = evaluate(
        tl, 300, [parse_slo("p99(lat) < 1ms"), parse_slo("link_utilisation <= 90%")]
    )
    assert report.ok and report.saturation_onset is None
    doc = report.summary()
    assert doc["ok"] is True
    assert doc["saturation_onset_window"] is None
    assert doc["windows"] == 3 and doc["window_ns"] == 100
    assert [s["spec"] for s in doc["specs"]] == [
        "p99(lat) < 1ms", "link_utilisation <= 90%"
    ]
    assert all(s["first_violation_window"] is None for s in doc["specs"])


# ---------------------------------------------------------------------------
# rendering (the text the CLI, CI smoke and `scale --timeline` print)


@pytest.mark.parametrize(
    "spec,verdict,first_bad,tail",
    [
        ("p99(lat) < 100ns", "VIOLATED", "2",
         "saturation onset at window 2 (t = 40 ms)"),
        ("p99(lat) < 1ms", "OK", "-", "no saturation onset"),
    ],
    ids=["onset", "clean"],
)
def test_format_slo_report_renders_verdict_and_onset(spec, verdict, first_bad, tail):
    tl = Timeline(20_000_000)  # 20 ms windows
    tl.observe("lat", 5, t=1_000_000)  # window 0: fast
    tl.observe("lat", 900, t=45_000_000)  # window 2: slow; window 1 idle
    text = format_slo_report(evaluate(tl, 60_000_000, [parse_slo(spec)]))
    title, header, _rule, row = text.splitlines()
    assert title == f"SLO verdicts (3 windows of 20 ms): {tail}"
    assert header.split() == ["spec", "verdict", "first", "bad", "window"]
    assert row.rsplit(maxsplit=2) == [spec, verdict, first_bad]
