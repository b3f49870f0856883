"""``ab.py``: the pair schedule and the per-metric summary of canned rows."""

import importlib.util
from pathlib import Path

import pytest

pytestmark = pytest.mark.perf

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[2] / "scripts" / "ab.py"
)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def rows(parent_values, change_values, name="throughput_ops_s"):
    out = []
    for pair, (p, c) in enumerate(zip(parent_values, change_values)):
        out.append({"pair": pair, "side": "parent", "metrics": {name: p, "minor_faults": 100.0}})
        out.append({"pair": pair, "side": "change", "metrics": {name: c, "minor_faults": 90.0}})
    return out


def by_metric(summary):
    return {entry["metric"]: entry for entry in summary}


def test_schedule_alternates_order_and_swaps_directories():
    runs = ab.schedule(4)
    assert runs == [
        (0, "parent", "a"), (0, "change", "b"),
        (1, "change", "a"), (1, "parent", "b"),
        (2, "parent", "a"), (2, "change", "b"),
        (3, "change", "a"), (3, "parent", "b"),
    ]  # fmt: skip
    # Each side runs first, and from each directory, equally often.
    for side in ab.SIDES:
        assert sum(1 for _, s, slot in runs if s == side and slot == "a") == 2


def test_summary_medians_quartiles_and_wins():
    summary = by_metric(ab.summarize(rows([100, 110, 90, 105, 95], [120, 108, 111, 125, 119])))
    entry = summary["throughput_ops_s"]
    assert entry["parent_median"] == 100
    assert entry["change_median"] == 119
    assert entry["change_pct"] == pytest.approx(19.0)
    assert (entry["parent_q1"], entry["parent_q3"]) == (95, 105)
    assert (entry["wins"], entry["pairs"]) == (4, 5)  # pair 1 lost: 108 < 110
    assert entry["beyond_iqr"]
    faults = summary["minor_faults"]
    assert faults["better"] == "lower" and faults["wins"] == 5
    # Metrics no row carries are left out.
    assert set(summary) == {"throughput_ops_s", "minor_faults"}


def test_lower_is_better_ties_and_unpaired_rows():
    canned = rows([2.0, 2.0, 3.0], [1.0, 2.0, 4.0], name="setup_s")
    canned.append({"pair": 3, "side": "parent", "metrics": {"setup_s": 0.1}})  # its change failed
    entry = by_metric(ab.summarize(canned))["setup_s"]
    assert entry["pairs"] == 3
    assert entry["wins"] == 1  # a tie is not a win
    assert not entry["beyond_iqr"]  # medians 2.0 and 2.0
    lines = ab.format_summary([entry])
    assert lines[1].split()[:2] == ["setup_s", "lower"]
    assert "1/3" in lines[1]


def test_metrics_of_normalizes_timings_by_the_clock():
    rep = {
        "clock_factor": 2.0,
        "setup_s": 0.5,
        "timed_ops": 1000,
        "timed_wall_s": 0.25,
        "peak_rss_mb": 50.0,
        "allocate": {"n": 3, "p50_ms": 0.1, "p95_ms": 0.3},
        "record": {"n": 0},
    }
    values = ab.metrics_of(rep, 1234)
    assert values["throughput_ops_s"] == 2000.0
    assert values["allocate_p95_ms"] == pytest.approx(0.6)
    assert "record_p50_ms" not in values
    assert values["minor_faults"] == 1234.0
    assert values["setup_s"] == 0.5 and values["peak_rss_mb"] == 50.0
