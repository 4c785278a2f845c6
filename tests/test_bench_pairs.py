"""The aggregation of tools/bench_pairs.py, on canned perfbench result lines."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "session_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "exact_values", "unit": "count", "better": "higher", "bound": 0.01},
]


def line(session_s, exact, correct=True):
    return {"correct": correct, "attempted": 17, "failed": 0,
            "metrics": {"session_s": {"value": session_s, "unit": "s"},
                        "exact_values": {"value": exact, "unit": "count"}}}


def test_aggregate_medians_quartiles_and_wins():
    parent = [3.0, 2.0, 4.0, 1.0, 5.0]
    change = [2.5, 2.5, 1.0, 1.0, 0.5]
    results = [(line(p, 28), line(c, 28 + (i == 0))) for i, (p, c) in enumerate(zip(parent, change))]
    got = bench_pairs.aggregate(results, METRICS)
    assert got["runs_per_side"] == 5 and got["correct"] is True
    session = got["metrics"]["session_s"]
    assert session["unit"] == "s"
    assert session["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert session["change"] == {"median": 1.0, "q1": 1.0, "q3": 2.5}
    # pair 2 is worse, pair 4 a tie
    assert session["change_wins"] == "3/5 (1 ties)"
    assert session["parent_iqr"] == 2.0 and session["gain"] is False
    exact = got["metrics"]["exact_values"]
    assert exact["change"] == {"median": 28.0, "q1": 28.0, "q3": 28.0}
    assert exact["change_wins"] == "1/5 (4 ties)"


def test_aggregate_interpolates_quartiles_and_flags_an_incorrect_run():
    results = [(line(p, 9), line(p, 9, correct=p != 2.0)) for p in (1.0, 2.0, 4.0, 8.0)]
    got = bench_pairs.aggregate(results, METRICS)
    assert got["correct"] is False
    # numpy linear percentiles of 1, 2, 4, 8: 1.75, 3.0, 5.0
    assert got["metrics"]["session_s"]["parent"] == {"median": 3.0, "q1": 1.75, "q3": 5.0}
    assert got["metrics"]["session_s"]["change_wins"] == "0/4 (4 ties)"


def test_summary_of_one_run():
    assert bench_pairs.summary([0.12345]) == {"median": 0.1235, "q1": 0.1235, "q3": 0.1235}


def test_gain_needs_nine_tenths_of_the_pairs_and_a_drop_beyond_the_parent_iqr():
    parent = [0.60, 0.62, 0.61, 0.64, 0.63, 0.62, 0.60, 0.65, 0.61, 0.62]
    change = [p - 0.1 for p in parent]
    # parent quartiles 0.61 and 0.6275: an IQR of 0.0175
    got = bench_pairs.aggregate([(line(p, 28), line(c, 28)) for p, c in zip(parent, change)],
                                METRICS)["metrics"]
    assert got["session_s"]["change_wins"] == "10/10"
    assert got["session_s"]["parent_iqr"] == 0.0175
    assert got["session_s"]["gain"] is True
    # all ties: no win, and no gain for a metric that did not move
    assert got["exact_values"]["gain"] is False

    # 8/10 wins: not enough, however large the drop
    worse = change[:8] + [0.7, 0.7]
    got = bench_pairs.aggregate([(line(p, 28), line(c, 28)) for p, c in zip(parent, worse)],
                                METRICS)["metrics"]["session_s"]
    assert got["change_wins"] == "8/10" and got["gain"] is False

    # 10/10 wins by less than the parent's IQR
    close = [p - 0.01 for p in parent]
    got = bench_pairs.aggregate([(line(p, 28), line(c, 28)) for p, c in zip(parent, close)],
                                METRICS)["metrics"]["session_s"]
    assert got["change_wins"] == "10/10" and got["gain"] is False

    # a higher-is-better metric: 9/10 wins, median up by 2 against an IQR of 0
    exact = [30] * 9 + [28]
    got = bench_pairs.aggregate([(line(0.6, 28), line(0.6, e)) for e in exact],
                                METRICS)["metrics"]["exact_values"]
    assert got["change_wins"] == "9/10 (1 ties)" and got["parent_iqr"] == 0.0
    assert got["gain"] is True
