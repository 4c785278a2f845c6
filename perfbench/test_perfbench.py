"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import run  # noqa: E402
from workloads import Command  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# small commands that between them reach every traced layer
COMMANDS = [
    ("construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "f", "--out", "f.gm"),
    ("verify", "--q", "5", "--p", "3", "--m", "1",
     "--check", "subgroup-pairs", "--check", "matrix-units", "--check", "abelian-images"),
]


def _cli(tmp_path, args, spans=None):
    if spans is None:
        argv = [sys.executable, "-m", "dihedral_codes.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), *args]
    proc = subprocess.run(argv, cwd=tmp_path, env=ENV, capture_output=True, text=True)
    files = {p.name: p.read_bytes() for p in tmp_path.glob("*.gm")}
    return proc.returncode, proc.stdout, files


def test_install_leaves_no_unwrapped_original():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
        "t = tracer.Tracer(); t.install(); print(len(t.originals)); "
        "print(repr(t.unwrapped_references()))"
    )
    out = subprocess.run([sys.executable, "-c", script, str(BENCH)], env=ENV,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert int(out[0]) > 40
    assert out[1] == "[]"


@pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
def test_traced_output_is_identical(tmp_path, args):
    plain_dir, traced_dir = tmp_path / "plain", tmp_path / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = _cli(plain_dir, args)
    traced = _cli(traced_dir, args, spans=tmp_path / "spans.json")
    assert plain[0] == 0
    assert traced == plain


def test_traced_run_reaches_every_layer(tmp_path):
    layers = set()
    for i, args in enumerate(COMMANDS):
        spans = tmp_path / f"{i}.json"
        assert _cli(tmp_path, args, spans=spans)[0] == 0
        report = json.loads(spans.read_text())
        layers |= {name.split(".", 1)[0] for name, st in report["stats"].items() if st[0]}
        assert report["stats"]["cli.main"][0] == 1
    assert {"kernels", "codes", "modmat", "algebra", "groups", "idempotents"} <= layers


def test_question_mark_may_become_exact():
    assert golden.match_line("18 12 ?", "18 12 11") == (True, 1)
    assert golden.match_line("f[j=2] 18 6 ? - unknown (budget)", "f[j=2] 18 6 10 4 above") == (True, 1)
    assert golden.match_line("18 2 15", "18 2 14") == (False, 0)
    assert golden.match_line("18 12 ?", "18 12 ? x") == (False, 0)
    assert golden.match_line("PASS survey: 63 rows", "FAIL survey: 63 rows") == (False, 0)


def test_exit_code_may_change_only_with_a_filled_value():
    cmd = Command(("construct", "--q", "11", "--out", "x.gm"), ("x.gm",))
    entry = golden.record(cmd, 3, "18 12 ?\n", {"x.gm": b"data\n"})
    assert golden.check(entry, cmd, 3, "18 12 ?\n", {"x.gm": b"data\n"}) is None
    assert golden.check(entry, cmd, 0, "18 12 9\n", {"x.gm": b"data\n"}) is None
    assert golden.check(entry, cmd, 0, "18 12 ?\n", {"x.gm": b"data\n"}) is not None
    assert golden.check(entry, cmd, 3, "18 12 ?\n", {"x.gm": b"other\n"}) is not None


def test_speed_probe_scales_by_the_lower_quartile_around_a_sample():
    probe = run.SpeedProbe()
    ref = run.PROBE_REF_S
    # loops at twice the reference time until t = 10, then at the reference
    probe.samples = ([(t / 10, 2 * ref) for t in range(100)]
                     + [(10 + t / 10, ref) for t in range(100)])
    assert probe.factor(2.0, 8.0) == pytest.approx(0.5)
    assert probe.factor(12.0, 18.0) == pytest.approx(1.0)
    # a short sample takes the loops of a PROBE_WINDOW_S window around it
    assert probe.factor(5.0, 5.1) == pytest.approx(0.5)
    # a few slow loops (ones that waited for a core) do not move the quartile
    probe.samples[120:125] = [(12 + t / 10, 5 * ref) for t in range(5)]
    assert probe.factor(11.0, 15.0) == pytest.approx(1.0)
    assert probe.factor(100.0, 100.1) == 1.0  # no loops nearby: unscaled


def test_speed_probe_thread_runs_and_stops():
    with run.SpeedProbe() as probe:
        time.sleep(4 * run.PROBE_PERIOD_S)
    assert len(probe.samples) >= 2
    assert not probe._thread.is_alive()


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_a_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "paper-f11",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
