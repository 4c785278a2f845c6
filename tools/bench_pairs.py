#!/usr/bin/env python3
"""Paired benchmark runs of two dihedral-codes source trees:

    python3 tools/bench_pairs.py --parent ../parent --change . --out BENCH_8.json

For each workload of BENCHMARK.json and each pair i = 1..10 it runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once in each tree, with S the `run_seconds` of BENCHMARK.json, the parent
first in odd pairs and the change first in even pairs, so a slow phase of
the machine falls on both sides alike.  Then it runs each workload once per
side with `--trace 1`.  The output file holds the environment, the method,
per workload and end-to-end metric the median and quartiles of each side,
the number of pairs the change wins, the parent's interquartile range and
whether the gain rule holds (at least nine tenths of the pairs won, and the
medians apart by more than that range), and the traced per-layer values of
both sides.  Each tree runs its own `src/` under the `perfbench/` next to
this script, so both sides see the same benchmark; the file names each side
by its commit, marked dirty when tracked files differ from it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
PAIRS = 10


def summary(values: list[float]) -> dict[str, float]:
    """Median and quartiles (numpy's linear percentiles)."""
    q1, med, q3 = (round(float(v), 4) for v in numpy.percentile(values, [25, 50, 75]))
    return {"median": med, "q1": q1, "q3": q3}


def wins(pairs: list[tuple[float, float]], better: str) -> tuple[int, str]:
    """Pairs (parent, change) where the change reads better, as a count and
    as text; ties count for neither side."""
    won = sum(c < p if better == "lower" else c > p for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    text = f"{won}/{len(pairs)}"
    return won, f"{text} ({ties} ties)" if ties else text


def aggregate(results: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """One workload's entry from its pairs of `perfbench/run.py` result lines.

    `results` holds one (parent, change) pair of parsed result lines per
    pair of runs; `metrics` holds the `end_to_end` entries of BENCHMARK.json
    (name, unit, better).  `gain` holds when the change wins at least nine
    tenths of the pairs and its median is better than the parent's by more
    than the parent's interquartile range.
    """
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in results]
        parent = summary([p for p, _ in pairs])
        change = summary([c for _, c in pairs])
        won, text = wins(pairs, m["better"])
        iqr = round(parent["q3"] - parent["q1"], 4)
        drop = parent["median"] - change["median"]
        margin = drop if m["better"] == "lower" else -drop
        out[name] = {
            "unit": m["unit"],
            "parent": parent,
            "change": change,
            "change_wins": text,
            "parent_iqr": iqr,
            "gain": 10 * won >= 9 * len(pairs) and margin > iqr,
        }
    return {
        "runs_per_side": len(results),
        "correct": all(p["correct"] and c["correct"] for p, c in results),
        "metrics": out,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run inside `tree`; its parsed result line."""
    argv = [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def commit(tree: Path) -> str:
    """The short commit of `tree`, with "+dirty" when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return git("rev-parse", "--short", "HEAD") + ("+dirty" if dirty else "")


def environment() -> dict[str, object]:
    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if numba else "absent (not installed; every scan is the numpy kernel)",
        "nproc": os.cpu_count(),
        "machine": f"{platform.system()} {platform.machine()}, {os.cpu_count()} cores",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree before the change")
    parser.add_argument("--change", type=Path, required=True, help="source tree with the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "environment": environment(),
        "method": {
            "command": f"python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
            "pairs": f"{PAIRS} per workload, seed S = pair number 1..{PAIRS} on "
                     "both sides; the parent runs first in odd pairs, the change first "
                     "in even pairs",
            "sides": f"parent = {commit(trees['parent'])}, change = {commit(trees['change'])}; "
                     "each from its own source tree, perfbench/ identical",
            "statistics": "median and quartiles (numpy linear percentiles 25/75) over the "
                          "runs of each side; wins = pairs where the change reads better, "
                          "ties count for neither; parent_iqr = parent q3 - q1; gain = "
                          "the change wins at least 9/10 of the pairs and its median is "
                          "better by more than parent_iqr",
            "traced": "one --trace 1 run per side and workload, seed 0; per-layer values "
                      "are raw wall time",
        },
        "workloads": {},
        "traced": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        results = []
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            got = {side: run_once(trees[side], w, i, seconds, 0) for side in order}
            results.append((got["parent"], got["change"]))
            print(f"{w} pair {i}: session_s parent "
                  f"{got['parent']['metrics']['session_s']['value']:.3f} change "
                  f"{got['change']['metrics']['session_s']['value']:.3f}", flush=True)
        report["workloads"][w] = aggregate(results, spec["end_to_end"])
        report["traced"][w] = {}
        for side in ("parent", "change"):
            res = run_once(trees[side], w, 0, seconds, 1)
            report["traced"][w][side] = {"correct": res["correct"]} | {
                name: round(m["value"], 4) for name, m in res["metrics"].items()}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
