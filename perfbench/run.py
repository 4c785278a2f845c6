#!/usr/bin/env python3
"""Benchmark of the dihedral-codes CLI, run from the root of a source tree:

    python3 perfbench/run.py --workload paper-f11 --seed 1 --seconds 30 --trace 0

One client runs a workload's commands one after another, each in a fresh
`python -m dihedral_codes.cli` process (a closed loop, no parallelism),
and checks every output against the goldens recorded from the seed
implementation (golden.py).  One such pass is a `Session`; the run repeats
it while another one fits in `--seconds`, and always runs at least one.

With `--trace 0` it prints the end-to-end metrics, medians over the
passes, each time scaled to a fixed machine speed (see `SpeedProbe`).
With `--trace 1` it runs the pass once untraced and once with every
command under tracer.py, checks that the two produce byte-identical
outputs, and prints the per-layer metrics.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.  perfbench/NOTES.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import golden  # noqa: E402
from workloads import COMPARE_TABLE, WORKLOADS  # noqa: E402

# every run ends within 180 s; commands still running at this point are
# killed and counted as failed
DEADLINE_S = 170.0

# The machine is a share of a host whose speed moves with the other tenants'
# load, by up to 1.5x, in phases from seconds to minutes long.  While an
# untraced pass runs, a thread of this process times PROBE_LOOPS turns of a
# fixed pure-Python loop every PROBE_PERIOD_S (about 2% of the other core).
# Each timed sample is scaled to the speed at which that loop takes
# PROBE_REF_S:  wall * PROBE_REF_S / t, where t is the lower quartile of the
# loop's times while the sample ran, in a window widened to at least
# PROBE_WINDOW_S.  The lower quartile leaves out the loops that waited for a
# core.  The end-to-end times are these scaled seconds; the raw wall times
# print above the result line.
PROBE_LOOPS = 20_000
PROBE_PERIOD_S = 0.1
PROBE_REF_S = 0.0015
PROBE_WINDOW_S = 4.0

# rounds of the short commands after each long one (see Runner.session)
SHORT_ROUNDS = 2

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("session_s", "s", "lower"),
    ("construct_s", "s", "lower"),
    ("survey_s", "s", "lower"),
    ("verify_s", "s", "lower"),
    ("compare_s", "s", "lower"),
    ("exact_values", "count", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_ratio", "ratio", "higher"),
]

LAYERS = ("kernels", "codes", "modmat", "groups", "algebra", "idempotents",
          "survey", "verify", "cli", "ff")
COMMANDS = ("construct", "survey", "verify", "compare")
# spans whose call count or self time is reported.  A time metric must not
# read 0 on any workload, so spans that some workload never enters (most
# checks, subgroup_pair_code on scale-d125) report calls only; per-check
# times print above the result line instead.
SPAN_CALLS = ("kernels.weight_histogram", "codes.left_ideal_code",
              "codes.subgroup_pair_code", "codes.weight_distribution", "modmat.rref",
              "modmat.solve", "modmat.same_row_space", "groups.all_subgroups",
              "algebra.convolve", "algebra.invert_in_component", "algebra.hat")
SPAN_SELF = ("kernels.weight_histogram", "codes.left_ideal_code", "modmat.rref",
             "modmat.solve", "modmat.same_row_space", "groups.all_subgroups",
             "algebra.convolve", "algebra.invert_in_component", "algebra.hat",
             "idempotents.central_idempotents", "idempotents.matrix_units",
             "idempotents.noncentral_generator", "survey.abelian_catalog",
             "survey.enumerate_abelian_codes")
COUNTERS = ("kernels.codewords", "codes.budget_refusals", "modmat.rref.cells",
            "groups.subgroups_found", "survey.rows", "survey.rows_exact")

PER_LAYER = (
    [(f"{s}.calls", "count", "lower") for s in SPAN_CALLS]
    + [(f"{s}.self_s", "s", "lower") for s in SPAN_SELF]
    + [(c, "count", "higher" if c == "survey.rows_exact" else "lower") for c in COUNTERS]
    + [("kernels.codewords_per_s", "1/s", "higher"),
       ("modmat.rref.repeat_ratio", "ratio", "lower")]
    + [("verify.checks_s", "s", "lower")]
    + [(f"cli.{c}.self_s", "s", "lower") for c in COMMANDS]
    + [(f"layer.{name}.self_s", "s", "lower") for name in LAYERS]
    + [(f"layer.{name}.share", "ratio", "lower") for name in LAYERS]
    + [("cli.process_start_s", "s", "lower"),
       ("trace.session_s", "s", "lower"),
       ("trace_overhead_s", "s", "lower"),
       ("trace.accounted_ratio", "ratio", "higher")]
)


class SpeedProbe:
    """Times the probe loop every PROBE_PERIOD_S on a thread of its own while
    it is running; `factor` turns a wall time into scaled seconds."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end time, loop seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = time.perf_counter()
            acc = 0
            for i in range(PROBE_LOOPS):
                acc += i * i % 7
            t1 = time.perf_counter()
            self.samples.append((t1, t1 - t0))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, t0: float, t1: float) -> float:
        pad = max(0.0, PROBE_WINDOW_S - (t1 - t0)) / 2
        loops = [d for t, d in self.samples if t0 - pad <= t <= t1 + pad]
        if len(loops) < 2:  # a run so short that the probe hardly ran: unscaled
            return 1.0
        return PROBE_REF_S / statistics.quantiles(loops, n=4)[0]


@dataclass
class CommandRun:
    index: int  # position of the command in its workload
    cmd: object
    exit_code: int | None
    stdout: str
    files: dict[str, bytes]
    wall_s: float
    maxrss_kb: int
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end
    seconds: float = 0.0  # wall_s scaled to the probe's reference speed
    spans: dict | None = None
    error: str | None = None


@dataclass
class Session:
    runs: list[CommandRun] = field(default_factory=list)
    import_s: list[float] = field(default_factory=list)  # scaled, like seconds
    probe_s: list[float] = field(default_factory=list)  # the probe loop's times
    wall_s: float = 0.0  # including repeats and imports

    def command_times(self) -> list[tuple[object, float]]:
        """(command, median time over its repeats) in workload order."""
        by_index: dict[int, list[CommandRun]] = {}
        for run in self.runs:
            by_index.setdefault(run.index, []).append(run)
        return [(runs[0].cmd, statistics.median(r.seconds for r in runs))
                for _, runs in sorted(by_index.items())]

    @property
    def pass_s(self) -> float:
        """Time of one pass through the workload's commands."""
        return sum(t for _, t in self.command_times())


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.commands = WORKLOADS[workload](seed)
        self.work = root / ".bench_work" / workload
        self.deadline = deadline
        # one BLAS thread: a single client on a 2-core machine, no parallelism
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def _spawn(self, argv: list[str], cwd: Path, stdout, stderr):
        """Run one child to its end: (exit code, (start, end) perf_counter
        times, ru_maxrss in KiB).  The exit code is None when the deadline
        has already passed."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            now = time.perf_counter()
            return None, (now, now), 0
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=stdout,
                                stderr=stderr, stdin=subprocess.DEVNULL)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, (t0, t1), usage.ru_maxrss

    def import_time(self) -> tuple[float, float]:
        """(start, end) of one fresh-process import of the CLI."""
        argv = [sys.executable, "-c", "import dihedral_codes.cli"]
        code, span, _ = self._spawn(argv, self.root, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("importing dihedral_codes.cli failed")
        return span

    def session(self, traced: bool = False, single: bool = False) -> Session:
        """One pass through the workload's commands, in order.

        Unless `single` or `traced`, the speed probe runs, a fresh import is
        timed before each command, and the short commands run SHORT_ROUNDS
        more times after each long one, so that a burst of load on the
        machine moves fewer of their samples than it would samples taken in
        a row.  Every command is a separate process that reads only the
        reference table, so the extra runs do not change any output."""
        shutil.rmtree(self.work, ignore_errors=True)
        io_dir = self.work / "io"
        io_dir.mkdir(parents=True)
        shutil.copy(BENCH_DIR / COMPARE_TABLE, self.work / COMPARE_TABLE)
        sess = Session()
        if traced or single:
            t0 = time.perf_counter()
            sess.runs = [self._run(i, cmd, io_dir, traced)
                         for i, cmd in enumerate(self.commands)]
            sess.wall_s = time.perf_counter() - t0
            return sess
        imports = []
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            for i, cmd in enumerate(self.commands):
                imports.append(self.import_time())
                sess.runs.append(self._run(i, cmd, io_dir, traced))
                if not cmd.short:
                    for _ in range(SHORT_ROUNDS):
                        sess.runs += [self._run(j, c, io_dir, traced)
                                      for j, c in enumerate(self.commands) if c.short]
            sess.wall_s = time.perf_counter() - t0
        sess.import_s = [(b - a) * probe.factor(a, b) for a, b in imports]
        for run in sess.runs:
            run.seconds = run.wall_s * probe.factor(*run.span)
        sess.probe_s = [d for _, d in probe.samples]
        return sess

    def _run(self, i: int, cmd, io_dir: Path, traced: bool) -> CommandRun:
        out_path, err_path = io_dir / f"{i}.out", io_dir / f"{i}.err"
        spans_path = io_dir / f"{i}.spans.json"
        for name in cmd.outputs:
            (self.work / name).unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-m", "dihedral_codes.cli"]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, span, rss = self._spawn(argv + list(cmd.argv), self.work, out, err)
        wall = span[1] - span[0]
        run = CommandRun(i, cmd, code, out_path.read_bytes().decode("ascii", "replace"),
                         {}, wall, rss, span, wall)
        for name in cmd.outputs:
            path = self.work / name
            if path.is_file():
                run.files[name] = path.read_bytes()
        if traced and spans_path.is_file():
            run.spans = json.loads(spans_path.read_text(encoding="ascii"))
        return run

    def check(self, sess: Session) -> None:
        goldens = golden.load(self.workload)
        for run in sess.runs:
            i = run.index
            if i >= len(goldens):
                run.error = "no golden entry"
            elif run.exit_code is None:
                run.error = "not run: deadline reached"
            elif run.exit_code < 0:
                run.error = f"killed by signal {-run.exit_code}"
            else:
                run.error = golden.check(goldens[i], run.cmd, run.exit_code,
                                         run.stdout, run.files)


def session_metrics(sess: Session) -> dict[str, float]:
    times = sess.command_times()
    m = {"session_s": sum(t for _, t in times)}
    for kind in COMMANDS:
        m[f"{kind}_s"] = sum(t for cmd, t in times if cmd.kind == kind)
    first_runs = {r.index: r for r in reversed(sess.runs)}
    m["exact_values"] = sum(golden.exact_values(r.cmd, r.stdout, r.files)
                            for r in first_runs.values())
    m["peak_rss_mb"] = max(r.maxrss_kb for r in sess.runs) / 1024
    return m


def layer_metrics(plain: Session, traced: Session) -> dict[str, float]:
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    rref_distinct = 0
    process_start = hook_s = 0.0
    for run in traced.runs:
        spans = run.spans or {"stats": {}, "counters": {}, "rref_distinct": 0, "hook_s": 0.0}
        for name, (calls, total, self_s) in spans["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in spans["counters"].items():
            counters[name] = counters.get(name, 0) + value
        rref_distinct += spans["rref_distinct"]
        hook_s += spans["hook_s"]
        root = spans["stats"].get("cli.main", [0, 0.0, 0.0])[1]
        process_start += run.wall_s - root

    def span(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i]

    m: dict[str, float] = {}
    for s in SPAN_CALLS:
        m[f"{s}.calls"] = span(s, 0)
    for s in SPAN_SELF:
        m[f"{s}.self_s"] = span(s, 2)
    for c in COUNTERS:
        m[c] = counters.get(c, 0)
    scan_s = span("kernels.weight_histogram", 1)
    m["kernels.codewords_per_s"] = m["kernels.codewords"] / scan_s if scan_s else 0.0
    rref_calls = span("modmat.rref", 0)
    m["modmat.rref.repeat_ratio"] = rref_calls / rref_distinct if rref_distinct else 0.0
    m["verify.checks_s"] = sum(st[1] for name, st in stats.items()
                               if name.startswith("verify.check."))
    for c in COMMANDS:
        m[f"cli.{c}.self_s"] = span(f"cli.{c}", 2)
    layer_self = {name: 0.0 for name in LAYERS}
    for name, (_, _, self_s) in stats.items():
        layer_self[name.split(".", 1)[0]] += self_s
    for name in LAYERS:
        m[f"layer.{name}.self_s"] = layer_self[name]
        m[f"layer.{name}.share"] = layer_self[name] / traced.pass_s
    m["cli.process_start_s"] = process_start
    m["trace.session_s"] = traced.pass_s
    m["trace_overhead_s"] = traced.pass_s - plain.pass_s
    accounted = sum(layer_self.values()) + hook_s + process_start
    m["trace.accounted_ratio"] = accounted / traced.pass_s
    return m


def describe(sessions: list[Session]) -> None:
    """Human-readable lines before the result line."""
    setup = [t for sess in sessions for t in sess.import_s]
    if setup:
        print(f"setup: {len(setup)} fresh imports, median {statistics.median(setup):.4f} s scaled")
    for k, sess in enumerate(sessions):
        print(f"session {k}: one pass {sess.pass_s:.3f} s, {len(sess.runs)} commands "
              f"in {sess.wall_s:.3f} s wall")
        if len(sess.probe_s) > 1:
            lo, mid, hi = statistics.quantiles(sess.probe_s, n=4)
            print(f"  speed probe: {len(sess.probe_s)} loops, quartiles {lo * 1e3:.3f} "
                  f"{mid * 1e3:.3f} {hi * 1e3:.3f} ms; scaled to {PROBE_REF_S * 1e3:.3f} ms")
        print("      wall    scaled")
        for run in sess.runs:
            status = "ok" if run.error is None else f"FAIL ({run.error})"
            print(f"  {run.wall_s:8.3f} {run.seconds:8.3f} s  exit {run.exit_code}  "
                  f"{status}  {run.cmd.label}")
            for name, (calls, total, _) in (run.spans or {}).get("stats", {}).items():
                if calls and name.startswith("verify.check."):
                    print(f"      {total:8.3f} s  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "dihedral_codes" / "cli.py").is_file():
        print("error: run from the root of a dihedral-codes source tree "
              "(src/dihedral_codes/cli.py not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, start + DEADLINE_S)
    runner.import_time()  # fills the bytecode cache

    sessions: list[Session] = []
    if args.trace:
        sessions = [runner.session(traced=False, single=True), runner.session(traced=True)]
    else:
        t0 = time.monotonic()
        while True:
            sessions.append(runner.session())
            elapsed = time.monotonic() - t0
            last = sessions[-1].wall_s
            if elapsed + last > args.seconds or time.monotonic() + last > start + DEADLINE_S:
                break
    for sess in sessions:
        runner.check(sess)
    describe(sessions)

    runs = [r for sess in sessions for r in sess.runs]
    failed = sum(r.error is not None for r in runs)
    correct = failed == 0
    if args.trace:
        plain, traced = sessions
        for a, b in zip(plain.runs, traced.runs):
            if (a.exit_code, a.stdout, a.files) != (b.exit_code, b.stdout, b.files):
                print(f"traced output differs from untraced: {a.cmd.label}")
                correct = False
        values = layer_metrics(plain, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        per_session = [session_metrics(s) for s in sessions]
        values = {name: statistics.median(m[name] for m in per_session)
                  for name in per_session[0]}
        values["peak_rss_mb"] = max(m["peak_rss_mb"] for m in per_session)
        values["exact_values"] = min(m["exact_values"] for m in per_session)
        values["setup_s"] = statistics.median(t for s in sessions for t in s.import_s)
        values["pass_ratio"] = (len(runs) - failed) / len(runs)
        units = {name: unit for name, unit, _ in END_TO_END}
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
