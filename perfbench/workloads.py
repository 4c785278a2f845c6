"""The benchmark's workloads: CLI sessions a researcher runs, one command
after another.

Each command is one `python -m dihedral_codes.cli` call.  `outputs` names
the files the command writes into the session's work directory; the
reference table for `compare` is copied there before the session starts.
A `short` command takes about two seconds or less, much of it interpreter
start and imports; run.py runs it again after each long command and counts
its median.  `compare` is short on every workload: on paper-f11 it takes
about 2 s, and one sample of it per run spread too widely.
"""

from __future__ import annotations

from dataclasses import dataclass

COMPARE_TABLE = "reference.tbl"

# the coefficient vector of f written out in canonical order
F_COEFFS = "5,2,4,5,2,4,5,2,4,5,4,2,5,4,2,5,4,2"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    short: bool = False

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _triple(q: int, p: int, m: int) -> tuple[str, ...]:
    return ("--q", str(q), "--p", str(p), "--m", str(m))


def _construct(t, out, *gen):
    return Command(("construct", *t, *gen, "--out", out), (out,), short=True)


def _survey(t, out, *extra, short=False):
    return Command(("survey", *t, *extra, "--out", out), (out,), short)


def _verify(t, seed, *checks, extra=()):
    argv = ("verify", *t, *extra)
    for name in checks:
        argv += ("--check", name)
    return Command(argv + ("--seed", str(seed)))


def _compare(t):
    return Command(("compare", *t, "--table", COMPARE_TABLE), (), short=True)


def paper_f11(seed: int) -> list[Command]:
    """The paper's reproduction session at (11, 3, 2), n = 18."""
    t = _triple(11, 3, 2)
    return [
        _construct(t, "f.gm", "--gen", "f"),
        _construct(t, "e11_j1.gm", "--gen", "e11", "--j", "1"),
        _construct(t, "e11_j2.gm", "--gen", "e11", "--j", "2"),
        _construct(t, "ej_j2.gm", "--gen", "ej", "--j", "2"),  # budget refusal, exit 3
        _construct(t, "pair.gm", "--gen", "pair", "--sub-h", "hstar1", "--sub-k", "hstar0"),
        _construct(t, "custom.gm", "--gen", "custom", "--coeffs", F_COEFFS),
        _survey(t, "survey.tbl"),
        _survey(t, "survey_dim2.tbl", "--dim", "2", short=True),
        _verify(t, seed),
        _compare(t),
    ]


def scale_d125(seed: int) -> list[Command]:
    """The algebra layers at (3, 5, 3), n = 250.  The component-field check
    (another 11 s of rref through `solve`) is left out to keep the run
    short; paper-f11 runs it."""
    t = _triple(3, 5, 3)
    return [
        _construct(t, "f_j1.gm", "--gen", "f", "--j", "1"),
        _construct(t, "e11_j2.gm", "--gen", "e11", "--j", "2"),  # budget refusal, exit 3
        _survey(t, "survey.tbl"),
        _verify(t, seed, "hat-idempotents", "convolution", "abelian-images"),
        _compare(t),
    ]


def scan_f5_n54(seed: int) -> list[Command]:
    """The weight scan on a small alphabet and long words at (5, 3, 3), n = 54.

    A budget of 5^8 messages leaves out the nine [54, 9] subgroup-pair
    codes, which would add 17.6 M codewords and about 35 s; the 27 codes
    of dimension 1 to 8 are still scanned."""
    t = _triple(5, 3, 3)
    return [
        _construct(t, "f_j1.gm", "--gen", "f", "--j", "1"),
        _survey(t, "survey_dim2.tbl", "--dim", "2", short=True),
        _verify(t, seed, "subgroup-pairs", extra=("--budget", str(5 ** 8))),
        _compare(t),
    ]


WORKLOADS = {
    "paper-f11": paper_f11,
    "scale-d125": scale_d125,
    "scan-f5-n54": scan_f5_n54,
}
