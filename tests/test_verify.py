"""`verify` output pinned line for line, and the int64 bound as seen by the
checks."""

import time

from dihedral_codes import run_checks
from dihedral_codes.cli import main

PINNED_11_3_2 = """\
PASS field-axioms: field axioms hold (exhaustive over 11^3 triples)
PASS group-axioms: group axioms hold (dihedral exhaustive, abelian exhaustive)
PASS gamma-map: gamma is an index-preserving bijection on 18 elements
PASS convolution: associativity/distributivity on 1000 seeded triples
PASS hat-idempotents: 16 subgroup averages idempotent, 42 absorption pairs
PASS central-catalog: 4 idempotents; dims 1, 1, dim e_1: 4, dim e_2: 12
PASS matrix-units: all 16 products verified in components 1..2
PASS noncentral-generator: f built two ways matches; dims [2, 6] preserved under conjugation
PASS component-field: every tested nonzero element inverts (e_1: 120 exhaustive; e_2: 64 sampled)
PASS powers-basis: j=1: rank 2; j=2: rank 6
PASS abelian-images: vector identity for all 18 g; row spaces match for j=1..2
"""

PINNED_41_3_1 = """\
PASS field-axioms: field axioms hold (3000 seeded triples)
PASS component-field: every tested nonzero element inverts (e_1: 1680 exhaustive)
"""


def _verify(capsys, q, p, m, checks):
    argv = ["verify", "--q", str(q), "--p", str(p), "--m", str(m)]
    for name in checks:
        argv += ["--check", name]
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_verify_stdout_pinned_at_11_3_2(capsys):
    checks = [line.split()[1].rstrip(":") for line in PINNED_11_3_2.splitlines()]
    assert _verify(capsys, 11, 3, 2, checks) == (0, PINNED_11_3_2)


def test_verify_stdout_pinned_at_41_3_1(capsys):
    # q > 31: field-axioms takes its sampled branch
    assert _verify(capsys, 41, 3, 1, ["field-axioms", "component-field"]) == (0, PINNED_41_3_1)


def test_convolution_check_refuses_q_beyond_int64_bound():
    # q = 1000000103 is admissible for (3, 2), but 18 (q-1)^2 >= 2^63: the
    # int64 products used to wrap and the check passed on wrong values
    [res] = run_checks(1000000103, 3, 2, names=["convolution"])
    assert not res.passed
    assert "2^63" in res.detail


def test_field_axioms_time_does_not_grow_with_q():
    # the inverse laws are checked on the drawn residues, not by a pass over
    # all of range(q), which took over 100 s at this q
    start = time.perf_counter()
    [res] = run_checks(1000000103, 3, 2, names=["field-axioms"])
    assert time.perf_counter() - start < 1.0
    assert res.passed and res.detail == "field axioms hold (3000 seeded triples)"


def test_full_verify_at_budget_zero_reports_every_check(capsys):
    # a None weight used to reach sorted() in nonequivalence and abort the
    # whole command with a TypeError before any result line
    rc = main(["verify", "--q", "11", "--p", "3", "--m", "2", "--budget", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1 and len(lines) == 18
    assert [line.split()[0] for line in lines] == ["PASS"] * 17 + ["FAIL"]
    assert lines[-1] == "FAIL nonequivalence: dimension-2 abelian weights are beyond budget 0"


def test_checks_beyond_budget_print_unknown_weights(capsys):
    checks = ["central-codes", "coefficient-claim", "nonequivalence"]
    argv = ["verify", "--q", "11", "--p", "3", "--m", "2", "--budget", "100"]
    for name in checks:
        argv += ["--check", name]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "PASS central-codes: j=1: [18, 2, ?]; j=2: [18, 6, ?]\n"
        "PASS coefficient-claim: skipped: the 121 codewords are beyond the budget\n"
        "FAIL nonequivalence: dimension-2 abelian weights are beyond budget 100\n"
    )
