import importlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from dihedral_codes import (
    DihedralGroup,
    LinearCode,
    PrimeField,
    cli,
    hat,
    idempotents,
    left_ideal_code,
)
from dihedral_codes.cli import main
from dihedral_codes.closed_forms import parse_subgroup
from dihedral_codes.ff import WRITE_LIMIT
from dihedral_codes.survey import enumerate_abelian_codes, format_survey_table

SRC = Path(__file__).resolve().parent.parent / "src"


def test_construct_flagship(tmp_path, capsys):
    out = tmp_path / "f.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--j", "1",
               "--gen", "f", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "18 2 15"
    code = LinearCode.read(out)
    assert (code.n, code.k, code.q) == (18, 2, 11)


def test_construct_e11(tmp_path, capsys):
    out = tmp_path / "e11.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--j", "1",
               "--gen", "e11", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "18 2 12"


def test_construct_full_component(tmp_path, capsys):
    out = tmp_path / "ej.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--j", "1",
               "--gen", "ej", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "18 4 6"


def test_construct_pair(tmp_path, capsys):
    out = tmp_path / "l14.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "pair",
               "--sub-h", "hstar1", "--sub-k", "hstar0", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "18 2 12"


def test_construct_pair_of_equal_subgroups_rejected(tmp_path, capsys):
    out = tmp_path / "z.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "pair",
               "--sub-h", "h1", "--sub-k", "h1", "--out", str(out)])
    assert rc == 2
    assert not out.exists()  # rejected before anything is written
    assert "h1 and --sub-k h1 are the same subgroup" in capsys.readouterr().err


def test_construct_custom(tmp_path, capsys):
    coeffs = "5,2,4,5,2,4,5,2,4,5,4,2,5,4,2,5,4,2"  # the f vector
    out = tmp_path / "c.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "custom",
               "--coeffs", coeffs, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "18 2 15"


def test_construct_custom_reduces_an_oversized_entry(tmp_path, capsys):
    # 99999999999999999999999 does not fit in int64 and is 4 mod 5
    outs = []
    for first in ("99999999999999999999999", "4"):
        out = tmp_path / f"{first[:2]}.gm"
        rc = main(["construct", "--q", "5", "--p", "3", "--m", "1", "--gen", "custom",
                   "--coeffs", first + ",0,0,0,0,0", "--out", str(out)])
        assert rc == 0
        outs.append((capsys.readouterr().out, out.read_bytes()))
    assert outs[0] == outs[1]


def test_construct_custom_over_budget(tmp_path, capsys):
    coeffs = ",".join(["1"] + ["0"] * 8 + ["10"] + ["0"] * 8)  # 1 - b, k = 9
    out = tmp_path / "c.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "custom",
               "--coeffs", coeffs, "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().out.strip() == "18 9 ?"


def test_construct_inadmissible(tmp_path):
    rc = main(["construct", "--q", "3", "--p", "3", "--m", "1",
               "--gen", "f", "--out", str(tmp_path / "x.gm")])
    assert rc == 2


def test_construct_budget_exceeded(tmp_path, capsys):
    out = tmp_path / "f.gm"
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "f",
               "--budget", "100", "--out", str(out)])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out.strip() == "18 2 ?"
    assert captured.err == "error: enumeration too large: q^k = 121 exceeds budget 100\n"
    assert out.exists()  # the matrix is still written


def test_construct_negative_budget_rejected(tmp_path):
    out = tmp_path / "f.gm"
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "f",
              "--budget", "-5", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()  # rejected while parsing, before any work


def test_construct_io_failure(tmp_path):
    rc = main(["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "f",
               "--out", str(tmp_path / "missing-dir" / "f.gm")])
    assert rc == 4


@pytest.mark.parametrize("command", ["construct", "survey"])
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    # the survey at (5, 3, 3) used to run for about 2 s before this exit 4
    def no_work(*args, **kwargs):
        raise AssertionError("computed before testing --out")

    monkeypatch.setattr(cli, "write_survey", no_work)
    monkeypatch.setattr(idempotents, "central_idempotents", no_work)
    out = tmp_path / "missing-dir" / "out"
    extra = ["--gen", "f"] if command == "construct" else []
    rc = main([command, "--q", "5", "--p", "3", "--m", "3", *extra, "--out", str(out)])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (4, "")
    assert captured.err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


@pytest.mark.parametrize("argv", [
    ["survey", "--dim", "0"],
    ["construct", "--gen", "custom", "--coeffs", "1,x"],
    ["construct", "--gen", "custom", "--coeffs", "1,2"],
    ["construct", "--gen", "pair", "--sub-h", "h1", "--sub-k", "h1"],
], ids=["dim-0", "coeffs-not-int", "coeffs-too-short", "pair-equal"])
def test_a_failing_run_creates_or_truncates_no_file(tmp_path, capsys, argv):
    new, old = tmp_path / "new", tmp_path / "old"
    old.write_text("keep\n")
    for out in (new, old):
        command, *options = argv
        rc = main([command, "--q", "11", "--p", "3", "--m", "2", *options, "--out", str(out)])
        assert rc == 2 and capsys.readouterr().err.startswith("error: ")
    assert not new.exists()
    assert old.read_text() == "keep\n"


def test_construct_outputs_are_byte_identical(tmp_path):
    args = ["construct", "--q", "11", "--p", "3", "--m", "2", "--gen", "f"]
    a, b = tmp_path / "a.gm", tmp_path / "b.gm"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_survey_dim2(tmp_path, capsys):
    out = tmp_path / "s.tbl"
    rc = main(["survey", "--q", "11", "--p", "3", "--m", "2", "--dim", "2",
               "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "dim 2: best weight 12" in captured
    assert out.read_text() == "11 3 2\n3 2 9\n4 2 12\n8 2 12\n"


def test_survey_full_row_count(tmp_path, capsys):
    out = tmp_path / "s.tbl"
    rc = main(["survey", "--q", "11", "--p", "3", "--m", "2", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "11 3 2"
    assert len(lines) == 64
    assert lines[-1] == "63 18 1"
    stdout = capsys.readouterr().out
    assert "dim 18: best weight 1" in stdout
    assert "?" not in text + stdout


def test_survey_takes_no_budget(tmp_path, capsys):
    out = tmp_path / "s.tbl"
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--q", "11", "--p", "3", "--m", "2", "--budget", "5",
              "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err
    assert not out.exists()


def test_survey_inadmissible(tmp_path):
    rc = main(["survey", "--q", "7", "--p", "3", "--m", "2",
               "--out", str(tmp_path / "s.tbl")])
    assert rc == 2


@pytest.mark.parametrize("dim", ["-1", "0", "19"])
def test_survey_dim_out_of_range(tmp_path, capsys, dim):
    out = tmp_path / "s.tbl"
    rc = main(["survey", "--q", "11", "--p", "3", "--m", "2", "--dim", dim,
               "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "out of range 1..18" in capsys.readouterr().err


def test_survey_dim_full_length(tmp_path, capsys):
    out = tmp_path / "s.tbl"
    rc = main(["survey", "--q", "11", "--p", "3", "--m", "2", "--dim", "18",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "11 3 2\n63 18 1\n"
    assert "1 rows written" in capsys.readouterr().out


def test_verify_single_check(capsys):
    rc = main(["verify", "--q", "11", "--p", "3", "--m", "2",
               "--check", "matrix-units"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS matrix-units")
    assert len(out.strip().split("\n")) == 1


def test_verify_inadmissible():
    assert main(["verify", "--q", "7", "--p", "3", "--m", "2"]) == 2


def test_compare_flagship(tmp_path, capsys):
    table = tmp_path / "ref.tbl"
    table.write_text("# best known weights\n18 2 15\n")
    rc = main(["compare", "--q", "11", "--p", "3", "--m", "2", "--table", str(table)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "f[j=1] 18 2 15 15 matches" in out
    assert "e11[j=1] 18 2 12 15 below" in out
    assert "no reference" in out  # the [18, 6] codes have no table row


def test_compare_above_verdict(tmp_path, capsys):
    table = tmp_path / "ref.tbl"
    table.write_text("18 2 14\n")
    rc = main(["compare", "--q", "11", "--p", "3", "--m", "2", "--table", str(table)])
    assert rc == 0
    assert "f[j=1] 18 2 15 14 above" in capsys.readouterr().out


def test_compare_malformed_table(tmp_path):
    table = tmp_path / "bad.tbl"
    table.write_text("not a table\n")
    rc = main(["compare", "--q", "11", "--p", "3", "--m", "2", "--table", str(table)])
    assert rc == 5


def test_compare_missing_table(tmp_path):
    rc = main(["compare", "--q", "11", "--p", "3", "--m", "2",
               "--table", str(tmp_path / "nope.tbl")])
    assert rc == 4


def test_compare_non_ascii_table_is_malformed(tmp_path, capsys):
    # a UnicodeDecodeError is a ValueError, yet the table is malformed: 5, not 2
    table = tmp_path / "ref.tbl"
    table.write_bytes("18 2 15 # d\u2081\n".encode("utf-8"))
    rc = main(["compare", "--q", "11", "--p", "3", "--m", "2", "--table", str(table)])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed reference table: ")


def test_compare_directory_as_table(tmp_path, capsys):
    rc = main(["compare", "--q", "11", "--p", "3", "--m", "2", "--table", str(tmp_path)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


def test_survey_out_is_a_directory(tmp_path, capsys):
    rc = main(["survey", "--q", "11", "--p", "3", "--m", "2", "--dim", "2",
               "--out", str(tmp_path)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(tmp_path) in captured.err


@pytest.mark.parametrize("q, p, m, line", [
    (7, 3, 2, "error: (q, p, m) = (7, 3, 2) is not admissible\n"),
    (4, 3, 2, "error: q must be prime, got 4\n"),
    # 2^61 - 1 is prime and 1 mod 3; trial division ran for minutes on it
    (2305843009213693951, 3, 1,
     "error: (q, p, m) = (2305843009213693951, 3, 1) is not admissible\n"),
    # the least strong pseudoprime to all 13 Miller-Rabin bases
    (3317044064679887385961981, 3, 1, "error: primality of 3317044064679887385961981 "
     "is decided only below 3317044064679887385961981\n"),
], ids=["inadmissible", "q-not-prime", "q-mersenne-61", "q-beyond-the-proven-range"])
def test_every_command_refuses_a_bad_triple_alike(tmp_path, capsys, q, p, m, line):
    table = tmp_path / "ref.tbl"
    table.write_text("18 2 15\n")
    out = tmp_path / "out"
    extra = {
        "construct": ["--gen", "f", "--out", str(out)],
        "survey": ["--out", str(out)],
        "verify": [],
        "compare": ["--table", str(table)],
    }
    for command, args in extra.items():
        rc = main([command, "--q", str(q), "--p", str(p), "--m", str(m)] + args)
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (2, "", line), command
        assert not out.exists()


@pytest.mark.parametrize("command", ["construct", "survey", "compare"])
def test_q_beyond_int64_bound_exits_2(tmp_path, capsys, command):
    # (1000000103, 3, 2) is admissible, but 18 (q-1)^2 >= 2^63
    argv = [command, "--q", "1000000103", "--p", "3", "--m", "2"]
    table = tmp_path / "ref.tbl"
    table.write_text("18 2 15\n")
    argv += {
        "construct": ["--gen", "f", "--out", str(tmp_path / "f.gm")],
        "survey": ["--out", str(tmp_path / "s.tbl")],
        "compare": ["--table", str(table)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2^63" in err


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_settled_weights_need_no_scan(tmp_path, capsys, monkeypatch):
    """survey, construct --gen e11|e22|ej|pair and the e11 lines of compare
    write d down from the theory, so they run with the scan kernel broken."""
    import dihedral_codes._kernels as kernels
    import dihedral_codes.codes as codes

    def no_scan(*args):
        raise AssertionError("scanned a code whose weight the theory settles")

    monkeypatch.setattr(kernels, "weight_histogram", no_scan)
    monkeypatch.setattr(codes, "weight_histogram", no_scan)
    t = ["--q", "3", "--p", "5", "--m", "3"]
    out = str(tmp_path / "x")
    rc, stdout, _ = _run(capsys, ["survey", *t, "--out", out])
    assert rc == 0 and "?" not in stdout + open(out).read()
    assert stdout.startswith("dim 1: best weight 250\n")
    for gen, line in [
        (["--gen", "e11", "--j", "2"], "250 20 20\n"),
        (["--gen", "e22", "--j", "3"], "250 100 4\n"),
        (["--gen", "ej", "--j", "2"], "250 40 10\n"),
        (["--gen", "pair", "--sub-h", "h3", "--sub-k", "h2"], "250 200 2\n"),
        (["--gen", "pair", "--sub-h", "h2", "--sub-k", "hstar2"], "250 25 10\n"),
    ]:
        assert _run(capsys, ["construct", *t, *gen, "--out", out]) == (0, line, ""), gen
    table = tmp_path / "ref.tbl"
    table.write_text("250 4 200\n")
    rc, stdout, _ = _run(capsys, ["compare", *t, "--budget", "0", "--table", str(table)])
    assert rc == 0
    assert [ln for ln in stdout.splitlines() if ln.startswith("e11")] == [
        "e11[j=1] 250 4 100 200 below",
        "e11[j=2] 250 20 20 - no reference",
        "e11[j=3] 250 100 4 - no reference",
    ]


# the triples whose e11/e22/ej and pair codes are checked against the scan
CONSTRUCT_TRIPLES = [
    (11, 3, 2), (5, 3, 2), (3, 5, 2), (5, 3, 3), (3, 5, 3), (13, 5, 2), (7, 5, 1),
    (3, 5, 1), (11, 3, 1),
]


def _eliminated_text(q, p, m, gen):
    """The `.gm` text of the elimination route: `left_ideal_code` of the
    catalog's e11, e22 or e_j, or of H^ - K^ for a pair."""
    field, group = PrimeField(q), DihedralGroup(p, m)
    if gen[1] == "pair":
        H, K = (parse_subgroup(group, s) for s in (gen[3], gen[5]))
        x = hat(field, H) - hat(field, K)
    else:
        catalog, j = idempotents.central_idempotents(field, group), int(gen[3])
        if gen[1] == "ej":
            x = catalog.component(j)
        else:
            x = getattr(idempotents.matrix_units(catalog, j), gen[1])
    return left_ideal_code(x).to_text()


@pytest.mark.parametrize("q, p, m", CONSTRUCT_TRIPLES)
def test_construct_closed_forms_match_the_scan(tmp_path, capsys, q, p, m):
    """Oracle: the matrix construct writes for e11, e22, ej at every
    component and for every nested pair of chain subgroups is, byte for
    byte, the one the elimination route gives, and the d it writes down
    equals the scan of that matrix wherever the scan fits in the budget."""
    t = ["--q", str(q), "--p", str(p), "--m", str(m)]
    specs = [f"{c}{i}" for c in ("h", "hstar") for i in range(m + 1)]
    gens = [["--gen", g, "--j", str(j)] for j in range(1, m + 1) for g in ("e11", "e22", "ej")]
    gens += [["--gen", "pair", "--sub-h", h, "--sub-k", k] for h in specs for k in specs]
    out, scanned, written = tmp_path / "x.gm", 0, 0
    for gen in gens:
        rc, stdout, _ = _run(capsys, ["construct", *t, *gen, "--out", str(out)])
        if rc == 2:  # a pair that is not nested
            continue
        n, k, d = (int(v) for v in stdout.split())
        assert rc == 0 and n == 2 * p**m, gen
        assert out.read_text() == _eliminated_text(q, p, m, gen), gen
        written += 1
        w = LinearCode.read(out).min_weight(budget=1 << 21)
        if w is not None:
            assert d == w, gen
            scanned += 1
    # h_j <= h_i, h_j <= hstar_i and hstar_j <= hstar_i for i <= j, less H = K
    assert written == 3 * m + 3 * (m + 1) * (m + 2) // 2 - 2 * (m + 1)
    assert scanned >= 3


@pytest.mark.parametrize("gen", ["e11", "e22", "ej"])
@pytest.mark.parametrize("j", ["0", "3"])
def test_construct_component_out_of_range(tmp_path, capsys, gen, j):
    out = tmp_path / "x.gm"
    rc, stdout, err = _run(capsys, ["construct", "--q", "11", "--p", "3", "--m", "2",
                                    "--gen", gen, "--j", j, "--out", str(out)])
    assert (rc, stdout, err) == (2, "", f"error: component index {j} out of range 1..2\n")
    assert not out.exists()


def test_an_admissible_q_beyond_int64_exits_2_at_once(tmp_path, capsys):
    # 2^61 + 15 is prime and 2 mod 3, so (q, 3, 1) is admissible
    start = time.perf_counter()
    rc, stdout, err = _run(capsys, ["construct", "--q", "2305843009213693967", "--p", "3",
                                    "--m", "1", "--gen", "f", "--out", str(tmp_path / "f.gm")])
    assert time.perf_counter() - start < 1.0
    assert (rc, stdout) == (2, "") and err.startswith("error: ") and "2^63" in err


@pytest.mark.parametrize("command", ["construct", "survey", "compare"])
def test_an_oversize_triple_exits_2_at_once(tmp_path, capsys, command):
    # (5, 3, 40) is admissible, but 2 3^40 4^2 >= 2^63: the group of order
    # 2 3^40 (or the 2^82 survey rows) used to be built until a timeout
    table = tmp_path / "ref.tbl"
    table.write_text("18 2 15\n")
    extra = {
        "construct": ["--gen", "f", "--out", str(tmp_path / "f.gm")],
        "survey": ["--out", str(tmp_path / "s.tbl")],
        "compare": ["--table", str(table)],
    }[command]
    start = time.perf_counter()
    rc, stdout, err = _run(capsys, [command, "--q", "5", "--p", "3", "--m", "40", *extra])
    assert time.perf_counter() - start < 1.0
    assert (rc, stdout) == (2, "")
    assert err == f"error: |G| (q-1)^2 = {2 * 3**40 * 16} reaches 2^63; int64 products would overflow\n"
    assert not (tmp_path / "f.gm").exists() and not (tmp_path / "s.tbl").exists()


# a prime with p - 1 = 2 3 10427867 575841589
HUGE_P = 36028797018963979


@pytest.mark.parametrize("q, p, line", [
    # 5 is a square mod 2^61 - 1, so no generator of its units: not admissible
    (5, 2305843009213693951, "error: (q, p, m) = (5, 2305843009213693951, 1) is not admissible\n"),
    # 7 passes every quick test; the int64 gate refuses it before p - 1 is factored
    (7, 2305843009213693951, f"error: |G| (q-1)^2 = {2 * 2305843009213693951 * 36} reaches "
        "2^63; int64 products would overflow\n"),
    # 3 generates the units mod HUGE_P, which the factors of p - 1 show at once
    # (an order loop took up to p - 1 steps), so the table gate refuses it
    (3, HUGE_P, f"error: the {2 * HUGE_P} x {2 * HUGE_P} group table holds "
        f"{(2 * HUGE_P) ** 2} residues, beyond the write limit 4194304\n"),
], ids=["q5", "q7", "q3-admissible"])
def test_a_huge_p_exits_2_at_once(tmp_path, capsys, q, p, line):
    start = time.perf_counter()
    rc, stdout, err = _run(capsys, ["construct", "--q", str(q), "--p", str(p),
                                    "--m", "1", "--gen", "f", "--out", str(tmp_path / "f.gm")])
    assert time.perf_counter() - start < 1.0
    assert (rc, stdout, err) == (2, "", line)
    assert not (tmp_path / "f.gm").exists()


def test_a_survey_at_an_admissible_huge_p(tmp_path, capsys):
    # every row is a closed form, so the survey writes its 15 rows at once
    out = tmp_path / "s.tbl"
    start = time.perf_counter()
    rc, stdout, err = _run(capsys, ["survey", "--q", "3", "--p", str(HUGE_P), "--m", "1",
                                    "--out", str(out)])
    assert time.perf_counter() - start < 1.0
    assert (rc, err) == (0, "") and stdout.endswith(f"15 rows written to {out}\n")
    assert out.read_text() == format_survey_table(enumerate_abelian_codes(HUGE_P, 1), 3, HUGE_P, 1)


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_survey_imports_no_numpy(tmp_path):
    """Every survey field and every matrix of construct --gen e11|e22|ej|pair
    is a closed form, so neither importing the CLI, a full survey nor those
    constructs load numpy, nor `dataclasses` and the `inspect` it pulls in;
    construct --gen f loads numpy, but not the closed forms."""
    out = _python(
        "import contextlib, io, sys\n"
        "import dihedral_codes.cli as cli\n"
        "t = ['--q', '11', '--p', '3', '--m', '2']\n"
        "def loaded():\n"
        "    print(*(name in sys.modules for name in ('numpy', 'dataclasses', 'inspect')))\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['survey', '--q', '5', '--p', '3', '--m', '3',\n"
        "                     '--out', sys.argv[1]]) == 0\n"
        "loaded()\n"
        "for gen in (['e11'], ['e22', '--j', '2'], ['ej'],\n"
        "            ['pair', '--sub-h', 'h2', '--sub-k', 'hstar1']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['construct', *t, '--gen', *gen, '--out', sys.argv[2]]) == 0\n"
        "loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['construct', *t, '--gen', 'f', '--out', sys.argv[2]]) == 0\n"
        "print('numpy' in sys.modules)\n",
        str(tmp_path / "s.tbl"), str(tmp_path / "x.gm"),
    )
    assert out == "False False False\n" * 3 + "True\n"
    assert len((tmp_path / "s.tbl").read_text().splitlines()) == 1 + 255
    out = _python(
        "import contextlib, io, sys\n"
        "import dihedral_codes.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['construct', '--q', '11', '--p', '3', '--m', '2',\n"
        "                     '--gen', 'f', '--out', sys.argv[1]]) == 0\n"
        "print('dihedral_codes.closed_forms' in sys.modules)\n",
        str(tmp_path / "f.gm"),
    )
    assert out == "False\n"


def test_a_survey_streams_its_rows(tmp_path, capsys):
    """The survey writes each line as it makes the row and keeps only the
    best weight of each dimension: at (5, 3, 7), 65535 rows, it peaks under
    4 MiB of Python allocations, where a list of the rows took 17 MB."""
    out = tmp_path / "s.tbl"
    tracemalloc.start()
    try:
        rc = main(["survey", "--q", "5", "--p", "3", "--m", "7", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert capsys.readouterr().out.endswith(f"65535 rows written to {out}\n")
    assert peak < 1 << 22
    assert out.read_text() == format_survey_table(enumerate_abelian_codes(3, 7), 5, 3, 7)


@pytest.mark.parametrize("argv, line", [
    # k n = 354294 * 1062882; the catalog route died with a MemoryError
    (["construct", "--q", "5", "--p", "3", "--m", "12", "--gen", "e11", "--j", "12"],
     f"error: the [1062882, 354294] generator matrix holds {354294 * 1062882} residues, "
     "beyond the write limit 4194304\n"),
    (["construct", "--q", "3", "--p", "5", "--m", "5", "--gen", "pair",
      "--sub-h", "h5", "--sub-k", "hstar0"],
     "error: the [6250, 6249] generator matrix holds 39056250 residues, "
     "beyond the write limit 4194304\n"),
    # within() is a closed form: no index set of 2 * 3^20 elements is built
    (["construct", "--q", "5", "--p", "3", "--m", "20", "--gen", "pair",
      "--sub-h", "h20", "--sub-k", "hstar0"],
     f"error: the [{2 * 3**20}, {2 * 3**20 - 1}] generator matrix holds "
     f"{2 * 3**20 * (2 * 3**20 - 1)} residues, beyond the write limit 4194304\n"),
    (["survey", "--q", "5", "--p", "3", "--m", "10"],
     "error: the survey of 4194303 rows holds 12582909 residues, "
     "beyond the write limit 4194304\n"),
    (["survey", "--q", "5", "--p", "3", "--m", "30", "--dim", "2"],
     f"error: the survey of {4**31 - 1} rows holds {3 * (4**31 - 1)} residues, "
     "beyond the write limit 4194304\n"),
    # the scanned routes build n x n tables: 11.5 GiB died in a MemoryError
    (["construct", "--q", "5", "--p", "3", "--m", "9", "--gen", "f"],
     f"error: the 39366 x 39366 group table holds {39366**2} residues, "
     "beyond the write limit 4194304\n"),
    (["construct", "--q", "5", "--p", "3", "--m", "7", "--gen", "custom", "--coeffs", "1"],
     f"error: the 4374 x 4374 group table holds {4374**2} residues, "
     "beyond the write limit 4194304\n"),
    (["compare", "--q", "5", "--p", "3", "--m", "9"],
     f"error: the 39366 x 39366 group table holds {39366**2} residues, "
     "beyond the write limit 4194304\n"),
    (["verify", "--q", "5", "--p", "3", "--m", "7"],
     f"error: the 4374 x 4374 group table holds {4374**2} residues, "
     "beyond the write limit 4194304\n"),
    # verify takes no int64 gate, so only the table gate stops a huge m or p:
    # decided on a capped product, and written as a formula once n >= 2^63
    *(
        (["verify", "--q", str(q), "--p", str(p), "--m", str(m)],
         f"error: the (2 * {p}^{m}) x (2 * {p}^{m}) group table holds 4 * {p}^{2 * m} "
         "residues, beyond the write limit 4194304\n")
        for q, p, m in ((5, 3, 1000), (5, 3, 10**4), (5, 3, 10**7), (3, HUGE_P, 2),
                        (3, HUGE_P, 64))
    ),
], ids=["e11-j12", "pair", "pair-m20", "survey-m10", "survey-m30-dim", "f-m9", "custom-m7", "compare-m9",
        "verify-m7", "verify-m1000", "verify-m10000", "verify-m10000000", "verify-hugep-m2",
        "verify-hugep-m64"])
def test_an_oversize_write_exits_2_at_once(tmp_path, capsys, argv, line):
    """WRITE_LIMIT refuses a matrix or table too large to write, or an
    n x n table too large to build, before anything is built, with one
    error line and no file."""
    out = tmp_path / "out"
    if argv[0] == "compare":
        table = tmp_path / "ref.tbl"
        table.write_text("18 2 15\n")
        argv = [*argv, "--table", str(table)]
    elif argv[0] != "verify":
        argv = [*argv, "--out", str(out)]
    start = time.perf_counter()
    assert _run(capsys, argv) == (2, "", line)
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


def test_the_write_limit_refuses_no_tested_command():
    """The largest writes of the tests, CI and goldens stay within it: the
    survey at (5, 3, 6) and code(e_3) at (3, 5, 3); so do the n x n tables
    of `construct --gen f|custom`, `compare` and `verify`, whose largest n
    there is 250, at (3, 5, 3)."""
    assert 3 * (4**7 - 1) <= WRITE_LIMIT
    assert 200 * 250 <= WRITE_LIMIT
    assert 250 * 250 <= WRITE_LIMIT
    # every (p, m) that a test, the CI or a golden verifies, (3, 5, 3) the largest
    for p, m in [(3, 1), (3, 2), (3, 3), (5, 2), (5, 3)]:
        assert (2 * p**m) ** 2 <= WRITE_LIMIT
    # the first survey above it is m = 10, whatever q and p
    assert 3 * (4**10 - 1) <= WRITE_LIMIT < 3 * (4**11 - 1)
    # the first table above it at p = 3 is m = 7, n = 4374
    assert (2 * 3**6) ** 2 <= WRITE_LIMIT < (2 * 3**7) ** 2


# where each exported name is defined
HOMES = {
    "algebra": ["AlgebraElem", "hat", "is_central", "is_idempotent", "left_translate",
                "products"],
    "check_names": ["CHECK_NAMES"],
    "codes": ["LinearCode", "equivalence_necessary_check", "gamma_image_code",
              "left_ideal_code", "subgroup_pair_code"],
    "ff": ["DEFAULT_BUDGET", "InadmissibleParameters", "PrimeField", "check_admissible",
           "is_prime", "multiplicative_order", "phi_prime_power"],
    "groups": ["AbelianGroup", "DihedralGroup", "GroupElem", "Subgroup", "gamma"],
    "idempotents": ["AbelianCatalog", "CentralCatalog", "MatrixUnits", "NonCentralGenerators",
                    "abelian_catalog", "central_idempotents", "matrix_units",
                    "noncentral_generator"],
    "survey": ["SurveyRow", "abelian_min_weight", "enumerate_abelian_codes",
               "format_survey_table"],
    "verify": ["CheckResult", "run_checks", "subgroup_pair_suite"],
}


# the fields of each record, in the order of positional construction
RECORD_FIELDS = {
    "survey.SurveyRow": ("mask", "dim", "min_weight"),
    "idempotents.CentralCatalog": ("group", "field", "e0", "e11_0", "e22_0", "components"),
    "idempotents.MatrixUnits": ("j", "component", "e11", "e12", "e21", "e22"),
    "idempotents.NonCentralGenerators": ("units", "f", "alpha", "alpha_inv"),
    "idempotents.AbelianCatalog": ("group", "field", "members", "codes"),
    "verify.CheckResult": ("name", "passed", "detail"),
}


@pytest.mark.parametrize("path", RECORD_FIELDS)
def test_records_keep_their_fields_and_are_read_only(path):
    module, name = path.split(".")
    cls = getattr(importlib.import_module(f"dihedral_codes.{module}"), name)
    fields = RECORD_FIELDS[path]
    values = [object() for _ in fields]
    for record in (cls(*values), cls(**dict(zip(fields, values)))):
        assert all(getattr(record, f) is v for f, v in zip(fields, values))
        for attr in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, attr, 0)


def test_the_abelian_catalog_has_the_length_of_its_members():
    acat = idempotents.abelian_catalog(PrimeField(11), 3, 2)
    assert len(acat) == len(acat.members) == 6
    with pytest.raises(AttributeError):
        del acat.codes


def test_every_exported_name_resolves():
    """The package loads its names on first use: each name of `__all__`
    resolves to the object of its home module and `dir()` lists it, while
    importing the package alone loads no numpy."""
    import dihedral_codes

    assert sorted(dihedral_codes.__all__) == sorted(n for names in HOMES.values() for n in names)
    for module, names in HOMES.items():
        home = importlib.import_module(f"dihedral_codes.{module}")
        for name in names:
            assert getattr(dihedral_codes, name) is getattr(home, name), name
    assert set(dihedral_codes.__all__) <= set(dir(dihedral_codes))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        dihedral_codes.nonexistent  # noqa: B018
    assert _python("import sys, dihedral_codes; print('numpy' in sys.modules)") == "False\n"
