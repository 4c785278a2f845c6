import pytest

from dihedral_codes import LinearCode
from dihedral_codes.cli import main


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
    rc = main(["survey", "--q", "11", "--p", "3", "--m", "2",
               "--budget", "20000", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "11 3 2"
    assert len(lines) == 64
    assert lines[-1] == "63 18 1"
    assert "dim 18: best weight 1" in capsys.readouterr().out


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
], ids=["inadmissible", "q-not-prime"])
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
