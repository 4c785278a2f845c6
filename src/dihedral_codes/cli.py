"""Command-line front end.

Subcommands:
  construct   build one code, write its generator matrix, print `n k d`
  survey      enumerate all abelian codes of F_q[C_{p^m} x C_2]
  verify      run the named verification checks
  compare     check constructed codes against a reference table `n k d_best`

Exit codes: 0 success, 1 a `verify` check failed, 3 enumeration budget
exceeded.  `main` alone maps the rest, printing one `error: ` line:
ValueError -> 2 (an inadmissible (q, p, m), checked before any command
runs, prints `error: (q, p, m) = (7, 3, 2) is not admissible`; a bad
`--coeffs`, `--sub-h`/`--sub-k`, a `--gen pair` of two equal subgroups,
an out-of-range `--j` or survey `--dim`; 2p^m (q-1)^2 >= 2^63, too large
for exact int64 arithmetic), OSError on read or write -> 4, MalformedTable
(reference table) -> 5.  Argument parsing exits 2 on what it rejects, such
as a negative `--budget`.  `construct` and `survey` test that `--out` opens
for writing before they compute, so an unwritable path exits 4 at once; a
run that fails creates or truncates no file.  Identical inputs give
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from .algebra import AlgebraElem
from .codes import DEFAULT_BUDGET, left_ideal_code, subgroup_pair_code
from .ff import PrimeField, require_admissible
from .groups import DihedralGroup
from .idempotents import central_idempotents, matrix_units, noncentral_generator
from .survey import abelian_catalog, enumerate_abelian_codes, write_survey_table
from .verify import CHECK_NAMES, run_checks

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_BAD_TABLE = 5

_SUBGROUP_SPEC = re.compile(r"^(h|hstar)(\d+)$")


class MalformedTable(ValueError):
    """A reference table that is not ASCII lines of `n k d_best`."""


def _budget(text: str) -> int:
    """argparse type of --budget: a non-negative int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_common(parser):
    parser.add_argument("--q", type=int, required=True, help="field size (prime)")
    parser.add_argument("--p", type=int, required=True, help="odd prime p")
    parser.add_argument("--m", type=int, required=True, help="exponent m >= 1")
    parser.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="enumeration budget on q^k (only gates whether a value is computed)",
    )


def _parse_subgroup(group: DihedralGroup, spec: str):
    mt = _SUBGROUP_SPEC.match(spec)
    if not mt:
        raise ValueError(f"bad subgroup spec {spec!r}; use h<j> or hstar<j>")
    j = int(mt.group(2))
    if not 0 <= j <= group.m:
        raise ValueError(f"subgroup index {j} out of range 0..{group.m}")
    return group.subgroup_H(j) if mt.group(1) == "h" else group.subgroup_Hstar(j)


def _check_writable(path) -> None:
    """Raise the OSError that opening `path` for writing would raise, before
    a command computes what it writes.  Leaves no trace: an existing file is
    opened without truncation, a missing one is created and removed again."""
    try:
        fd = os.open(path, os.O_WRONLY)
    except FileNotFoundError:
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:  # a dangling symlink; the write will tell
            return
        os.close(fd)
        os.unlink(path)
    else:
        os.close(fd)


def cmd_construct(args) -> int:
    _check_writable(args.out)
    field = PrimeField(args.q)
    group = DihedralGroup(args.p, args.m)
    if args.gen == "pair":
        if not args.sub_h or not args.sub_k:
            raise ValueError("--gen pair needs --sub-h and --sub-k")
        H = _parse_subgroup(group, args.sub_h)
        K = _parse_subgroup(group, args.sub_k)
        code, _ = subgroup_pair_code(field, H, K)
        if code.k == 0:
            raise ValueError(
                f"--sub-h {args.sub_h} and --sub-k {args.sub_k} are the same "
                "subgroup, so the pair code is zero"
            )
    elif args.gen == "custom":
        if not args.coeffs:
            raise ValueError("--gen custom needs --coeffs")
        # reduced as Python ints, so no entry overflows int64
        coeffs = [int(t) % args.q for t in args.coeffs.split(",")]
        code = left_ideal_code(AlgebraElem(group, field, coeffs))
    else:
        catalog = central_idempotents(field, group)
        if args.gen == "ej":
            gen = catalog.component(args.j)
        else:
            units = matrix_units(catalog, args.j)
            if args.gen == "e11":
                gen = units.e11
            elif args.gen == "e22":
                gen = units.e22
            else:  # f
                gen = noncentral_generator(units).f
        code = left_ideal_code(gen)

    code.write(args.out)
    d = code.min_weight(budget=args.budget)
    if d is None:
        print(f"{code.n} {code.k} ?")
        print(
            f"error: enumeration too large: q^k = {code.size()} exceeds budget {args.budget}",
            file=sys.stderr,
        )
        return EXIT_BUDGET
    print(f"{code.n} {code.k} {d}")
    return EXIT_OK


def cmd_survey(args) -> int:
    n = 2 * args.p ** args.m
    if args.dim is not None and not 1 <= args.dim <= n:
        raise ValueError(f"--dim {args.dim} out of range 1..{n}")
    _check_writable(args.out)
    field = PrimeField(args.q)
    catalog = abelian_catalog(field, args.p, args.m)
    rows = enumerate_abelian_codes(catalog, dim_filter=args.dim, budget=args.budget)
    write_survey_table(rows, args.q, args.p, args.m, args.out)
    for dim in sorted({row.dim for row in rows}):
        known = [r.min_weight for r in rows if r.dim == dim and r.min_weight is not None]
        print(f"dim {dim}: best weight {max(known) if known else '?'}")
    print(f"{len(rows)} rows written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = args.check if args.check else None
    results = run_checks(
        args.q, args.p, args.m, names=names, budget=args.budget, seed=args.seed
    )
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    return EXIT_OK if all(r.passed for r in results) else 1


def _parse_reference_table(path) -> list[tuple[int, int, int]]:
    """The `n k d_best` rows; MalformedTable for a bad line or a non-ASCII
    byte (a UnicodeDecodeError would otherwise exit 2 as a ValueError)."""
    rows = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split("#", 1)[0].split()
                if not parts:
                    continue
                if len(parts) != 3:
                    raise MalformedTable(
                        f"line {lineno}: expected 'n k d_best', got {line.rstrip()!r}"
                    )
                try:
                    rows.append(tuple(int(t) for t in parts))
                except ValueError:
                    raise MalformedTable(f"line {lineno}: non-integer field") from None
    except UnicodeDecodeError as exc:
        raise MalformedTable(exc) from None
    return rows


def cmd_compare(args) -> int:
    reference = _parse_reference_table(args.table)
    field = PrimeField(args.q)
    group = DihedralGroup(args.p, args.m)
    catalog = central_idempotents(field, group)
    for j in range(1, args.m + 1):
        units = matrix_units(catalog, j)
        for label, gen in (
            (f"f[j={j}]", noncentral_generator(units).f),
            (f"e11[j={j}]", units.e11),
        ):
            code = left_ideal_code(gen)
            d = code.min_weight(budget=args.budget)
            if d is None:
                print(f"{label} {code.n} {code.k} ? - unknown (budget)")
                continue
            ref = next(
                (r[2] for r in reference if r[0] == code.n and r[1] == code.k), None
            )
            if ref is None:
                print(f"{label} {code.n} {code.k} {d} - no reference")
            else:
                verdict = "matches" if d == ref else ("below" if d < ref else "above")
                print(f"{label} {code.n} {code.k} {d} {ref} {verdict}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedral-codes",
        description="Codes from left ideals of dihedral group algebras over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a code and export its matrix")
    _add_common(p_construct)
    p_construct.add_argument("--j", type=int, default=1, help="component index (default 1)")
    p_construct.add_argument(
        "--gen",
        required=True,
        choices=("f", "e11", "e22", "ej", "custom", "pair"),
        help="generator choice",
    )
    p_construct.add_argument("--coeffs", help="comma-separated residues for --gen custom")
    p_construct.add_argument("--sub-h", help="subgroup spec h<j> or hstar<j> for --gen pair")
    p_construct.add_argument("--sub-k", help="subgroup spec h<j> or hstar<j> for --gen pair")
    p_construct.add_argument("--out", required=True, help="generator matrix output path")
    p_construct.set_defaults(func=cmd_construct)

    p_survey = sub.add_parser("survey", help="enumerate all abelian codes")
    _add_common(p_survey)
    p_survey.add_argument("--dim", type=int, default=None, help="only rows of this dimension")
    p_survey.add_argument("--out", required=True, help="survey table output path")
    p_survey.set_defaults(func=cmd_survey)

    p_verify = sub.add_parser("verify", help="run verification checks")
    _add_common(p_verify)
    p_verify.add_argument(
        "--check",
        action="append",
        choices=CHECK_NAMES,
        help="run only this named check (repeatable)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser("compare", help="compare against a reference table")
    _add_common(p_compare)
    p_compare.add_argument("--table", required=True, help="reference table `n k d_best`")
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        require_admissible(args.q, args.p, args.m)
        return args.func(args)
    except MalformedTable as exc:
        print(f"error: malformed reference table: {exc}", file=sys.stderr)
        return EXIT_BAD_TABLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # InadmissibleParameters is a ValueError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
