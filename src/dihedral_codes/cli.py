"""Command-line front end.

Subcommands:
  construct   build one code, write its generator matrix, print `n k d`
  survey      list all abelian codes of F_q[C_{p^m} x C_2] with their weights
  verify      run the named verification checks
  compare     check constructed codes against a reference table `n k d_best`

Where the theory settles d, it is written down, not enumerated: every
survey row (`survey.abelian_min_weight`), and `construct --gen
e11|e22|ej|pair` and the `e11[j]` lines of `compare`, whose d = 2|H| for
the subgroup pair (H, K) behind the code, by the lemma of `closed_forms`.
Only `f` and `custom` scan their codewords, under `--budget`, which
`survey` does not take.

What each command imports.  This module loads `argparse`, `ff`, `survey`
and `check_names`: no numpy, and no `dataclasses` with the `inspect` it
pulls in, as the package's records are named tuples or `__slots__`
classes.  `survey` takes every field from the closed forms of the
`survey` module and runs on these alone, writing each table line as it
makes the row.  `construct --gen e11|e22|ej|pair` writes the canonical
RREF of its code in `closed_forms`, from the coset labels
`groups.Subgroup.roots`, proven there in O(k n) integer steps, and adds
only `closed_forms`, `gm` and `groups`, no numpy.  `construct --gen
f|custom` and `compare` add numpy and the algebra stack (`groups`,
`algebra`, `modmat`, `_kernels`, `codes`, `gm`, `idempotents`), not
`closed_forms`; `verify` adds that stack, `verify` and, for its central
and pair checks, `closed_forms`.  Every handler
imports what it needs after its dispatch, so importing this module costs
no more than a survey needs.  `check_names` gives `verify --check` its
choices without importing `verify`.

Exit codes: 0 success, 1 a `verify` check failed, 3 enumeration budget
exceeded (`construct --gen f|custom` only).  `main` alone maps the rest,
printing one `error: ` line: ValueError -> 2 (an inadmissible (q, p, m),
checked before any command runs, prints `error: (q, p, m) = (7, 3, 2) is
not admissible`; a bad `--coeffs`, `--sub-h`/`--sub-k`, a `--gen pair` of
two equal subgroups, an out-of-range `--j` or survey `--dim`; a closed-form
matrix, a survey, or the n x n group tables of `construct --gen f|custom`,
`compare` and `verify`, of more than `ff.WRITE_LIMIT` residues; for
`construct`, `survey` and `compare`, 2p^m (q-1)^2 >= 2^63, too large for
exact int64 arithmetic, refused by the same gate before p - 1 is
factored for the primitive-root test, so at once even for a huge p or m;
`verify` reports the checks that would overflow as FAIL instead), OSError
on read or write -> 4, MalformedTable (reference table) -> 5.  Argument
parsing exits 2 on what it rejects, such as a negative `--budget` or a
`survey --budget`.
`construct` and `survey` test that `--out` opens for writing before they
compute, so an unwritable path exits 4 at once; a run that fails creates
or truncates no file.  Identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

from .check_names import CHECK_NAMES
from .ff import (
    DEFAULT_BUDGET,
    INT64_LIMIT,
    WRITE_LIMIT,
    PrimeField,
    capped_product,
    phi_prime_power,
    require_admissible,
    require_write_size,
)
from .survey import write_survey

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_IO = 4
EXIT_BAD_TABLE = 5

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


def _add_budget(parser):
    parser.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="enumeration budget on q^k (only gates whether a value is computed)",
    )


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


def _require_table_size(p: int, m: int) -> None:
    """Refuse n x n tables (the group law, L(x)) beyond `ff.WRITE_LIMIT`.
    n = 2 p^m is decided capped and written as a number below 2^63, and as
    a formula beyond, so a huge m or p is refused at once, in one line."""
    if capped_product(2, p, m, INT64_LIMIT) < INT64_LIMIT:
        n = 2 * p**m
        return require_write_size(n * n, f"the {n} x {n} group table")
    raise ValueError(
        f"the (2 * {p}^{m}) x (2 * {p}^{m}) group table holds 4 * {p}^{2 * m} residues, "
        f"beyond the write limit {WRITE_LIMIT}"
    )


def cmd_construct(args) -> int:
    _check_writable(args.out)
    if args.gen in ("f", "custom"):
        return _construct_scanned(args)
    from .closed_forms import canonical_rows, central_pair, parse_subgroup
    from .gm import write_generator_matrix
    from .groups import DihedralGroup

    group = DihedralGroup(args.p, args.m)
    if args.gen == "pair":
        if not args.sub_h or not args.sub_k:
            raise ValueError("--gen pair needs --sub-h and --sub-k")
        H = parse_subgroup(group, args.sub_h)
        K = parse_subgroup(group, args.sub_k)
        if not H.within(K):
            raise ValueError("H is not contained in K")
        if H == K:
            raise ValueError(
                f"--sub-h {args.sub_h} and --sub-k {args.sub_k} are the same "
                "subgroup, so the pair code is zero"
            )
        twist = False
    else:
        H, K, twist = central_pair(group, args.gen, args.j)
    n = group.order
    # dim V(H, K) = (G:H) - (G:K) and d = 2|H|, by the lemma of closed_forms;
    # sigma only negates coordinates, so e22 keeps the weight of e11
    k = n // H.order - n // K.order
    require_write_size(k * n, f"the [{n}, {k}] generator matrix")
    write_generator_matrix(args.out, n, args.q, canonical_rows(H, K, args.q, twist))
    print(f"{n} {k} {2 * H.order}")
    return EXIT_OK


def _construct_scanned(args) -> int:
    """`construct --gen f|custom`: eliminate L(x), scan under the budget."""
    _require_table_size(args.p, args.m)
    from .algebra import AlgebraElem
    from .codes import left_ideal_code
    from .groups import DihedralGroup
    from .idempotents import central_idempotents, matrix_units, noncentral_generator

    field = PrimeField(args.q)
    group = DihedralGroup(args.p, args.m)
    if args.gen == "custom":
        if not args.coeffs:
            raise ValueError("--gen custom needs --coeffs")
        # reduced as Python ints, so no entry overflows int64
        coeffs = [int(t) % args.q for t in args.coeffs.split(",")]
        gen = AlgebraElem(group, field, coeffs)
    else:
        units = matrix_units(central_idempotents(field, group), args.j)
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
    n_rows = (1 << 2 * (args.m + 1)) - 1
    require_write_size(3 * n_rows, f"the survey of {n_rows} rows")
    best, count = write_survey(args.q, args.p, args.m, args.out, dim_filter=args.dim)
    for dim in sorted(best):
        print(f"dim {dim}: best weight {best[dim]}")
    print(f"{count} rows written to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _require_table_size(args.p, args.m)
    from .verify import run_checks

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
    """One f[j] line from the scanned code(f), one e11[j] line from the
    closed forms: code(e11) at j is V(H*_j, H*_(j-1)), so by the lemma of
    `closed_forms` it is [2p^m, phi(p^j), 2|H*_j| = 4p^(m-j)].  code(f)
    at j has dimension phi(p^j) too (proven by `verify`'s
    noncentral-generator check), so an f[j] line beyond the budget prints
    its ? with no catalog, matrix units or elimination built for it."""
    from .codes import left_ideal_code
    from .groups import DihedralGroup
    from .idempotents import central_idempotents, matrix_units, noncentral_generator

    reference = _parse_reference_table(args.table)
    _require_table_size(args.p, args.m)
    group = DihedralGroup(args.p, args.m)
    catalog = None
    for j in range(1, args.m + 1):
        dim = phi_prime_power(args.p, j)
        f_row = (group.order, dim, None)
        if args.q**dim <= args.budget:
            if catalog is None:
                catalog = central_idempotents(PrimeField(args.q), group)
            code = left_ideal_code(noncentral_generator(matrix_units(catalog, j)).f)
            f_row = (code.n, code.k, code.min_weight(budget=args.budget))
        for label, n, k, d in (
            (f"f[j={j}]", *f_row),
            (f"e11[j={j}]", group.order, dim, 4 * args.p ** (args.m - j)),
        ):
            if d is None:
                print(f"{label} {n} {k} ? - unknown (budget)")
                continue
            ref = next((r[2] for r in reference if r[0] == n and r[1] == k), None)
            if ref is None:
                print(f"{label} {n} {k} {d} - no reference")
            else:
                verdict = "matches" if d == ref else ("below" if d < ref else "above")
                print(f"{label} {n} {k} {d} {ref} {verdict}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dihedral-codes",
        description="Codes from left ideals of dihedral group algebras over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="build a code and export its matrix")
    _add_common(p_construct)
    _add_budget(p_construct)
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
    _add_budget(p_verify)
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
    _add_budget(p_compare)
    p_compare.add_argument("--table", required=True, help="reference table `n k d_best`")
    p_compare.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # verify reports a check that would overflow int64 as FAIL instead
        require_admissible(args.q, args.p, args.m, int64_products=args.command != "verify")
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
