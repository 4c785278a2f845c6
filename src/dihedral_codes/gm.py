"""The `.gm` generator-matrix text format: a line 'n k q', then k lines of
n residues, space-separated and newline-terminated.

A module of its own, free of numpy and of the group layer, so that
`LinearCode` and the closed-form matrices of `closed_forms` write through
one formatter at the cost of compiling a few lines.
"""


def format_generator_matrix(n: int, q: int, rows) -> str:
    """The `.gm` text of `rows`, k lists of n residues."""
    lines = [f"{n} {len(rows)} {q}"]
    lines += [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def write_generator_matrix(path, n: int, q: int, rows) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_generator_matrix(n, q, rows))
