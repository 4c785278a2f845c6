"""Golden-output check: every command's exit code, stdout and output files
against the values recorded from the seed implementation.

A value the seed computed must stay identical.  A `?` (a weight beyond the
enumeration budget) may become an exact number; the rest of that line
describes the value and may change with it, and the command's exit code may
then go from 3 (budget exceeded) to 0.  Any other difference is a failure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens.json"
EXIT_BUDGET = 3


def strip_seed(argv) -> list[str]:
    """argv without the `--seed N` pair, which leaves the outputs unchanged."""
    out, skip = [], False
    for tok in argv:
        if skip:
            skip = False
        elif tok == "--seed":
            skip = True
        else:
            out.append(tok)
    return out


def record(cmd, exit_code: int, stdout: str, files: dict[str, bytes]) -> dict:
    """The golden entry of one command run."""
    entry = {
        "argv": strip_seed(cmd.argv),
        "exit": exit_code,
        "stdout": stdout.splitlines(),
        "files": {},
    }
    for name, data in files.items():
        f = {"sha256": hashlib.sha256(data).hexdigest()}
        if name.endswith(".tbl"):  # survey tables carry `?` rows
            f["lines"] = data.decode("ascii").splitlines()
        entry["files"][name] = f
    return entry


def load(workload: str) -> list[dict]:
    with open(GOLDENS, encoding="ascii") as fh:
        return json.load(fh)[workload]


def match_line(golden: str, actual: str) -> tuple[bool, int]:
    """(matches, number of `?` that became exact)."""
    if golden == actual:
        return True, 0
    g, a = golden.split(" "), actual.split(" ")
    for gt, at in zip(g, a):
        if gt == at:
            continue
        if gt == "?" and at.isdigit():
            return True, 1  # the rest of the line follows from the new value
        return False, 0
    return False, 0  # one line is a prefix of the other


def match_lines(golden: list[str], actual: list[str]) -> tuple[bool, int]:
    if len(golden) != len(actual):
        return False, 0
    filled = 0
    for g, a in zip(golden, actual):
        ok, n = match_line(g, a)
        if not ok:
            return False, 0
        filled += n
    return True, filled


def check(entry: dict, cmd, exit_code: int, stdout: str,
          files: dict[str, bytes]) -> str | None:
    """None when the run matches its golden entry, else the first difference."""
    if entry["argv"] != strip_seed(cmd.argv):
        return f"golden entry is for {' '.join(entry['argv'])}"
    ok, filled = match_lines(entry["stdout"], stdout.splitlines())
    if not ok:
        return "stdout differs"
    if set(files) != set(entry["files"]):
        return f"output files {sorted(files)} != {sorted(entry['files'])}"
    for name, data in files.items():
        want = entry["files"][name]
        if hashlib.sha256(data).hexdigest() == want["sha256"]:
            continue
        if "lines" not in want:
            return f"{name} differs"
        try:
            lines = data.decode("ascii").splitlines()
        except UnicodeDecodeError:
            return f"{name} is not ascii"
        ok, n = match_lines(want["lines"], lines)
        if not ok:
            return f"{name} differs"
        filled += n
    if exit_code != entry["exit"] and not (
        entry["exit"] == EXIT_BUDGET and exit_code == 0 and filled
    ):
        return f"exit code {exit_code} != {entry['exit']}"
    return None


def exact_values(cmd, stdout: str, files: dict[str, bytes]) -> int:
    """Exact d / weight values a command printed or wrote, i.e. not `?`."""
    lines = stdout.splitlines()
    fields: list[str] = []
    if cmd.kind == "construct" and lines:
        fields = lines[-1].split(" ")[2:3]  # "n k d"
    elif cmd.kind == "compare":
        fields = [ln.split(" ")[3] for ln in lines if len(ln.split(" ")) > 3]
    elif cmd.kind == "survey":
        fields = [ln.rsplit(" ", 1)[-1] for ln in lines if ln.startswith("dim ")]
        for data in files.values():
            rows = data.decode("ascii", "replace").splitlines()[1:]  # after "q p m"
            fields += [row.rsplit(" ", 1)[-1] for row in rows]
    return sum(f.isdigit() for f in fields)
