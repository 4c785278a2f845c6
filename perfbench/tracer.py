"""Run one dihedral-codes CLI command with a span around every call into
each layer, and write the spans out as JSON when the command ends.

    python perfbench/tracer.py SPANS.json construct --q 11 --p 3 --m 2 ...

The package imports functions by name (`from .codes import
left_ideal_code`), so wrapping a function where it is defined misses the
calls made through those other names.  `install` therefore rebinds every
module attribute, and every entry of a module-level list, that holds a
wrapped function.  Methods are wrapped on their class.

Self time is a span's duration minus the time covered by its child spans.
The counters below are taken outside the timed interval of the span that
owns them; that bookkeeping time is summed into `hook_s` and counted as
covered time of the enclosing span, so it lands in no layer's self time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

PACKAGE = "dihedral_codes"
MODULES = ("ff", "groups", "algebra", "modmat", "_kernels", "codes",
           "idempotents", "survey", "verify", "cli")
# _kernels.scan_range and active_backend are steps inside weight_histogram,
# the layer's entry point; a span on them would empty its self time
SKIP = {("_kernels", "scan_range"), ("_kernels", "active_backend")}
METHODS = (("algebra", "AlgebraElem", "convolve"),
           ("groups", "_Group", "all_subgroups"),
           ("codes", "LinearCode", "weight_distribution"))


def layer_of(module_name: str) -> str:
    """Metric prefix of a module: names start with a letter."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stack: list[list[float]] = []  # covered time of each open span
        self.counters: dict[str, float] = {}
        self.rref_inputs: set[bytes] = set()
        self.hook_s = 0.0
        self.originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _hook(self, fn, *args) -> None:
        t0 = time.perf_counter()
        fn(*args)
        dt = time.perf_counter() - t0
        self.hook_s += dt
        if self.stack:
            self.stack[-1][0] += dt

    def wrap(self, name: str, fn, before=None, after=None, on_error=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._hook(before, args, kwargs)
            covered = [0.0]
            stack.append(covered)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    self._hook(on_error, exc)
                raise
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - covered[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                self._hook(after, result)
            return result

        self.originals[id(fn)] = (fn, wrapper)
        return wrapper

    # -- counters taken at layer boundaries ----------------------------------
    def _scan_words(self, args, kwargs):
        G, q = args[0], args[1]
        self.count("kernels.codewords", int(q) ** int(np.shape(G)[0]))

    def _rref_input(self, args, kwargs):
        A = np.array(args[0], dtype=np.int64) % args[1]
        self.count("modmat.rref.cells", A.size)
        key = hashlib.blake2b(repr((A.shape, args[1])).encode() + A.tobytes(),
                              digest_size=16).digest()
        self.rref_inputs.add(key)

    def _budget_refusal(self, exc):
        if type(exc).__name__ == "BudgetExceededError":
            self.count("codes.budget_refusals")

    def _subgroups(self, result):
        self.count("groups.subgroups_found", len(result))

    def _survey_rows(self, result):
        self.count("survey.rows", len(result))
        self.count("survey.rows_exact", sum(r.min_weight is not None for r in result))

    def install(self) -> None:
        mods = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in MODULES}
        hooks = {
            "kernels.weight_histogram": {"before": self._scan_words},
            "modmat.rref": {"before": self._rref_input},
            "codes.weight_distribution": {"on_error": self._budget_refusal},
            "groups.all_subgroups": {"after": self._subgroups},
            "survey.enumerate_abelian_codes": {"after": self._survey_rows},
        }
        check_names = {id(fn): name for name, fn in mods["verify"].CHECKS}

        def span_name(short, attr, fn):
            if id(fn) in check_names:
                return f"verify.check.{check_names[id(fn)]}"
            if short == "cli" and attr.startswith("cmd_"):
                return f"cli.{attr[4:]}"
            return f"{layer_of(short)}.{attr}"

        for short, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and (short, attr) not in SKIP):
                    name = span_name(short, attr, value)
                    self.wrap(name, value, **hooks.get(name, {}))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            name = f"{layer_of(short)}.{meth}"
            setattr(cls, meth, self.wrap(name, vars(cls)[meth], **hooks.get(name, {})))

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                self._rebind(mod)

    def _swap(self, value):
        hit = self.originals.get(id(value))
        return hit[1] if hit is not None and hit[0] is value else value

    def _rebind(self, mod) -> None:
        for attr, value in list(vars(mod).items()):
            if callable(value):
                new = self._swap(value)
                if new is not value:
                    setattr(mod, attr, new)
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, tuple):
                        value[i] = tuple(self._swap(x) for x in item)
                    else:
                        value[i] = self._swap(item)

    def unwrapped_references(self) -> list[str]:
        """Places in the package that still hold an original after install."""
        found = []
        for mod_name, mod in sys.modules.items():
            if not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in vars(mod).items():
                items = [value]
                if isinstance(value, (list, tuple)):
                    items = [x for item in value
                             for x in (item if isinstance(item, tuple) else (item,))]
                for x in items:
                    hit = self.originals.get(id(x))
                    if hit is not None and hit[0] is x:
                        found.append(f"{mod_name}.{attr}")
            for cls in (v for v in vars(mod).values() if inspect.isclass(v)):
                for attr, value in vars(cls).items():
                    hit = self.originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        found.append(f"{mod_name}.{cls.__name__}.{attr}")
        return found

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "rref_distinct": len(self.rref_inputs),
            "hook_s": self.hook_s,
        }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        return sys.modules[f"{PACKAGE}.cli"].main(cli_args)
    finally:
        with open(spans_path, "w", encoding="ascii") as fh:
            json.dump(tracer.report(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
