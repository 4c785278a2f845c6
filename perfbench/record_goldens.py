#!/usr/bin/env python3
"""Record goldens.json: every workload's command outputs at seed 0.

Run from the root of a source tree whose outputs are the reference, as
the goldens were recorded from the seed implementation:

    python3 perfbench/record_goldens.py
"""

import json
import sys
import time
from pathlib import Path

from run import Runner
from golden import GOLDENS, record
from workloads import WORKLOADS


def main() -> int:
    goldens = {}
    for name in WORKLOADS:
        runner = Runner(Path.cwd(), name, seed=0, deadline=time.monotonic() + 3600)
        sess = runner.session(traced=False, single=True)
        goldens[name] = [record(r.cmd, r.exit_code, r.stdout, r.files) for r in sess.runs]
        print(f"{name}: {len(sess.runs)} commands, {sess.wall_s:.1f} s", file=sys.stderr)
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
