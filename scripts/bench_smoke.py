#!/usr/bin/env python
"""End-to-end benchmark smoke test: every workload must check out.

Runs ``python3 bench/run.py --smoke`` (one traced and one untraced round
of every workload) and parses the JSON object on the last line of its
output.  ``bench/run.py`` itself exits 0 even when an output check
fails, so this script is the gate: it exits 1 unless ``correct`` is true
and ``failed == 0``.  That puts each workload's own checks into CI, for
instance ``graph_run``'s accelerator-vs-CPU allclose and per-layer cycle
comparisons.

Usage: python scripts/bench_smoke.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--smoke"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"FAIL: bench/run.py --smoke exited {proc.returncode}",
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"FAIL: last line is not a JSON result: {lines[-1]!r}",
              file=sys.stderr)
        return 1
    correct, failed = result.get("correct"), result.get("failed")
    attempted = result.get("attempted")
    if correct is not True or failed != 0:
        print(f"FAIL: correct={correct}, failed={failed} of {attempted} "
              "operations", file=sys.stderr)
        return 1
    print(f"OK: every workload checked out ({attempted} operations, "
          "0 failed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
