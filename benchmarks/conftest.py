"""Shared helpers for the benchmark harness.

Each ``bench_fig*``/``bench_table*`` file regenerates the table or
figure of the paper's evaluation that its name gives; the rest are
ablations and tooling rows.  Each bench:

* computes the paper's rows/series from the simulator,
* prints them (visible with ``pytest benchmarks/ --benchmark-only -s``),
* writes them to the git-ignored ``benchmarks/results/<name>.txt``,
* asserts the paper's *shape* bands, written in the bench itself, and
* times the whole harness through the ``benchmark`` fixture.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

#: Smoke mode (BENCH_SMOKE=1): shrink iteration counts and skip
#: wall-clock assertion bands so CI can cheaply verify every benchmark
#: still *runs* without paying for statistically meaningful timings.
SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")


def scaled(full: int, smoke: int) -> int:
    """``full`` iterations normally, ``smoke`` under BENCH_SMOKE=1."""
    return smoke if SMOKE else full


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def emit(results_dir: Path, name: str, text: str) -> None:
    """Print a reproduced table and persist it under results/."""
    print()
    print(f"=== {name} ===")
    print(text)
    (results_dir / f"{name}.txt").write_text(text + "\n")
