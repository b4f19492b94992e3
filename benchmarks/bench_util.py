"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or analytic claims.
Besides timing the underlying computation with pytest-benchmark, each
benchmark renders the reproduced rows as an ASCII table.  The committed
evidence under ``benchmarks/results/`` (the numbers quoted in the docs,
and what ``scripts/check_bench_regression.py`` guards) is rewritten only
when ``REPRO_BENCH_RECORD=1`` is set::

    REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest benchmarks -q

Otherwise the tables go to a temporary directory, so a plain test run
still executes every benchmark assertion but leaves the checkout clean.
"""

from __future__ import annotations

import atexit
import os
import shutil
import tempfile
from typing import Mapping, Optional, Sequence

from repro.reporting import render_table, write_csv

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: Set to ``1`` to rewrite the committed evidence in :data:`RESULTS_DIR`.
RECORD_ENV = "REPRO_BENCH_RECORD"

_temp_dir: Optional[str] = None


def results_dir() -> str:
    """Where tables go: the committed results when recording, else a temp dir."""
    global _temp_dir
    if os.environ.get(RECORD_ENV) == "1":
        return RESULTS_DIR
    if _temp_dir is None:
        _temp_dir = tempfile.mkdtemp(prefix="repro-bench-")
        atexit.register(shutil.rmtree, _temp_dir, ignore_errors=True)
    return _temp_dir


def save_rows(name: str, rows: Sequence[Mapping[str, object]],
              columns: Optional[Sequence[str]] = None, title: Optional[str] = None) -> str:
    """Render rows, print them, and save them under :func:`results_dir`."""
    directory = results_dir()
    os.makedirs(directory, exist_ok=True)
    text = render_table(rows, columns=columns, title=title or name)
    with open(os.path.join(directory, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    write_csv(os.path.join(directory, f"{name}.csv"), rows, columns)
    print("\n" + text)
    return text
