"""Shared helpers of the benchmark's own tests (see ``perfbench/README.md``)."""

import argparse
import os
import sys
import time

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(TESTS_DIR)
REPO_ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(REPO_ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402  (perfbench/run.py, importable once BENCH_DIR is on the path)


def workload_process(workload: str, workdir: str, *, seed: int = 5,
                     seconds: float = 2.0, trace: int = 0) -> dict:
    """Start one workload process the way ``run.py`` does; return its raw result."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=trace)
    os.makedirs(workdir, exist_ok=True)
    return run._child(args, os.fspath(workdir), False, time.monotonic() + 170.0)
