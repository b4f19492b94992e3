"""Benchmark entry point: run one workload, print one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gap-sweep --seed 1 --seconds 23 --trace 0

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics (``setup_s``, ``peak_rss_mib``, ``op_ref.p50``, ``op_ref.tail``);
with ``--trace 1`` it carries the per-layer metrics of a traced run.  The
lines before it state each op sample's size and percentile.  See
``perfbench/README.md`` for the workloads and the metrics.

The launcher itself imports nothing from ``repro``.  It starts each
workload process with ``fork`` + ``execve`` (``subprocess``), samples
set-up time in ``SETUP_SAMPLES`` processes, waits for each, and writes
only under ``.perfbench/`` in the checkout.

When an op fails its check the result line still comes, with
``correct: false``, the failed and attempted op counts, and the metrics
the run could measure.  The exit code is non-zero, with no result line,
only when the benchmark cannot run at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("gap-sweep", "mc-sweep", "parallel-sweep", "store-read")
#: Set-up is sampled this many times per run (the measuring process is one,
#: the others stop after their warm-up op and run half before it, half after).
SETUP_SAMPLES = 5
#: Every workload process must end within this many seconds of its start.
CHILD_TIMEOUT_S = 150.0
#: A workload process starts no op later than this many seconds before its timeout.
STOP_MARGIN_S = 15.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def tail(values):
    """``(value, percentile, n)``: the highest percentile with ten values above it.

    ``None`` when there are fewer than 11 values.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    return ordered[n - 11], 100.0 * (n - 11) / (n - 1), n


def _child(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_DP_CACHE_DIR", None)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = os.path.join(workdir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    started = time.monotonic()
    command = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--started", repr(started),
               "--stop-by", repr(started + timeout - STOP_MARGIN_S)]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {done.returncode}")
    return json.loads(lines[-1])


def launch(args) -> dict:
    """Run the workload's processes and return the final result object."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no repro sources under {os.path.join(REPO_ROOT, 'src')}")
    if args.seconds < 1:
        raise BenchError("--seconds must be at least 1")
    deadline = time.monotonic() + 175.0
    workdir = os.path.join(REPO_ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    probes = 0 if args.trace else SETUP_SAMPLES - 1

    def probe(i):
        return _child(args, os.path.join(workdir, f"setup-{i}"), True, deadline)

    try:
        processes = [probe(i) for i in range(probes // 2)]
        main = _child(args, os.path.join(workdir, "main"), False, deadline)
        processes += [main] + [probe(i) for i in range(probes // 2, probes)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(p["attempted"] for p in processes)
    failed = sum(p["failed"] for p in processes)
    for p in processes:
        for problem in p["problems"]:
            print(f"failed op: {problem}", file=sys.stderr)
    metrics = trace_metrics(main) if args.trace else end_to_end_metrics(args, processes, main)
    if not failed and len(metrics) < (1 if args.trace else 4):
        raise BenchError(f"too few ops passed in {args.seconds:g} s to report every metric")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trace_metrics(main: dict) -> dict:
    """Every per-layer metric; none when no traced or no untraced op passed."""
    return {name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(main.get("per_layer", {}).items())}


def end_to_end_metrics(args, processes: list, main: dict) -> dict:
    """The end-to-end metrics; ``op_ref.*`` only when enough ops passed for them."""
    metrics = {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in processes), "unit": "s"},
        "peak_rss_mib": {"value": main["peak_rss_mib"], "unit": "MiB"},
    }
    scores = main["scores"]
    if scores:
        metrics["op_ref.p50"] = {"value": statistics.median(scores), "unit": "ref"}
    found = tail(scores)
    if found is not None:
        value, percentile, n = found
        metrics["op_ref.tail"] = {"value": value, "unit": "ref"}
        print(f"{args.workload}: op_ref.p50 over {n} ops; op_ref.tail is "
              f"p{percentile:.1f} of {n} ops (10 ops beyond it); setup_s is the median "
              f"of {len(processes)} processes; reference kernel median "
              f"{1000 * statistics.median(main['refs']):.2f} ms")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_ms.p50"):
        return "ms"
    if name.endswith("_s") or name.endswith("_s.p50"):
        return "s"
    if name.endswith("ratio") or name.endswith("share") \
            or name.endswith("per_replication"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = launch(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
