"""One workload process: set up, warm up, then time ops for a fixed span.

Started by ``run.py`` (never run by hand); prints one JSON object as its
last line of standard output.  ``--setup-only`` stops after the warm-up
op and reports only the set-up time, which is how ``run.py`` samples
set-up several times per run.

Each timed op is bracketed by the reference kernel; its score is the op's
wall time divided by the mean of the kernel times just before and just
after it.  With ``--trace 1`` ops alternate between untraced and traced,
so the tracing overhead is measured within the same run.

Only ops that pass their check are scored.  While no op has failed, the
loop runs past ``--seconds`` until it has enough scores (``MIN_OPS``, or
one of each kind when tracing), but it starts no op after ``--stop-by``.
Once an op has failed the run is wrong whatever it measures, so the loop
ends at ``--seconds`` and the launcher reports ``correct: false``.
"""

import argparse
import gc
import json
import statistics
import sys
import time
import traceback

import refkernel

#: While no op has failed, a run times at least this many ops, so that the
#: tail percentile (ten ops beyond it) is p58 or higher, never the median,
#: even on the slowest op or in a slow phase of the host.
MIN_OPS = 25


def _peak_rss_mib() -> float:
    """This process's own peak resident set (``VmHWM``), in MiB.

    Not ``ru_maxrss``: on Linux that survives ``fork`` and ``execve``, so
    it would report the launcher's peak whenever the launcher is larger.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _ru_maxrss_mib() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the launcher spawned this process")
    parser.add_argument("--stop-by", type=float, required=True,
                        help="time.monotonic() after which no op is started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    if refkernel.source_sha256() != workloads.load_pins()["kernel_sha256"]:
        raise SystemExit("refkernel.py differs from its pinned sha256: changing the "
                         "reference kernel is a re-baseline (see pin.py)")
    workload = workloads.make(args.workload, args.seed, args.workdir)
    workload.setup()
    kernel = refkernel.ReferenceKernel(args.workdir)
    kernel.run()
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()

    attempted = failed = 0
    problems = []

    def run_op(op_id, traced):
        nonlocal attempted, failed
        context = workload.prepare()
        gc.collect()  # every op starts from a collected heap, as a fresh process would
        attempted += 1
        started = time.perf_counter()
        try:
            if traced:
                with tracer.traced_op(op_id):
                    out = workload.op(context)
            else:
                out = workload.op(context)
        except Exception:  # a failed op is counted, and the loop goes on
            wall = time.perf_counter() - started
            failed += 1
            problems.append(traceback.format_exc())
            workload.finish(context)
            return wall, None
        wall = time.perf_counter() - started
        return wall, (out, context)

    def settle(result):
        nonlocal failed
        if result is None:
            return False
        out, context = result
        found = workload.check(out)
        workload.finish(context)
        if found:
            failed += 1
            problems.extend(found)
        return not found

    settle(run_op(-1, False)[1])  # warm-up: counted in set-up, not timed
    setup_s = time.monotonic() - args.started
    result = {"setup_s": setup_s}
    if not args.setup_only:
        scores, traced_scores, walls = [], [], []
        before = kernel.run()
        refs = [before]
        deadline = time.perf_counter() + args.seconds

        def short_of_scores():
            if args.trace:
                return not (scores and traced_scores)
            return len(scores) < MIN_OPS

        op_id = 0
        while time.perf_counter() < deadline or (
                not failed and short_of_scores() and time.monotonic() < args.stop_by):
            traced = bool(args.trace) and op_id % 2 == 1
            wall, outcome = run_op(op_id, traced)
            after = kernel.run()
            refs.append(after)
            ref = (before + after) / 2.0
            if settle(outcome):
                (traced_scores if traced else scores).append(wall / ref)
                if not traced:
                    walls.append(wall)
            before = after
            op_id += 1
        result.update({
            "scores": scores, "walls": walls, "refs": refs,
            "peak_rss_mib": _peak_rss_mib(), "ru_maxrss_mib": _ru_maxrss_mib(),
        })
        if tracer is not None and scores and traced_scores:
            per_layer = layers.layer_metrics(tracer.recorder)
            per_layer["trace.overhead_ratio"] = (statistics.median(traced_scores)
                                                 / statistics.median(scores))
            per_layer["bench.ref_ms.p50"] = 1000.0 * statistics.median(refs)
            per_layer["bench.op_s.p50"] = statistics.median(walls)
            result["per_layer"] = per_layer
    result.update({"attempted": attempted, "failed": failed,
                   "problems": problems[:5]})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
