"""The reference kernel is pinned and does not depend on program state.

Run with ``python3 -m pytest perfbench/tests`` (the file names keep these
out of the repository's default test collection: they start workload
processes and take about a minute together).
"""

import statistics
import subprocess
import sys

import support  # noqa: F401  (puts perfbench/ and src/ on sys.path)
import refkernel
import workloads


def test_kernel_source_matches_its_pin():
    assert refkernel.source_sha256() == workloads.load_pins()["kernel_sha256"], \
        "refkernel.py changed: re-pin it with `perfbench/pin.py` as a re-baseline"


def test_kernel_never_imports_the_program(tmp_path):
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import refkernel; "
            "refkernel.ReferenceKernel(sys.argv[2]).run(); "
            "assert not [m for m in sys.modules if m.split('.')[0] == 'repro'], 'repro imported'")
    subprocess.run([sys.executable, "-c", code, support.BENCH_DIR, str(tmp_path)],
                   check=True, timeout=60)


def test_kernel_time_is_the_same_before_and_after_a_cold_gap_sweep_op(tmp_path):
    """Kernel runs around an op with a fresh DP cache agree within noise.

    Five rounds of (5 kernel runs, one op, 5 kernel runs); the median of
    the per-round after/before ratios must stay within 10% of 1.  Rounds
    are short, so a slow phase of the host mostly hits both sides.
    """
    kernel = refkernel.ReferenceKernel(str(tmp_path))
    gap = workloads.make("gap-sweep", 0, str(tmp_path))
    gap.setup()
    kernel.run()
    ratios = []
    for _ in range(5):
        before = statistics.median(kernel.run() for _ in range(5))
        runs_dir = gap.prepare()
        runs = gap.op(runs_dir)
        assert gap.check(runs) == []
        after = statistics.median(kernel.run() for _ in range(5))
        gap.finish(runs_dir)
        ratios.append(after / before)
    assert abs(statistics.median(ratios) - 1.0) < 0.10, ratios
