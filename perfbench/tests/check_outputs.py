"""Each workload's output check fails when the output is wrong."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import support
import workloads


def test_a_wrong_pinned_digest_fails_the_gap_sweep_op(tmp_path):
    gap = workloads.make("gap-sweep", 3, str(tmp_path))
    gap.setup()
    runs = gap.op(gap.prepare())
    assert gap.check(runs) == []
    gap.expected = ["0" * 64]
    assert gap.check(runs) != []


def test_a_changed_run_fails_the_store_read_op(tmp_path):
    store = workloads.make("store-read", 3, str(tmp_path))
    store.setup()
    assert store.check(store.op()) == []
    victim = sorted(store.num_points)[0]
    os.remove(os.path.join(victim, "points", "point-0000.npz"))
    assert store.check(store.op()) != []


@pytest.mark.parametrize("trace", [0, 1])
def test_a_wrong_pin_gives_a_result_line_with_every_op_failed(tmp_path, trace):
    """A whole benchmark run against wrong pins reports ``correct: false``.

    The benchmark is copied next to links to the program's sources and
    specs, and the copy's gap-sweep digests are replaced, so every op
    (warm-ups included) fails its check.
    """
    shutil.copytree(support.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    for name in ("src", "specs"):
        os.symlink(os.path.join(support.REPO_ROOT, name), tmp_path / name)
    pins_path = tmp_path / "perfbench" / "pins.json"
    pins = json.loads(pins_path.read_text())
    pins["digests"]["gap-sweep"] = {variant: ["0" * 64] for variant in pins["digests"]["gap-sweep"]}
    pins_path.write_text(json.dumps(pins))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gap-sweep", "--seed", "3",
         "--seconds", "2", "--trace", str(trace)],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=180, check=False)
    assert done.returncode == 0, done.stderr.decode()
    result = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is False
    assert result["attempted"] >= 2 and result["failed"] == result["attempted"]
    assert b"!= pinned" in done.stderr
