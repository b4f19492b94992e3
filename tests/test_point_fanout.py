"""The one point fan-out shared by ``run_sweep`` and ``run_spec``.

Both drivers evaluate their points through ``repro.runstore._execute_points``:
the pool blocks through ``repro.runstore.wait``, sweep DP tables are
published through ``orchestrator.publish_shared_tables`` under one rule,
and the first failing point cancels every point that has not started.
Large grids go out in a bounded number of futures.
"""

from concurrent.futures import ProcessPoolExecutor

import pytest

import repro.runstore as runstore
from repro.experiments import SweepGrid, orchestrator, run_sweep
from repro.experiments.cache import SharedTablePublisher
from repro.runstore import Run, resume_run, run_spec
from repro.specs import parse_spec

GRID = SweepGrid(lifespans=(120.0, 160.0), setup_costs=(1.0,),
                 interrupt_budgets=(1, 2),
                 schedulers=("equalizing-adaptive", "dp-optimal"))

SPEC = parse_spec({
    "experiment": {"name": "fanout", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [120, 160], "setup_costs": [1],
              "interrupts": [1, 2],
              "schedulers": ["equalizing-adaptive", "dp-optimal"],
              "optimal": True},
}, source="inline")

#: A 20-point dp-optimal sweep whose point 0 cannot be solved (the DP
#: needs an integer lifespan); every other point is valid.
FAILING_SPEC = parse_spec({
    "experiment": {"name": "fails-first", "kind": "sweep", "seed": 0,
                   "replications": 0},
    "sweep": {"lifespans": [100.5] + list(range(101, 120)),
              "setup_costs": [1], "interrupts": [1],
              "schedulers": ["dp-optimal"]},
}, source="inline")


@pytest.fixture
def calls(monkeypatch):
    """Count pool waits and table publications while forwarding both."""
    counts = {"wait": 0, "publish": 0}
    real_wait = runstore.wait
    real_publish = orchestrator.publish_shared_tables

    def counting_wait(*args, **kwargs):
        counts["wait"] += 1
        return real_wait(*args, **kwargs)

    def counting_publish(*args, **kwargs):
        counts["publish"] += 1
        return real_publish(*args, **kwargs)

    monkeypatch.setattr(runstore, "wait", counting_wait)
    monkeypatch.setattr(orchestrator, "publish_shared_tables", counting_publish)
    return counts


class TestOnePath:
    def test_run_sweep_blocks_and_publishes_through_the_run_store(self, calls):
        run_sweep(GRID, jobs=2, include_optimal=True)
        assert calls["wait"] > 0
        assert calls["publish"] == 1

    def test_run_spec_blocks_and_publishes_through_the_same_names(
            self, calls, tmp_path):
        run = run_spec(SPEC, runs_dir=tmp_path, run_id="pooled", jobs=2)
        assert run.status == "complete"
        assert calls["wait"] > 0
        assert calls["publish"] == 1

    def test_serial_and_single_point_runs_do_not_publish(self, calls, tmp_path):
        run_sweep(GRID, jobs=1, include_optimal=True)
        run_spec(SPEC, runs_dir=tmp_path, run_id="serial", jobs=1)
        single = SweepGrid(lifespans=(120.0,), setup_costs=(1.0,),
                           interrupt_budgets=(1,), schedulers=("dp-optimal",))
        run_sweep(single, jobs=2)
        assert calls == {"wait": 0, "publish": 0}

    def test_external_publisher_publishes_even_in_process(self, calls, tmp_path):
        with SharedTablePublisher() as publisher:
            run_spec(SPEC, runs_dir=tmp_path, run_id="service", jobs=1,
                     publisher=publisher)
            assert calls == {"wait": 0, "publish": 1}
            assert publisher.handles  # still open: the caller owns it


class TestChunking:
    def test_large_grid_goes_out_in_bounded_futures(self, monkeypatch):
        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(len(args[1]))
                return super().submit(*args, **kwargs)

        grid = SweepGrid(lifespans=tuple(float(u) for u in range(100, 300)),
                         schedulers=("rosenberg-nonadaptive",))
        serial = run_sweep(grid, jobs=1)
        monkeypatch.setattr(runstore, "ProcessPoolExecutor", RecordingPool)
        assert run_sweep(grid, jobs=2) == serial
        # 200 points over 2 workers: contiguous chunks, every point once.
        assert len(submitted) <= 2 * runstore._FUTURES_PER_WORKER
        assert sum(submitted) == 200 and max(submitted) > 1


class TestFailFast:
    def test_pooled_failure_cancels_points_not_yet_started(
            self, monkeypatch, tmp_path):
        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                future = super().submit(*args, **kwargs)
                submitted.append(future)
                return future

        monkeypatch.setattr(runstore, "ProcessPoolExecutor", RecordingPool)
        # Every point sleeps first, so the failure of point 0 is seen while
        # most of the other 19 are still queued.
        monkeypatch.setenv("REPRO_TEST_POINT_DELAY", "0.1")
        with pytest.raises(ValueError, match="integer-valued"):
            run_spec(FAILING_SPEC, runs_dir=tmp_path, run_id="pooled", jobs=2)
        assert len(submitted) == 20
        evaluated = [f for f in submitted if not f.cancelled()]
        assert len(evaluated) < 10
        shards = runstore.RunStore(tmp_path).open("pooled").completed_points()
        assert 0 not in shards and len(shards) < 10

    def test_finished_rows_survive_a_sink_failure_and_resume_identically(
            self, monkeypatch, tmp_path):
        real_write = Run.write_point
        written = []

        def failing_write(self, index, row):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(index)
            return real_write(self, index, row)

        monkeypatch.setattr(Run, "write_point", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run_spec(SPEC, runs_dir=tmp_path / "a", run_id="r", jobs=2)
        monkeypatch.setattr(Run, "write_point", real_write)
        partial = runstore.RunStore(tmp_path / "a").open("r")
        assert partial.completed_points() == set(written)

        resumed = resume_run("r", runs_dir=tmp_path / "a", jobs=2)
        fresh = run_spec(SPEC, runs_dir=tmp_path / "b", run_id="r", jobs=1)
        assert resumed.status == fresh.status == "complete"
        assert resumed.content_digest() == fresh.content_digest()
        assert resumed.rows() == fresh.rows()
