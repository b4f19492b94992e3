"""Traced runs: counts repeat exactly, and every layer's patch points fire."""

import pytest

import support
import layers
import workloads

#: Per workload, the layer metrics that must be non-zero because the
#: workload exercises that layer (a patch point that silently stopped
#: firing would leave one at zero).
EXERCISED = {
    "gap-sweep": ["dp.solve_s", "dp.solves", "analysis.referee_s", "analysis.referee_calls",
                  "runstore.create_s", "runstore.write_s", "runstore.shards_written",
                  "runstore.shard_bytes", "runstore.consolidate_s", "runstore.shard_reads",
                  "specs.expand_s", "specs.points", "reporting.render_s"],
    "mc-sweep": ["experiments.montecarlo.self_s", "experiments.montecarlo.replications",
                 "experiments.montecarlo.chunks", "simulator.batch_s", "simulator.batch_calls",
                 "workloads.scenario_s", "workloads.scenarios_built", "registry.creates",
                 "core.episode_schedules", "core.rng_spawns", "runstore.write_s"],
    "parallel-sweep": ["experiments.orchestrator.publish_s", "executor.tables_published",
                       "executor.wait_s", "dp.solves", "runstore.write_s"],
    "store-read": ["runstore.read_s", "runstore.rows_read", "runstore.shard_reads",
                   "catalog.refresh_s", "catalog.find_s", "catalog.frame_s",
                   "catalog.rows_framed"],
}
#: Layers a workload must not touch at all.
UNTOUCHED = {
    "gap-sweep": ["experiments.montecarlo.replications", "simulator.batch_calls",
                  "workloads.scenarios_built", "core.rng_spawns", "catalog.rows_framed"],
    "store-read": ["dp.solves", "experiments.montecarlo.replications",
                   "runstore.shards_written", "registry.creates"],
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_layers_fire(workload, tmp_path):
    first = support.workload_process(workload, tmp_path / "a", seconds=3.0, trace=1)
    second = support.workload_process(workload, tmp_path / "b", seconds=3.0, trace=1)
    for result in (first, second):
        assert result["failed"] == 0, result["problems"]
    a, b = first["per_layer"], second["per_layer"]
    assert {name: a[name] for name in layers.DETERMINISTIC_COUNTS} \
        == {name: b[name] for name in layers.DETERMINISTIC_COUNTS}
    assert [name for name in EXERCISED[workload] if not a[name] > 0] == []
    assert [name for name in UNTOUCHED.get(workload, []) if a[name] != 0] == []
    assert 0.0 <= a["trace.other_share"] < 0.2
    assert a["trace.overhead_ratio"] > 0


def test_store_read_reports_come_from_the_cache(tmp_path):
    result = support.workload_process("store-read", tmp_path, seconds=2.0, trace=1)
    assert result["per_layer"]["reporting.cache_hit_ratio"] == 1.0
