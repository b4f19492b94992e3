"""Layer spans and counts for the traced run, recorded from outside ``src/``.

The traced run wraps the public functions at each layer boundary of
``repro`` for the duration of one op and restores them afterwards.  A
wrapper is installed where the *caller* looks the function up: a module
that did ``from x import f`` holds its own binding, so patching ``x.f``
would never fire there.  Methods are patched on their class, which every
caller shares.

Each span records its name, start, end, parent span and op id; spans stay
in memory and are reduced to per-op layer totals when the run ends.  A
layer's self time is its span minus the time its child spans cover.
Counts are recorded at the same call boundaries.

Work done inside pool worker processes (``parallel-sweep``) is not
traced; on that workload the parent sees it as ``executor.wait``.
"""

import collections
import contextlib
import functools
import importlib
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

#: Span names whose per-op self time is reported, and the metric name.
SELF_TIME_METRICS = {
    "dp.solve": "dp.solve_s",
    "analysis.referee": "analysis.referee_s",
    "experiments.montecarlo": "experiments.montecarlo.self_s",
    "simulator.batch": "simulator.batch_s",
    "workloads.scenario": "workloads.scenario_s",
    "experiments.orchestrator.publish": "experiments.orchestrator.publish_s",
    "executor.wait": "executor.wait_s",
    "runstore.create": "runstore.create_s",
    "runstore.write": "runstore.write_s",
    "runstore.consolidate": "runstore.consolidate_s",
    "runstore.read": "runstore.read_s",
    "catalog.refresh": "catalog.refresh_s",
    "catalog.find": "catalog.find_s",
    "catalog.frame": "catalog.frame_s",
    "specs.expand": "specs.expand_s",
    "reporting.render": "reporting.render_s",
}

#: Per-op counts that are a pure function of the workload and seed.
DETERMINISTIC_COUNTS = (
    "dp.solves", "analysis.referee_calls", "experiments.montecarlo.replications",
    "experiments.montecarlo.chunks", "simulator.batch_calls",
    "workloads.scenarios_built", "registry.creates", "core.episode_schedules",
    "core.rng_spawns", "executor.tables_published", "runstore.shards_written",
    "runstore.shard_bytes", "runstore.shard_reads", "runstore.rows_read",
    "catalog.rows_framed", "catalog.runs_reextracted", "specs.points",
)

OP_SPAN = "op"


class Recorder:
    """In-memory spans and per-op counts of one traced run."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op id]`` per span.
        self.spans: List[list] = []
        self.counts: Dict[int, collections.Counter] = \
            collections.defaultdict(collections.Counter)
        self.op_id = -1
        self._stack: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.op_id][name] += amount

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Bracket one op: the root span every layer span nests under."""
        self.op_id = op_id
        index = self.begin(OP_SPAN)
        try:
            yield
        finally:
            self.end(index)

    # -- reduction -----------------------------------------------------
    def per_op(self) -> Dict[int, Dict[str, float]]:
        """``{op id: {span name: self seconds, "op": wall, "covered": s}}``.

        ``covered`` is the time the op's direct child spans cover, so
        ``1 - covered / op`` is the share of the op no layer accounts for.
        """
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[int, Dict[str, float]] = \
            collections.defaultdict(lambda: collections.defaultdict(float))
        for index, (name, start, end, parent, op_id) in enumerate(self.spans):
            if name == OP_SPAN:
                out[op_id][OP_SPAN] += end - start
                out[op_id]["covered"] += child_time[index]
            else:
                out[op_id][name] += end - start - child_time[index]
        return out


def _spanned(recorder: Recorder, name: str, func: Callable,
             counter: Optional[Callable] = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = func(*args, **kwargs)
        finally:
            recorder.end(index)
        if counter is not None:
            counter(recorder, args, kwargs, result)
        return result
    return wrapper


def _counted(recorder: Recorder, name: str, func: Callable,
             amount: Optional[Callable] = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.count(name, 1 if amount is None else amount(args, kwargs))
        return func(*args, **kwargs)
    return wrapper


def _count_result(name: str, measure: Callable = len) -> Callable:
    def counter(recorder, _args, _kwargs, result):
        recorder.count(name, measure(result))
    return counter


def _count_calls(name: str) -> Callable:
    def counter(recorder, _args, _kwargs, _result):
        recorder.count(name)
    return counter


def _replications(recorder, args, _kwargs, _result):
    # replicate_point(point, replications, ...) / replicate_scenario(family, replications, ...)
    recorder.count("experiments.montecarlo.replications", int(args[1]))


def _report_refreshes(recorder, _args, _kwargs, result):
    _path, cache_hit = result
    recorder.count("reporting.refreshes")
    recorder.count("reporting.cache_hits", int(cache_hit))


def _cache_lookup(recorder: Recorder, func: Callable) -> Callable:
    """``DPTableCache.solve``: a lookup is a hit when nothing was solved."""
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        misses = self.stats.misses
        result = func(self, *args, **kwargs)
        recorder.count("experiments.cache.lookups")
        if self.stats.misses == misses:
            recorder.count("experiments.cache.hits")
        return result
    return wrapper


def _patch_plan(recorder: Recorder) -> List[tuple]:
    """``(owner, attribute, replacement factory)`` for every patch point."""
    runstore = importlib.import_module("repro.runstore")
    orchestrator = importlib.import_module("repro.experiments.orchestrator")
    montecarlo = importlib.import_module("repro.experiments.montecarlo")
    cache = importlib.import_module("repro.experiments.cache")
    batch = importlib.import_module("repro.simulator.batch")
    report = importlib.import_module("repro.reporting.report")
    registry = importlib.import_module("repro.registry")
    schedule = importlib.import_module("repro.core.schedule")
    catalog = importlib.import_module("repro.catalog.index")
    Run, RunStore = runstore.Run, runstore.RunStore
    rec = recorder

    def span(name, counter=None):
        return lambda func: _spanned(rec, name, func, counter)

    def count(name, amount=None):
        return lambda func: _counted(rec, name, func, amount)

    plan = [
        # specs and run-store writes (the caller is runstore.run_spec)
        (runstore, "expand_payloads", span("specs.expand", _count_result("specs.points"))),
        (RunStore, "create", span("runstore.create")),
        (Run, "write_point", span("runstore.write", _count_calls("runstore.shards_written"))),
        (runstore, "write_shard_bytes",
         count("runstore.shard_bytes", lambda args, kwargs: len(args[1]))),
        (Run, "consolidate_columns", span("runstore.consolidate")),
        (runstore, "read_row_shard", count("runstore.shard_reads")),
        # run-store reads (Run.rows / Run.columns also serve the catalog)
        (Run, "rows", span("runstore.read", _count_result("runstore.rows_read"))),
        (Run, "columns", span("runstore.read", _count_result("runstore.rows_read"))),
        # DP and referee (called from the point evaluator)
        (cache, "solve", span("dp.solve", _count_calls("dp.solves"))),
        (cache.DPTableCache, "solve", lambda func: _cache_lookup(rec, func)),
        (orchestrator, "measure_guaranteed_work",
         span("analysis.referee", _count_calls("analysis.referee_calls"))),
        # Monte-Carlo, simulator, workloads, registry and core
        (orchestrator, "replicate_point", span("experiments.montecarlo", _replications)),
        (montecarlo, "replicate_scenario", span("experiments.montecarlo", _replications)),
        (montecarlo, "_record_chunk", count("experiments.montecarlo.chunks")),
        (batch, "simulate_scenarios_batch",
         span("simulator.batch", _count_calls("simulator.batch_calls"))),
        (registry.Registry, "create", count("registry.creates")),
        (schedule.EpisodeSchedule, "__init__", count("core.episode_schedules")),
        # fan-out (parent side of a jobs > 1 run)
        (orchestrator, "publish_shared_tables", span("experiments.orchestrator.publish")),
        (cache.SharedTablePublisher, "publish", count("executor.tables_published")),
        (runstore, "wait", span("executor.wait")),
        # reporting
        (report, "render_run_report", span("reporting.render")),
        (report, "refresh_run_report", span("reporting.refresh", _report_refreshes)),
        # catalog
        (catalog.Catalog, "refresh",
         span("catalog.refresh", _count_result("catalog.runs_reextracted",
                                               lambda stats: stats["indexed"]))),
        (catalog.Catalog, "find", span("catalog.find")),
        (catalog.Catalog, "frame", span("catalog.frame", _count_result("catalog.rows_framed"))),
    ]
    for name in ("repro.workloads.owner_activity", "repro.adversary.stochastic",
                 "repro.adversary.heuristics"):
        plan.append((importlib.import_module(name), "spawn_rng", count("core.rng_spawns")))
    return plan


class Tracer:
    """Installs the patch plan around traced ops and restores it after."""

    def __init__(self) -> None:
        self.recorder = Recorder()
        self._plan = _patch_plan(self.recorder)
        self._families = importlib.import_module("repro.registry").SCENARIO_FAMILIES

    @contextlib.contextmanager
    def traced_op(self, op_id: int):
        saved = []
        families = {name: self._families[name] for name in self._families.names()}
        try:
            for owner, attribute, make in self._plan:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, make(original))
            # Scenario families are looked up in the registry per point.
            for name, family in families.items():
                self._families.register(
                    name, _spanned(self.recorder, "workloads.scenario", family,
                                   _count_calls("workloads.scenarios_built")),
                    overwrite=True)
            with self.recorder.op(op_id):
                yield
        finally:
            for name, family in families.items():
                self._families.register(name, family, overwrite=True)
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


def layer_metrics(recorder: Recorder) -> Dict[str, Any]:
    """Per-layer metric values from a traced run (medians over ops)."""
    per_op = recorder.per_op()
    op_ids = sorted(per_op)
    if not op_ids:
        raise ValueError("no traced op was recorded")

    def median_of(values):
        return float(statistics.median(values))

    metrics: Dict[str, Any] = {}
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = median_of([per_op[i].get(span_name, 0.0) for i in op_ids])
    for name in DETERMINISTIC_COUNTS:
        metrics[name] = median_of([recorder.counts[i][name] for i in op_ids])
    totals = collections.Counter()
    for i in op_ids:
        totals.update(recorder.counts[i])

    def ratio(numerator, denominator):
        return totals[numerator] / totals[denominator] if totals[denominator] else 0.0

    metrics["experiments.cache.hit_ratio"] = ratio("experiments.cache.hits",
                                                   "experiments.cache.lookups")
    metrics["reporting.cache_hit_ratio"] = ratio("reporting.cache_hits",
                                                 "reporting.refreshes")
    metrics["runstore.reread_ratio"] = ratio("runstore.shard_reads",
                                             "runstore.shards_written")
    metrics["registry.creates_per_replication"] = ratio(
        "registry.creates", "experiments.montecarlo.replications")
    metrics["trace.other_share"] = median_of(
        [1.0 - per_op[i]["covered"] / per_op[i][OP_SPAN] for i in op_ids])
    return metrics
