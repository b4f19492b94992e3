"""The benchmark's four workloads: inputs from the seed, one op, its check.

Every workload is a closed loop driven by one client: the next op starts
only after the previous one returned and was checked.

* ``gap-sweep`` runs ``specs/guideline-gap.toml`` (60 analytic points: DP
  optima, exact referees, shard writes, consolidation, the gap report).
* ``mc-sweep`` runs ``specs/poisson-sweep.json`` and then
  ``specs/fleet.toml`` in one op (Monte-Carlo, the batch simulator,
  scenario building), ``jobs=1``.
* ``parallel-sweep`` is the ``mc-sweep`` op with ``jobs=2``: the process
  pool, shared-memory DP publication and parent-side persistence.
* ``store-read`` reads a store of about 40 small runs through the catalog
  and the run store; it writes nothing and solves nothing.

A run op is one cold ``repro run`` minus interpreter start: a fresh
process-wide DP cache, ``run_spec`` into an empty runs directory, then
``refresh_run_report``.  Its check compares each run's
``content_digest()`` with the digests pinned in ``pins.json`` for the
seed's input variant; ``parallel-sweep`` is held to ``mc-sweep``'s pins.
"""

import dataclasses
import json
import os
import random
import shutil
from typing import Any, Dict, List

from repro.catalog import PROVENANCE_COLUMNS, Catalog
from repro.experiments import cache as dp_cache
from repro.experiments import orchestrator
from repro.reporting import report
from repro.runstore import Run, run_spec
from repro.specs import load_spec, parse_spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
PINS_PATH = os.path.join(BENCH_DIR, "pins.json")

#: The seed picks one of this many input variants (the specs' own seed).
VARIANTS = 8

#: ``fleet.toml`` runs at this many replications instead of its committed
#: 100: at 100 the mc-sweep op takes about 2 s, and a run would hold too
#: few ops to report a tail with ten ops beyond it.
FLEET_REPLICATIONS = 20


def load_pins() -> Dict[str, Any]:
    with open(PINS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def variant_of(seed: int) -> int:
    return int(seed) % VARIANTS


def reset_dp_caches() -> None:
    """Forget every solved DP table, as a fresh ``repro run`` process would."""
    dp_cache.configure_shared_cache()
    # The point evaluator keeps its own per-process cache next to the shared one.
    orchestrator._worker_caches.clear()


class RunWorkload:
    """``run_spec`` + ``refresh_run_report`` for each of a list of specs."""

    def __init__(self, specs: list, jobs: int, pinned_as: str, variant: int,
                 workdir: str) -> None:
        self.specs = specs
        self.jobs = jobs
        self.pinned_as = pinned_as
        self.variant = variant
        self.workdir = workdir
        self._ops = 0

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.expected = load_pins()["digests"][self.pinned_as][str(self.variant)]

    def prepare(self) -> str:
        """Untimed: fresh caches and an empty runs directory for the next op."""
        reset_dp_caches()
        self._ops += 1
        runs_dir = os.path.join(self.workdir, f"op-{self._ops}")
        shutil.rmtree(runs_dir, ignore_errors=True)
        return runs_dir

    def op(self, runs_dir: str) -> list:
        runs = []
        for spec in self.specs:
            run = run_spec(spec, runs_dir=runs_dir, jobs=self.jobs)
            report.refresh_run_report(run)
            runs.append(run)
        return runs

    @staticmethod
    def digests(runs: list) -> List[str]:
        return [run.content_digest() for run in runs]

    def check(self, runs: list) -> List[str]:
        """Problems with the op's output (empty when it is correct)."""
        got = self.digests(runs)
        return [] if got == self.expected else [f"run digests {got} != pinned {self.expected}"]

    def finish(self, runs_dir: str) -> None:
        shutil.rmtree(runs_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# store-read
# ----------------------------------------------------------------------
#: Sweep runs take one scheduler from each list, so every sweep run has the
#: same number of rows matching ``FRAME_WHERE`` whatever the seed.
_FRAMED = ["equalizing-adaptive", "fixed-period"]
_UNFRAMED = ["rosenberg-adaptive", "rosenberg-nonadaptive", "single-period"]
_FAMILIES = ["laptop", "desktops", "lab", "flaky"]
_TENANTS = ["tenant-a", "tenant-b"]
#: The filtered frame of every store-read op.
FRAME_WHERE = {"scheduler": _FRAMED}
#: The store holds this many sweep runs and this many scenario runs.
STORE_SWEEPS = 28
STORE_SCENARIOS = 12


def store_specs(seed: int) -> List[tuple]:
    """``(tenant, spec)`` for every run of the store-read fixture.

    The seed picks values (lifespans, schedulers, families, spec seeds);
    the store's shape (runs, points per run, runs with ``p = 2``, rows the
    filtered frame keeps) is the same for every seed, so the read mix
    costs the same whichever seed the benchmark is given.
    """
    rng = random.Random(seed)
    out = []
    for i in range(STORE_SWEEPS):
        data = {
            "experiment": {"name": f"read-sweep-{i}", "kind": "sweep",
                           "seed": rng.randrange(1000), "replications": 0},
            "sweep": {"lifespans": sorted(rng.sample([100, 150, 200, 300], 2)),
                      "setup_costs": [1],
                      "interrupts": [2, 3] if i % 2 == 0 else [1, 3],
                      "schedulers": [rng.choice(_FRAMED), rng.choice(_UNFRAMED)],
                      "optimal": i % 4 < 2},
        }
        out.append((_TENANTS[i % 2] if i % 3 == 0 else "", parse_spec(data)))
    for i in range(STORE_SCENARIOS):
        data = {
            "experiment": {"name": f"read-scenario-{i}", "kind": "scenario",
                           "seed": rng.randrange(1000), "replications": 2,
                           "backend": "batch"},
            "scenario": {"family": rng.choice(_FAMILIES),
                         "schedulers": ["equalizing-adaptive", "rosenberg-adaptive"]},
        }
        out.append((_TENANTS[i % 2] if i % 3 == 1 else "", parse_spec(data)))
    return out


class StoreReadWorkload:
    """A fixed read mix over a store built from the seed."""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.root = os.path.join(workdir, "store")

    def setup(self) -> None:
        """Build the store: every run complete, consolidated and reported."""
        shutil.rmtree(self.root, ignore_errors=True)
        self.num_points: Dict[str, int] = {}
        self.sweeps_with_p2 = 0
        for tenant, spec in store_specs(self.seed):
            run = run_spec(spec, runs_dir=os.path.join(self.root, tenant), jobs=1)
            report.refresh_run_report(run)
            self.num_points[run.root] = run.num_points
            if spec.kind == "sweep" and 2 in spec.interrupts:
                self.sweeps_with_p2 += 1
        self.report_path = run.root
        reset_dp_caches()
        Catalog(self.root).refresh(full=True)

    def prepare(self) -> None:
        return None

    def op(self, _unused=None) -> dict:
        catalog = Catalog(self.root)
        refreshed = catalog.refresh()
        found = catalog.find(kind="sweep", p=2)
        frame = catalog.frame(where=FRAME_WHERE)
        handles = catalog.find()
        sidecar_rows = [handle.rows() for handle in handles]
        shard_rows = [handle.rows(source="shards") for handle in found]
        _path, report_hit = report.refresh_run_report(Run(self.report_path))
        return {"refreshed": refreshed, "found": found, "frame": frame,
                "handles": handles, "sidecar_rows": sidecar_rows,
                "shard_rows": shard_rows, "report_hit": report_hit}

    def check(self, out: dict) -> List[str]:
        problems = []
        total = len(self.num_points)
        if out["refreshed"] != {"indexed": 0, "unchanged": total, "removed": 0,
                                "failed": 0, "total": total}:
            problems.append(f"incremental refresh re-read runs: {out['refreshed']}")
        if len(out["found"]) != self.sweeps_with_p2:
            problems.append(f"find() gave {len(out['found'])} runs, "
                            f"expected {self.sweeps_with_p2}")
        counts = {handle.path: len(rows)
                  for handle, rows in zip(out["handles"], out["sidecar_rows"])}
        if counts != self.num_points:
            problems.append("row counts differ from the runs' point counts")
        by_path = dict(zip([h.path for h in out["handles"]], out["sidecar_rows"]))
        if [by_path[h.path] for h in out["found"]] != out["shard_rows"]:
            problems.append("rows(source='shards') differ from the sidecar rows")
        wanted = [row for rows in out["sidecar_rows"] for row in rows
                  if _matches(row, FRAME_WHERE)]
        framed = [{key: value for key, value in row.items()
                   if key not in PROVENANCE_COLUMNS}
                  for row in out["frame"].to_rows()]
        if framed != wanted:
            problems.append(f"frame() ({len(framed)} rows) is not the filtered "
                            f"union of rows() ({len(wanted)} rows)")
        if not out["report_hit"]:
            problems.append("refresh_run_report missed its cache")
        return problems

    def finish(self, _unused=None) -> None:
        return None


def _matches(row: dict, where: dict) -> bool:
    return all(key in row and row[key] in values for key, values in where.items())


def make(name: str, seed: int, workdir: str):
    """The workload called ``name``, with inputs from ``seed``."""
    if name == "store-read":
        return StoreReadWorkload(seed, workdir)
    variant = variant_of(seed)

    def spec(path, **changes):
        return dataclasses.replace(load_spec(os.path.join(REPO_ROOT, path)),
                                   seed=variant, **changes)

    if name == "gap-sweep":
        return RunWorkload([spec("specs/guideline-gap.toml")], 1, name, variant, workdir)
    mc_specs = [spec("specs/poisson-sweep.json"),
                spec("specs/fleet.toml", replications=FLEET_REPLICATIONS)]
    if name == "mc-sweep":
        return RunWorkload(mc_specs, 1, "mc-sweep", variant, workdir)
    if name == "parallel-sweep":
        return RunWorkload(mc_specs, 2, "mc-sweep", variant, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("gap-sweep", "mc-sweep", "parallel-sweep", "store-read")
