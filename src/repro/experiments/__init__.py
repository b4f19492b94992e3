"""Experiment harness: parallel sweeps, Monte-Carlo replication, DP caching.

This subsystem turns the library's one-off analyses into a scalable
experiment pipeline:

* :mod:`repro.experiments.grid` — declarative sweep grids (lifespan ×
  set-up cost × interrupts × scheduler × adversary) with deterministic,
  process-independent per-point seeding;
* :mod:`repro.experiments.cache` — a two-level (in-process LRU + on-disk
  ``.npz``) cache of solved ``W^(p)[L]`` tables keyed by
  ``(L, c, p, method)``;
* :mod:`repro.experiments.montecarlo` — N-replication statistics over the
  stochastic owners and randomized scenario families;
* :mod:`repro.experiments.orchestrator` — the per-point evaluator and
  :func:`run_sweep`, which fans a grid out through the run store's point
  pool; exposed on the CLI as ``cycle-stealing sweep``.
"""

from .cache import (
    CacheStats,
    DPTableCache,
    cached_solve,
    configure_shared_cache,
    shared_cache,
)
from .grid import (
    SweepGrid,
    SweepPoint,
    adversary_names,
    make_adversary,
    make_scheduler,
    point_seed,
    scheduler_names,
)
from .montecarlo import BACKENDS, aggregate, replicate_point, replicate_scenario
from .orchestrator import ExperimentConfig, run_sweep

__all__ = [
    "CacheStats",
    "DPTableCache",
    "cached_solve",
    "configure_shared_cache",
    "shared_cache",
    "SweepGrid",
    "SweepPoint",
    "point_seed",
    "make_scheduler",
    "make_adversary",
    "scheduler_names",
    "adversary_names",
    "BACKENDS",
    "aggregate",
    "replicate_point",
    "replicate_scenario",
    "ExperimentConfig",
    "run_sweep",
]
