"""Parameter sweeps used by the benchmarks, examples and CLI.

Every sweep returns a list of plain dictionaries (one per configuration) so
the same data can be rendered as an ASCII table, written to CSV, or asserted
on in tests without any further dependencies.

These sweeps run in-process, one exact referee measurement per row.  At
the sizes the CLI uses, a single ``dp-optimal`` referee dominates the
sweep, so a process pool would only add start-up and a DP re-solve per
worker.  Process-parallel sweeps go through
:func:`repro.experiments.run_sweep` or a run spec.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional

from ..core.game import play_adaptive, play_nonadaptive
from ..core.params import CycleStealingParams
from ..dp import ValueTable
from . import bounds
from .gap import measure_guaranteed_work

__all__ = [
    "nonadaptive_guarantee_sweep",
    "adaptive_guarantee_sweep",
    "scheduler_comparison_sweep",
    "registry_comparison_sweep",
    "play_out_sweep",
]


# ----------------------------------------------------------------------
# Row builders
# ----------------------------------------------------------------------
def _nonadaptive_guarantee_row(U: float, c: float, p: int) -> Dict[str, float]:
    from ..schedules.nonadaptive import RosenbergNonAdaptiveScheduler

    scheduler = RosenbergNonAdaptiveScheduler()
    params = CycleStealingParams(lifespan=U, setup_cost=c, max_interrupts=p)
    schedule = scheduler.opportunity_schedule(params)
    measured = measure_guaranteed_work(scheduler, params, mode="nonadaptive")
    return {
        "lifespan": U,
        "setup_cost": c,
        "max_interrupts": p,
        "num_periods": schedule.num_periods,
        "measured_work": measured,
        "predicted_work": bounds.nonadaptive_guarantee(U, c, p),
        "predicted_work_paper": bounds.nonadaptive_guarantee_paper(U, c, p),
        "efficiency": measured / U,
    }


def _adaptive_guarantee_row(U: float, c: float, p: int,
                            scheduler) -> Dict[str, float]:
    if scheduler is None:
        from ..schedules.adaptive import EqualizingAdaptiveScheduler
        scheduler = EqualizingAdaptiveScheduler()
    params = CycleStealingParams(lifespan=U, setup_cost=c, max_interrupts=p)
    measured = measure_guaranteed_work(scheduler, params, mode="adaptive")
    first_episode = scheduler.episode_schedule(U, p, c)
    return {
        "lifespan": U,
        "setup_cost": c,
        "max_interrupts": p,
        "num_periods": first_episode.num_periods,
        "measured_work": measured,
        "theorem51_bound": bounds.adaptive_guarantee(U, c, p),
        "loss_coefficient": bounds.adaptive_loss_coefficient(p),
        "efficiency": measured / U,
    }


def _comparison_row(label: str, scheduler, params: CycleStealingParams,
                    dp_table: Optional[ValueTable]) -> Dict[str, object]:
    work = measure_guaranteed_work(scheduler, params)
    row: Dict[str, object] = {
        "scheduler": label,
        "lifespan": params.lifespan,
        "setup_cost": params.setup_cost,
        "max_interrupts": params.max_interrupts,
        "guaranteed_work": work,
        "efficiency": work / params.lifespan,
    }
    if dp_table is not None:
        optimal = dp_table.value(
            min(params.max_interrupts, dp_table.max_interrupts),
            int(params.lifespan))
        row["optimal_work"] = float(optimal)
        row["gap"] = float(optimal) - work
    return row


def _registry_comparison_row(name: str, params: CycleStealingParams,
                             dp_table: Optional[ValueTable]
                             ) -> Dict[str, object]:
    from ..experiments.grid import make_scheduler

    if name == "dp-optimal" and dp_table is not None:
        # Reuse the sweep's already-solved table instead of re-deriving it
        # through the scheduler factory's shared cache.
        from ..schedules import DPOptimalScheduler
        scheduler = DPOptimalScheduler(dp_table)
    else:
        scheduler = make_scheduler(name, params)
    return _comparison_row(name, scheduler, params, dp_table)


# ----------------------------------------------------------------------
# Public sweeps
# ----------------------------------------------------------------------
def nonadaptive_guarantee_sweep(lifespans: Iterable[float], setup_cost: float,
                                interrupt_budgets: Iterable[int]
                                ) -> List[Dict[str, float]]:
    """Measured vs. predicted guaranteed work of the non-adaptive guideline.

    Reproduces the Section 3.1 analysis: for every ``(U, p)`` pair the
    guideline schedule is evaluated against the exact worst-case adversary
    and compared with both closed-form estimates (the derived
    ``U − 2√(pcU) + pc`` and the printed ``U − √(2pcU) + pc``).
    """
    c = float(setup_cost)
    return [_nonadaptive_guarantee_row(float(U), c, int(p))
            for p in interrupt_budgets for U in lifespans]


def adaptive_guarantee_sweep(lifespans: Iterable[float], setup_cost: float,
                             interrupt_budgets: Iterable[int],
                             *, scheduler=None) -> List[Dict[str, float]]:
    """Measured vs. Theorem 5.1 guaranteed work of an adaptive guideline."""
    c = float(setup_cost)
    return [_adaptive_guarantee_row(float(U), c, int(p), scheduler)
            for p in interrupt_budgets for U in lifespans]


def scheduler_comparison_sweep(schedulers: Mapping[str, object],
                               params_list: Iterable[CycleStealingParams],
                               dp_table: Optional[ValueTable] = None
                               ) -> List[Dict[str, object]]:
    """Guaranteed work of several schedulers across several opportunities."""
    return [_comparison_row(label, scheduler, params, dp_table)
            for params in params_list
            for label, scheduler in schedulers.items()]


def registry_comparison_sweep(scheduler_names: Iterable[str],
                              params_list: Iterable[CycleStealingParams],
                              dp_table: Optional[ValueTable] = None
                              ) -> List[Dict[str, object]]:
    """Guaranteed work of registry-named schedulers across opportunities.

    Like :func:`scheduler_comparison_sweep`, but schedulers are referenced
    by :data:`repro.registry.SCHEDULERS` name and instantiated per row, so
    anything registered downstream participates without code changes
    here.  The special name ``"dp-optimal"`` reuses ``dp_table`` when one
    is supplied.
    """
    from ..registry import SCHEDULERS

    names = list(scheduler_names)
    SCHEDULERS.validate(names, context="registry_comparison_sweep")
    return [_registry_comparison_row(name, params, dp_table)
            for params in params_list for name in names]


def play_out_sweep(schedulers: Mapping[str, object], adversaries: Mapping[str, object],
                   params: CycleStealingParams, *, adaptive: bool = True
                   ) -> List[Dict[str, object]]:
    """Play every scheduler against every adversary once and tabulate the outcomes.

    (Stateful adversaries make this sweep order-dependent by design, so it
    always runs serially; use :func:`repro.experiments.run_sweep` with
    ``replications`` for the parallel Monte-Carlo version.)
    """
    rows: List[Dict[str, object]] = []
    for sched_label, scheduler in schedulers.items():
        for adv_label, adversary in adversaries.items():
            if adaptive and hasattr(scheduler, "episode_schedule"):
                result = play_adaptive(scheduler, adversary, params)
            else:
                result = play_nonadaptive(scheduler, adversary, params)
            rows.append({
                "scheduler": sched_label,
                "adversary": adv_label,
                "work": result.total_work,
                "efficiency": result.efficiency,
                "episodes": result.num_episodes,
                "interrupts": result.num_interrupts,
            })
    return rows
