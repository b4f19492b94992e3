"""The cycle-stealing game: schedulers vs. adversaries (Section 4).

The paper views a cycle-stealing opportunity as a game.  The owner of
workstation A moves first by committing to an episode-schedule for the
current residual lifespan; the owner of workstation B (the adversary) then
either lets the episode run to completion or interrupts it, nullifying the
remaining lifespan of the interrupted period's prefix and sending the game
back to A with one fewer interrupt available.

This module provides:

* :class:`AdaptiveSchedulerProtocol` / :class:`NonAdaptiveSchedulerProtocol`
  / :class:`AdversaryProtocol` — structural typing contracts implemented by
  :mod:`repro.schedules` and :mod:`repro.adversary`.
* :func:`play_adaptive` and :func:`play_nonadaptive` — referee functions
  that play one full opportunity and return a :class:`GameResult`.
* :func:`guaranteed_adaptive_work` — a memoised minimax that computes the
  *worst-case* (guaranteed) work of an adaptive scheduler exactly, by
  letting the adversary explore every period-end interrupt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from .arithmetic import DEFAULT_REL_TOL, positive_subtraction
from .exceptions import InvalidScheduleError, SchedulingError
from .params import CycleStealingParams
from .schedule import EpisodeRecord, EpisodeSchedule, OpportunitySchedule
from .work import episode_elapsed, episode_work

__all__ = [
    "AdaptiveSchedulerProtocol",
    "NonAdaptiveSchedulerProtocol",
    "AdversaryProtocol",
    "GameResult",
    "play_adaptive",
    "play_nonadaptive",
    "guaranteed_adaptive_work",
    "guaranteed_adaptive_work_reference",
]


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------
@runtime_checkable
class AdaptiveSchedulerProtocol(Protocol):
    """A scheduler that re-plans after every interrupt.

    Implementations must be deterministic functions of
    ``(residual_lifespan, interrupts_remaining, setup_cost)`` for the
    guaranteed-work evaluation to be meaningful.
    """

    def episode_schedule(self, residual_lifespan: float, interrupts_remaining: int,
                         setup_cost: float) -> EpisodeSchedule:
        """Return the episode-schedule for the given residual state."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class NonAdaptiveSchedulerProtocol(Protocol):
    """A scheduler that commits to a single schedule for the whole lifespan."""

    def opportunity_schedule(self, params: CycleStealingParams) -> EpisodeSchedule:
        """Return the single schedule used for the entire opportunity."""
        ...  # pragma: no cover - protocol


@runtime_checkable
class AdversaryProtocol(Protocol):
    """The owner of workstation B deciding where (whether) to interrupt."""

    def choose_interrupt(self, schedule: EpisodeSchedule, residual_lifespan: float,
                         interrupts_remaining: int, setup_cost: float) -> Optional[float]:
        """Return an episode-relative interrupt time, or ``None`` to abstain.

        The returned time must lie in ``[0, schedule.total_length)``.
        """
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GameResult:
    """Outcome of one played cycle-stealing opportunity."""

    #: Parameters of the opportunity that was played.
    params: CycleStealingParams
    #: Total work accomplished, the paper's ``W``.
    total_work: float
    #: Per-episode transcript.
    transcript: OpportunitySchedule

    @property
    def num_interrupts(self) -> int:
        """How many interrupts the adversary actually used."""
        return self.transcript.num_interrupts

    @property
    def num_episodes(self) -> int:
        """How many episodes were played."""
        return self.transcript.num_episodes

    @property
    def efficiency(self) -> float:
        """Fraction of the usable lifespan converted into work, ``W / U``."""
        return self.total_work / self.params.lifespan

    @property
    def loss(self) -> float:
        """Lifespan not converted into work, ``U − W``."""
        return self.params.lifespan - self.total_work


# ----------------------------------------------------------------------
# Referees
# ----------------------------------------------------------------------
def _checked_schedule(scheduler: AdaptiveSchedulerProtocol, residual: float,
                      interrupts_remaining: int, setup_cost: float) -> EpisodeSchedule:
    schedule = scheduler.episode_schedule(residual, interrupts_remaining, setup_cost)
    if not isinstance(schedule, EpisodeSchedule):
        raise SchedulingError(
            f"scheduler returned {type(schedule).__name__}, expected EpisodeSchedule"
        )
    _check_admissible(schedule, residual)
    return schedule


def _check_admissible(schedule: EpisodeSchedule, residual: float) -> None:
    """Raise :class:`SchedulingError` unless ``schedule`` fits ``residual``."""
    try:
        schedule.validate_for_lifespan(residual, require_exact=False)
    except InvalidScheduleError as exc:
        raise SchedulingError(
            f"scheduler produced an inadmissible schedule for residual {residual!r}: {exc}"
        ) from exc


def play_adaptive(scheduler: AdaptiveSchedulerProtocol,
                  adversary: AdversaryProtocol,
                  params: CycleStealingParams) -> GameResult:
    """Play one opportunity with an adaptive scheduler.

    The scheduler is consulted at the start of the opportunity and again
    after every interrupt; the adversary is consulted once per episode and
    may return ``None`` (no interrupt) or an episode-relative time.

    Interrupts returned by the adversary once its budget is exhausted are
    ignored (the referee enforces the budget).
    """
    residual = params.lifespan
    interrupts_left = params.max_interrupts
    transcript = OpportunitySchedule()
    c = params.setup_cost

    while residual > 0.0:
        schedule = _checked_schedule(scheduler, residual, interrupts_left, c)
        interrupt: Optional[float] = None
        if interrupts_left > 0:
            interrupt = adversary.choose_interrupt(schedule, residual, interrupts_left, c)
            if interrupt is not None:
                interrupt = float(interrupt)
                if not (0.0 <= interrupt < schedule.total_length):
                    raise SchedulingError(
                        f"adversary chose interrupt time {interrupt!r} outside "
                        f"[0, {schedule.total_length!r})"
                    )
        work = episode_work(schedule, c, interrupt)
        elapsed = episode_elapsed(schedule, interrupt)
        transcript.append(EpisodeRecord(
            schedule=schedule,
            residual_lifespan=residual,
            interrupts_remaining=interrupts_left,
            interrupt_time=interrupt,
            work=work,
            elapsed=elapsed,
        ))
        if interrupt is None:
            # Episode ran to completion.  Whatever lifespan the schedule did
            # not cover (schedulers may under-commit by a rounding margin)
            # is unusable without a new episode, and no new episode starts
            # without an interrupt, so the opportunity ends here.
            break
        residual -= elapsed
        interrupts_left -= 1
        if residual <= 0.0:
            break

    return GameResult(params=params,
                      total_work=transcript.total_work,
                      transcript=transcript)


def play_nonadaptive(scheduler: NonAdaptiveSchedulerProtocol,
                     adversary: AdversaryProtocol,
                     params: CycleStealingParams,
                     *, extend_final_period: bool = True) -> GameResult:
    """Play one opportunity with a non-adaptive scheduler.

    The scheduler commits to a single schedule covering the lifespan.  After
    an interrupt in period ``i`` the owner of A obliviously continues with
    the tail ``t_{i+1}, ...``; after the ``p``-th interrupt the remainder of
    the lifespan is executed as one long period (the exception spelled out
    in Section 2.2).  The adversary is consulted before each remaining
    stretch with the tail it is facing.
    """
    base = scheduler.opportunity_schedule(params)
    if not isinstance(base, EpisodeSchedule):
        raise SchedulingError(
            f"scheduler returned {type(base).__name__}, expected EpisodeSchedule"
        )
    base.validate_for_lifespan(params.lifespan, require_exact=False)

    c = params.setup_cost
    lifespan = params.lifespan
    transcript = OpportunitySchedule()
    clock = 0.0
    interrupts_left = params.max_interrupts
    tail: Optional[EpisodeSchedule] = base

    while clock < lifespan:
        remaining = lifespan - clock
        if interrupts_left == 0 and params.max_interrupts > 0 and transcript.num_interrupts > 0:
            current = EpisodeSchedule.single_period(remaining)
        elif tail is None:
            if not extend_final_period:
                break
            current = EpisodeSchedule.single_period(remaining)
        else:
            current = tail.truncated_to(remaining)
            if current is None:
                break
            if extend_final_period and current.total_length < remaining:
                current = current.with_appended(remaining - current.total_length)

        interrupt: Optional[float] = None
        if interrupts_left > 0:
            interrupt = adversary.choose_interrupt(current, remaining, interrupts_left, c)
            if interrupt is not None:
                interrupt = float(interrupt)
                if not (0.0 <= interrupt < current.total_length):
                    raise SchedulingError(
                        f"adversary chose interrupt time {interrupt!r} outside "
                        f"[0, {current.total_length!r})"
                    )

        work = episode_work(current, c, interrupt)
        elapsed = episode_elapsed(current, interrupt)
        transcript.append(EpisodeRecord(
            schedule=current,
            residual_lifespan=remaining,
            interrupts_remaining=interrupts_left,
            interrupt_time=interrupt,
            work=work,
            elapsed=elapsed,
        ))
        if interrupt is None:
            break
        # Oblivious continuation: drop every period that has already begun
        # (completed or killed) and keep the rest.
        k = current.period_containing(min(interrupt, current.total_length * (1 - 1e-15))) \
            if current.total_length > 0 else 1
        tail = current.tail_from(k + 1)
        clock += elapsed
        interrupts_left -= 1

    return GameResult(params=params,
                      total_work=transcript.total_work,
                      transcript=transcript)


# ----------------------------------------------------------------------
# Exact guaranteed work of an adaptive scheduler (minimax referees)
# ----------------------------------------------------------------------
def guaranteed_adaptive_work_reference(scheduler: AdaptiveSchedulerProtocol,
                                       params: CycleStealingParams,
                                       *, residual_grain: float = 1e-6) -> float:
    """Exact worst-case work of an adaptive scheduler (recursive reference).

    Plays the minimax game: for the schedule the scheduler emits at each
    ``(residual lifespan, interrupts remaining)`` state, the adversary tries
    "no interrupt" and "interrupt at the last instant of period k" for every
    ``k`` (Observation (a): last instants dominate all other interrupt
    placements).  States are memoised on the residual lifespan rounded to
    ``residual_grain`` to keep the recursion polynomial; schedulers built
    from closed-form formulas revisit the same residuals constantly, so the
    memoisation is highly effective.

    This is the readable recursive formulation and the test oracle; the
    production referee is the level-batched :func:`guaranteed_adaptive_work`,
    which the property tests pin to this one bit for bit.
    """
    c = params.setup_cost
    memo: Dict[Tuple[int, int], float] = {}

    def key(residual: float, p: int) -> Tuple[int, int]:
        return (int(round(residual / residual_grain)), p)

    def value(residual: float, p: int) -> float:
        if residual <= 0.0:
            return 0.0
        if p == 0:
            # Adversary is out of interrupts: scheduler gets the residual
            # uninterrupted.  Every sensible scheduler uses one long period,
            # but we honour whatever it returns.
            schedule = _checked_schedule(scheduler, residual, 0, c)
            return schedule.work_if_uninterrupted(c)
        k = key(residual, p)
        if k in memo:
            return memo[k]
        schedule = _checked_schedule(scheduler, residual, p, c)
        # Option: no interrupt.
        best_for_adversary = schedule.work_if_uninterrupted(c)
        # Options: interrupt at the last instant of period j.
        finishes = schedule.finish_times
        prefix_work = 0.0
        for j in range(1, schedule.num_periods + 1):
            continuation = value(residual - float(finishes[j - 1]), p - 1)
            candidate = prefix_work + continuation
            if candidate < best_for_adversary:
                best_for_adversary = candidate
            prefix_work += positive_subtraction(schedule[j - 1], c)
        memo[k] = best_for_adversary
        return best_for_adversary

    return value(params.lifespan, params.max_interrupts)


#: Cells (rows × widest row) of one transient padded block in the
#: referee's prefix-sum pass: 8 Ki float64 cells, 64 KiB per block.
_PREFIX_BLOCK_CELLS = 1 << 13

#: Longest row numpy's pairwise summation adds as one unrolled block.
_PAIRWISE_BLOCK = 128


def _level_rows(scheduler: AdaptiveSchedulerProtocol, residuals: np.ndarray,
                p: int, c: float) -> Tuple[np.ndarray, ...]:
    """The schedules of one lattice level, flat and ragged.

    Returns ``(periods, counts, starts, works)``: row ``i`` holds the
    ``counts[i]`` periods of residual ``i``'s schedule at ``starts[i]``
    onwards, and ``works[i]`` is that schedule's work if uninterrupted.

    Schedulers exposing ``episode_schedule_batch`` (the guideline and
    fixed-period schedulers share their construction across a batch)
    build the whole level in one call.  Every schedule passes the checks
    of :func:`_checked_schedule`, admissibility in one array pass.
    """
    build = getattr(scheduler, "episode_schedule_batch", None)
    if build is not None:
        schedules = list(build(residuals.tolist(), p, c))
    else:
        schedules = [scheduler.episode_schedule(residual, p, c)
                     for residual in residuals.tolist()]
    for schedule in schedules:
        if not isinstance(schedule, EpisodeSchedule):
            raise SchedulingError(
                f"scheduler returned {type(schedule).__name__}, "
                "expected EpisodeSchedule")
    periods = [schedule.periods for schedule in schedules]
    counts = np.fromiter(map(len, periods), dtype=np.intp, count=len(periods))
    starts = np.zeros(counts.size, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    flat = np.concatenate(periods)
    del periods
    totals, works = _row_sums(flat, counts, starts, c)
    # validate_for_lifespan(require_exact=False), elementwise: a schedule
    # may not exceed its residual beyond is_close's tolerances.
    tolerance = np.maximum(
        DEFAULT_REL_TOL * np.maximum(np.abs(totals), np.abs(residuals)), 1e-6)
    for i in np.flatnonzero((totals > residuals)
                            & ~(np.abs(totals - residuals) <= tolerance)).tolist():
        _check_admissible(schedules[i], float(residuals[i]))
    return flat, counts, starts, works


def _padded_rows(flat: np.ndarray, starts: np.ndarray,
                 counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Rows ``flat[starts[i]:starts[i] + counts[i]]`` as one zero-padded
    C-contiguous 2-D block, and the mask of its real cells."""
    column = np.arange(int(counts.max()))
    cells = column < counts[:, None]
    index = np.minimum(starts[:, None] + column, flat.size - 1)
    return np.where(cells, flat[index], 0.0), cells


def _row_sums(flat: np.ndarray, counts: np.ndarray, starts: np.ndarray,
              c: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row sums of the periods and of their works ``t ⊖ c``,
    bit-identical to ``schedule.total_length`` and
    ``schedule.work_if_uninterrupted(c)``, i.e. to a 1-D ``.sum()``.

    numpy's pairwise summation partitions a row by its length, so rows
    are summed as ``sum(axis=1)`` over zero-padded blocks of rows that
    share that partition (a row-wise sum of a C-contiguous block runs the
    same pairwise kernel per row).  Up to ``_PAIRWISE_BLOCK`` values, the
    kernel adds eight accumulators over the first ``8 * (m // 8)`` values
    and then the other ``m % 8`` one by one; trailing zeros that leave
    ``m // 8`` unchanged only lengthen that sequential tail, and adding
    ``0.0`` to a non-negative sum is exact.  So such rows group by
    ``m // 8``; longer rows, which the kernel splits recursively by
    length, group by ``m``.  ``np.add.reduceat`` is no substitute: it
    sums sequentially.
    """
    totals = np.empty(counts.size)
    works = np.empty(counts.size)
    layouts: Dict[int, List[int]] = {}
    for row, count in enumerate(counts.tolist()):
        layout = count // 8 if count <= _PAIRWISE_BLOCK else count
        layouts.setdefault(layout, []).append(row)
    for members in layouts.values():
        block, _ = _padded_rows(flat, starts[members], counts[members])
        totals[members] = block.sum(axis=1)
        # period_work_array, elementwise; padding stays 0.0 (c >= 0).
        np.maximum(block - c, 0.0, out=block)
        works[members] = block.sum(axis=1)
    return totals, works


def _prefix_pass(residuals: np.ndarray, flat: np.ndarray, counts: np.ndarray,
                 starts: np.ndarray, c: float) -> Tuple[np.ndarray, np.ndarray]:
    """Flat child residuals and prefix works of a level's rows.

    ``children`` is each row's residual minus its period finish times
    (the residual after an interrupt at each period's last instant) and
    ``prefix`` the work banked before each period.  Both rest on per-row
    prefix sums, bit-identical to a 1-D ``np.cumsum`` of every row: a
    cumulative sum is sequential, so it is the same in a zero-padded 2-D
    block as alone.  The padded blocks exist only transiently, one
    bounded chunk of rows at a time.
    """
    children = np.empty_like(flat)
    prefix = np.empty_like(flat)
    step = max(1, _PREFIX_BLOCK_CELLS // int(counts.max()))
    for lo in range(0, counts.size, step):
        rows = slice(lo, lo + step)
        block, cells = _padded_rows(flat, starts[rows], counts[rows])
        span = slice(int(starts[lo]), int(starts[lo]) + int(counts[rows].sum()))
        children[span] = (residuals[rows, None] - np.cumsum(block, axis=1))[cells]
        # Works shifted one column right behind a leading 0.0: the
        # cumulative sum at period j is the work banked before it
        # (0.0 + w is exactly w); the padding's work is 0.0 (c >= 0).
        works = np.maximum(block - c, 0.0)
        block[:, 0] = 0.0
        block[:, 1:] = works[:, :-1]
        prefix[span] = np.cumsum(block, axis=1)[cells]
    return children, prefix


def guaranteed_adaptive_work(scheduler: AdaptiveSchedulerProtocol,
                             params: CycleStealingParams,
                             *, residual_grain: float = 1e-6) -> float:
    """Exact worst-case work of an adaptive scheduler (level-batched kernel).

    Bit-identical to :func:`guaranteed_adaptive_work_reference` — the same
    minimax game over the same memoised state lattice — but evaluated in
    one array pass per lattice *level* instead of per-state recursion:

    * all states with ``q`` interrupts remaining sit on level ``q``, and
      every adversary option from level ``q`` lands on level ``q − 1``, so
      one downward discovery sweep followed by one upward evaluation sweep
      visits each level exactly once;
    * **discovery** builds every schedule of a level through one
      ``episode_schedule_batch`` call (when the scheduler provides it) and
      keeps the level flat and ragged: each period's prefix work and the
      child residual after its last instant, with row offsets per state.
      Prefix sums come from ``cumsum(axis=1)`` over zero-padded row
      blocks — the same sequential accumulation as a per-row 1-D
      ``cumsum``, hence bit-identical — and the work if uninterrupted
      from row sums over rows grouped by period count, since numpy's
      pairwise summation depends on the row length (see
      :func:`_row_sums`);
    * **dedup** is one stable ``argsort`` over the alive children's keys,
      restored to first-reach order, exactly like the reference memo:
      levels ``q >= 1`` key on the residual rounded to ``residual_grain``
      (keeping the first-reached representative, which the level order
      reaches in the reference's depth-first order), level ``0`` on the
      exact residual (the reference never memoises ``p = 0``).  It maps
      every child to its state's index on the level below, so evaluation
      needs no lookup;
    * **evaluation** of a level is one gather of the continuation values
      from the level below, one add of the prefix works and one
      ``np.minimum.reduceat`` over the rows (``min`` is order-free, so
      exact), against "no interrupt" as the adversary's baseline.

    Memory stays flat per level: only the prefix works, child indices,
    row offsets and uninterrupted works survive discovery; schedules and
    every other temporary are freed as each level is done, and the padded
    blocks are bounded by ``_PREFIX_BLOCK_CELLS``.  (The dedup is written
    out rather than ``np.unique(..., return_inverse=True)``, which copies
    its input and holds about five more level-sized arrays at once; this
    one holds at most three.)  On gap sweeps over the guideline schedulers
    this kernel is an order of magnitude faster than the reference (see
    ``benchmarks/results/referee_speedup.*``).
    """
    c = params.setup_cost
    p_max = params.max_interrupts
    lifespan = params.lifespan
    if lifespan <= 0.0:
        return 0.0

    # Phase 1: discover the lattice downwards.  levels keeps, from level
    # p_max down, (prefix works, child indices into the level below, row
    # starts, uninterrupted works) of every state on that level.
    levels: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    residuals = np.array([lifespan])
    for q in range(p_max, 0, -1):
        flat, counts, starts, works = _level_rows(scheduler, residuals, q, c)
        children, prefix = _prefix_pass(residuals, flat, counts, starts, c)
        del flat
        alive = children > 0.0
        survivors = children[alive]
        del children
        # The reference memo's keys: the exact residual on level 0, the
        # residual rounded to residual_grain above it (rint values compared
        # as floats are the same classes as the rounded integers).
        if q == 1:
            keys = survivors
        else:
            keys = survivors / residual_grain
            np.rint(keys, out=keys)
        # A stable argsort lists each class's first occurrence first.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        fresh = np.empty(keys.size, dtype=bool)
        fresh[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        del keys
        first = order[fresh]
        group = np.cumsum(fresh)
        group -= 1
        del fresh
        # Restore first-reach order: the level below lists its states as
        # the reference's recursion first reaches them.
        reach = np.argsort(first, kind="stable")
        residuals = survivors[first[reach]]
        del survivors, first
        rank = np.empty_like(reach)
        rank[reach] = np.arange(reach.size)
        ranked = rank[group]
        group[order] = ranked  # group now maps each child to its state
        del order, ranked, rank
        # Dead children gather the appended 0.0 continuation.
        index = np.full(alive.size, reach.size, dtype=np.intp)
        index[alive] = group
        levels.append((prefix, index, starts, works))
        del alive, group, reach
        if residuals.size == 0:  # no state survives: every level below is empty
            break

    # Phase 2: evaluate upwards from the deepest level reached (level 0:
    # the exact residuals, played out uninterrupted).
    values = (_level_rows(scheduler, residuals, 0, c)[3] if residuals.size
              else np.empty(0))
    for prefix, index, starts, works in reversed(levels):
        candidates = prefix + np.append(values, 0.0)[index]
        values = np.minimum(works, np.minimum.reduceat(candidates, starts))
    return float(values[0])
