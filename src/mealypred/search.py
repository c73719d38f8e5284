"""Exhaustive search for the best bounded-state predicting automaton.

A predicting automaton reads the observed stream as its input; the bit it
emits on each step is its guess for the next observation. With the state
budget fixed in advance, every canonical machine of that size is a
candidate, and the best exact scorer against the target machines wins.

Many candidates guess alike, so a candidate is scored through its behaviour:
the states reachable from where it starts, merged by Moore partition
refinement into its minimal observation -> guess machine. Each distinct
behaviour is scored once and its score is shared by every candidate that
has it. Scoring also stops early: once ``top_n`` candidates are known, a
behaviour whose errors so far exceed the ``top_n``-th best total cannot
reach the leaderboard, and all of its candidates are skipped.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .automaton import Bits, MealyMachine, machine_id, serialize_machine
from .enumeration import CANONICAL_K_CAP, enumerate_machines
from .evaluation import (
    EXHAUSTIVE_T_CAP,
    CapExceeded,
    InconsistentTrainingData,
    _frontier_totals,
    consistency_profile,
)
from .predictors import AutomatonPredictor

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive predictor search, best first."""

    best: MealyMachine
    best_score: Fraction
    leaderboard: tuple[tuple[MealyMachine, Fraction], ...]
    search_space_size: int
    evaluated: int
    num_states: int
    horizon: int
    target_ids: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "horizon": self.horizon,
            "target_ids": list(self.target_ids),
            "search_space_size": self.search_space_size,
            "evaluated": self.evaluated,
            "best_score": f"{self.best_score.numerator}/{self.best_score.denominator}",
            "best_score_float": float(self.best_score),
            "best_machine": serialize_machine(self.best),
            "leaderboard": [
                {
                    "score": f"{score.numerator}/{score.denominator}",
                    "score_float": float(score),
                    "machine": serialize_machine(m),
                }
                for m, score in self.leaderboard
            ],
        }


def _behaviour(machine: MealyMachine, state: int, pending: int) -> tuple:
    """Key of the guesses an automaton predictor makes from ``(state, pending)``.

    The states reachable from ``state`` are merged by partition refinement
    and the merged classes are numbered in breadth-first order from
    ``state``'s class. Two keys are equal exactly when the predictors make
    the same guess after every observed prefix, so they score alike against
    any target.
    """
    trans, out = machine.transition, machine.output
    reach = [state]
    for s in reach:
        for n in trans[s]:
            if n not in reach:
                reach.append(n)
    block: dict = {s: out[s] for s in reach}
    classes = len(set(block.values()))
    while True:
        ids: dict = {}
        block = {
            s: ids.setdefault((block[s], block[trans[s][0]], block[trans[s][1]]), len(ids))
            for s in reach
        }
        if len(ids) == classes:
            break
        classes = len(ids)
    number = {block[state]: 0}
    reps = [state]
    table = []
    for s in reps:
        for b in (0, 1):
            n = trans[s][b]
            if block[n] not in number:
                number[block[n]] = len(reps)
                reps.append(n)
            table.append((number[block[n]], out[s][b]))
    return pending, tuple(table)


def _score(
    machine: MealyMachine,
    snap: tuple[int, int],
    targets: Sequence[MealyMachine],
    starts: Sequence[dict[int, int]],
    t: int,
    bound: int | None,
) -> int | None:
    """Total errors of ``machine`` resumed at ``snap`` over every target's
    continuations, or ``None`` once they exceed ``bound``."""
    predictor = AutomatonPredictor(machine)
    total = 0
    for target, start in zip(targets, starts):
        predictor.restore(snap)
        result = _frontier_totals(
            target, predictor, t, start, None if bound is None else bound - total
        )
        if result is None:
            return None
        total += result[0]
    return total


def _search(
    targets: Sequence[MealyMachine],
    starts: Sequence[dict[int, int]],
    training: Bits | tuple[int, ...],
    num_states: int,
    t: int,
    denom: int,
    top_n: int,
    max_canonical_states: int,
) -> SearchResult:
    """Rank the canonical candidates once ``training`` has been fed to each.

    Every target's pass starts from its ``starts`` entry, the number of
    input sequences per generator state, and a candidate's score is its
    total error over ``denom``. A candidate only needs an exact score if it
    can still enter the best ``top_n``, so each new behaviour is scored with
    the current ``top_n``-th best total as the bound. That bound only
    tightens, so a behaviour pruned once stays pruned; ties are never
    pruned, and candidates arrive in serialization order, so a stable sort
    by score alone breaks ties toward the least machine.
    """
    size = max(1, top_n)
    best: list[int] = []  # negated totals of the ``size`` best candidates so far
    totals: dict[tuple, int | None] = {}  # behaviour -> total, None when pruned
    kept: list[tuple[MealyMachine, int]] = []
    space = 0
    for machine in enumerate_machines(
        num_states, "canonical", max_canonical_states=max_canonical_states
    ):
        space += 1
        snap = machine.step(machine.initial_state, 0)
        for bit in training:
            snap = machine.step(snap[0], bit)
        key = _behaviour(machine, *snap)
        if key in totals:
            total = totals[key]
        else:
            bound = -best[0] if len(best) == size else None
            total = totals[key] = _score(machine, snap, targets, starts, t, bound)
        if total is None:
            continue
        if len(best) < size:
            heapq.heappush(best, -total)
        elif total < -best[0]:
            heapq.heapreplace(best, -total)
        else:
            continue
        kept.append((machine, total))
    log.debug(
        "%d candidates, %d distinct behaviours scored, %d of them pruned",
        space, len(totals), sum(total is None for total in totals.values()),
    )
    kept.sort(key=lambda item: item[1])
    leaderboard = tuple((m, Fraction(total, denom)) for m, total in kept[:size])
    best_machine, best_score = leaderboard[0]
    return SearchResult(
        best=best_machine,
        best_score=best_score,
        leaderboard=leaderboard,
        search_space_size=space,
        evaluated=space,
        num_states=num_states,
        horizon=t,
        target_ids=tuple(machine_id(m) for m in targets),
    )


def search_best_predictor(
    targets: Sequence[MealyMachine],
    num_states: int,
    t: int,
    *,
    top_n: int = 10,
    cap: int = EXHAUSTIVE_T_CAP,
    max_canonical_states: int = CANONICAL_K_CAP,
) -> SearchResult:
    """Best canonical ``num_states``-state predicting automaton for the targets.

    Each candidate's score is its exact average error at horizon ``t``, taken
    uniformly across the target machines (the mean keeps scores in [0, 1]).
    Ties break toward the lexicographically least machine, so results are
    reproducible across runs.
    """
    if not targets:
        raise ValueError("at least one target machine is required")
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if t > cap:
        raise CapExceeded(f"horizon {t} exceeds the exhaustive cap of {cap}")
    starts = [{m.initial_state: 1} for m in targets]
    denom = len(targets) * t * (1 << t)
    return _search(
        targets, starts, (), num_states, t, denom, top_n, max_canonical_states
    )


def search_after_training(
    targets: Sequence[MealyMachine],
    num_states: int,
    training: Bits,
    continuation: int,
    *,
    top_n: int = 10,
    max_canonical_states: int = CANONICAL_K_CAP,
) -> SearchResult:
    """Best predicting automaton for continuations of observed training data.

    Candidates walk through the training bits first; scoring then follows the
    batch rule: every (input sequence, target) pair consistent with the
    training data resumes its target at the pair's end state, and the
    candidate's errors over all continuations of length ``continuation`` are
    averaged with each pair weighted equally.
    """
    if not targets:
        raise ValueError("at least one target machine is required")
    if continuation < 1:
        raise ValueError("continuation length must be at least 1")
    profiles = [consistency_profile(m, training) for m in targets]
    pair_total = sum(sum(p) for p in profiles)
    if pair_total == 0:
        raise InconsistentTrainingData(
            "no target machine can produce the training sequence"
        )
    starts = [dict(enumerate(p)) for p in profiles]
    denom = pair_total * continuation * (1 << continuation)
    return _search(
        targets, starts, training, num_states, continuation, denom, top_n,
        max_canonical_states,
    )
