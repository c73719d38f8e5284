"""Exhaustive search for the best bounded-state predicting automaton.

A predicting automaton reads the observed stream as its input; the bit it
emits on each step is its guess for the next observation. With the state
budget fixed in advance, every canonical machine of that size is scored
exactly against the target machines and the best scorer wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .automaton import Bits, MealyMachine, machine_id, serialize_machine
from .enumeration import CANONICAL_K_CAP, enumerate_machines
from .evaluation import (
    EXHAUSTIVE_T_CAP,
    CapExceeded,
    InconsistentTrainingData,
    _continuation_errors,
    _exact_totals,
    consistency_profile,
)
from .predictors import AutomatonPredictor


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


def _finish(
    scored: list[tuple[MealyMachine, Fraction]],
    top_n: int,
    num_states: int,
    horizon: int,
    targets: Sequence[MealyMachine],
    space: int,
) -> SearchResult:
    scored.sort(key=lambda item: (item[1], serialize_machine(item[0])))
    leaderboard = tuple(scored[: max(1, top_n)])
    best, best_score = leaderboard[0]
    return SearchResult(
        best=best,
        best_score=best_score,
        leaderboard=leaderboard,
        search_space_size=space,
        evaluated=len(scored),
        num_states=num_states,
        horizon=horizon,
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
    candidates = list(
        enumerate_machines(num_states, "canonical", max_canonical_states=max_canonical_states)
    )
    denom = len(targets) * t * (1 << t)
    scored = []
    for machine in candidates:
        predictor = AutomatonPredictor(machine)
        total = sum(_exact_totals(target, predictor, t)[0] for target in targets)
        scored.append((machine, Fraction(total, denom)))
    return _finish(scored, top_n, num_states, t, targets, len(candidates))


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
    candidates = list(
        enumerate_machines(num_states, "canonical", max_canonical_states=max_canonical_states)
    )
    denom = pair_total * continuation * (1 << continuation)
    scored = []
    for machine in candidates:
        predictor = AutomatonPredictor(machine)
        predictor.reset()
        for bit in training:
            predictor.observe(bit)
        total = sum(
            _continuation_errors(predictor, target, profile, continuation)
            for target, profile in zip(targets, profiles)
        )
        scored.append((machine, Fraction(total, denom)))
    return _finish(scored, top_n, num_states, continuation, targets, len(candidates))
