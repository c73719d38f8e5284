"""Exhaustive search for the best bounded-state predicting automaton.

A predicting automaton reads the observed stream as its input; the bit it
emits on each step is its guess for the next observation. With the state
budget fixed in advance, every canonical machine of that size is a
candidate, and the best exact scorer against the target machines wins.

The candidates arrive as integer ``(next, out)`` tables from
:func:`~mealypred.enumeration.machine_tables`, a chunk at a time, and every
candidate of a chunk is scored at once (against large targets, in smaller
batches that bound the memory). The targets are read through their
training pool (:func:`~mealypred.predictors.training_pool`): its machine is
their disjoint union and its count vector, the consistent pairs per union
state, is the start vector. The pass works backward from the horizon: a
candidate's value at a (candidate state, pending guess, target state)
triple is its error summed over every continuation from there, and one
gather per depth advances the values of the whole batch. They do not depend
on where the targets start, so a candidate's total is one dot product of
the start vector with its values at its post-training state and pending
guess. A plain search is a search after an empty prefix. A leaderboard of the
best rows is carried from batch to batch, and only its rows become
:class:`MealyMachine` objects.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .automaton import Bits, MealyMachine, machine_id, serialize_machine
from .enumeration import CHUNK_ROWS, CapExceeded, machine_tables
from .evaluation import EXHAUSTIVE_T_CAP, InconsistentTrainingData, rational_str
from .predictors import training_pool

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive predictor search, best first."""

    leaderboard: tuple[tuple[MealyMachine, Fraction], ...]
    search_space_size: int
    evaluated: int
    num_states: int
    horizon: int
    target_ids: tuple[str, ...]

    @property
    def best(self) -> MealyMachine:
        return self.leaderboard[0][0]

    @property
    def best_score(self) -> Fraction:
        return self.leaderboard[0][1]

    def to_dict(self) -> dict:
        board = [(serialize_machine(m), score) for m, score in self.leaderboard]
        return {
            "num_states": self.num_states,
            "horizon": self.horizon,
            "target_ids": list(self.target_ids),
            "search_space_size": self.search_space_size,
            "evaluated": self.evaluated,
            "best_score": rational_str(self.best_score),
            "best_score_float": float(self.best_score),
            "best_machine": board[0][0],
            "leaderboard": [
                {
                    "score": rational_str(score),
                    "score_float": float(score),
                    "machine": text,
                }
                for text, score in board
            ],
        }


def search_best_predictor(
    targets: Sequence[MealyMachine],
    num_states: int,
    t: int,
    *,
    top_n: int = 10,
    cap: int = EXHAUSTIVE_T_CAP,
) -> SearchResult:
    """Best canonical ``num_states``-state predicting automaton for the targets.

    Each candidate's score is its exact average error at horizon ``t``, taken
    uniformly across the target machines (the mean keeps scores in [0, 1]).
    Ties break toward the lexicographically least machine, so results are
    reproducible across runs. This is :func:`search_after_training` on an
    empty training prefix, under the exhaustive horizon cap.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if t > cap:
        raise CapExceeded(f"horizon {t} exceeds the exhaustive cap of {cap}")
    return search_after_training(targets, num_states, Bits(0, 0), t, top_n=top_n)


def search_after_training(
    targets: Sequence[MealyMachine],
    num_states: int,
    training: Bits,
    continuation: int,
    *,
    top_n: int = 10,
) -> SearchResult:
    """Best predicting automaton for continuations of observed training data.

    Candidates walk through the training bits first; scoring then follows the
    batch rule: every (input sequence, target) pair consistent with the
    training data resumes its target at the pair's end state, and the
    candidate's errors over all continuations of length ``continuation`` are
    averaged with each pair weighted equally.

    The training pool of the targets gives both sides: its count vector is
    the start vector, and its machine, the targets' disjoint union, the
    tables the values advance by. Candidates arrive in serialization order
    and each batch is merged into the carried leaderboard by a stable sort on
    the exact totals, so ties break toward the least machine.
    """
    if not targets:
        raise ValueError("at least one target machine is required")
    if continuation < 1:
        raise ValueError("continuation length must be at least 1")
    if top_n < 1:
        raise ValueError("leaderboard size must be at least 1")
    pool = training_pool(targets, training)
    start = pool.consistency_vector
    if not any(start):
        raise InconsistentTrainingData(
            "no target machine can produce the training sequence"
        )
    k, t, g = num_states, continuation, len(start)
    tables = machine_tables(k, "canonical")  # checks k before any array is sized by it
    # A value is at most t * 2**t and a total at most sum(start) times that;
    # each is held in int64 while its bound fits and in Python integers past it.
    dtype = np.int64 if t << t < 1 << 63 else object
    weights = np.array(start, dtype=np.int64 if sum(start) * t << t < 1 << 63 else object)
    # input i in union state x emits bit emit[x, i] and moves to state succ[x, i]
    emit, succ = np.array(pool.machine.output), np.array(pool.machine.transition)
    # miss[p, x]: the inputs on which a pending guess p misses in state x
    emits_one = emit.sum(axis=1)
    miss = np.array([emits_one, 2 - emits_one]).astype(dtype)
    board = np.zeros(0, dtype=weights.dtype)
    board_next = board_out = np.zeros((0, k, 2), dtype=np.intp)
    # rows scored at once: the values of a batch take at most 2k * 2**17 cells
    batch = max(1, (CHUNK_ROWS << 4) // g)
    pieces = ((nxt[i:i + batch], out[i:i + batch]) for nxt, out in tables
              for i in range(0, len(nxt), batch))
    space = batches = 0
    for nxt, out in pieces:
        n = len(nxt)
        rows = np.arange(n)
        # values[c, s, p, x]: the errors of candidate c summed over every
        # continuation of the remaining length from its state s, pending
        # guess p and the targets in state x. Input i in state x moves c
        # to (next, out) of its slot (s, emit[x, i]) and the targets to
        # succ[x, i]; idx[c, s, x, i] is that cell's flat index.
        idx = ((rows[:, None, None, None] * k + nxt[:, :, emit]) * 2 + out[:, :, emit]) * g + succ
        values = np.zeros((n, k, 2, g), dtype=dtype)
        for u in range(t):
            # an error with u more steps to go stands for 2**u completions
            values = values.reshape(-1)[idx].sum(axis=-1)[:, :, None] + (miss << u)
        state, pending = nxt[:, 0, 0], out[:, 0, 0]  # primed by a virtual 0
        for bit in training:
            state, pending = nxt[rows, state, bit], out[rows, state, bit]
        total = values[rows, state, pending] @ weights
        board = np.concatenate([board, total])
        keep = np.argsort(board, kind="stable")[:top_n]
        board = board[keep]
        board_next = np.concatenate([board_next, nxt])[keep]
        board_out = np.concatenate([board_out, out])[keep]
        space += n
        batches += 1
    log.debug("%d candidates scored, batches: %d", space, batches)
    denom = sum(start) * t << t
    leaderboard = tuple(
        (MealyMachine(k, trans, outs, 0), Fraction(total, denom))
        for trans, outs, total in zip(board_next.tolist(), board_out.tolist(), board.tolist())
    )
    return SearchResult(
        leaderboard=leaderboard,
        search_space_size=space,
        evaluated=space,
        num_states=num_states,
        horizon=t,
        target_ids=tuple(machine_id(m) for m in targets),
    )
