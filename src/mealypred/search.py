"""Exhaustive search for the best bounded-state predicting automaton.

A predicting automaton reads the observed stream as its input; the bit it
emits on each step is its guess for the next observation. With the state
budget fixed in advance, every canonical machine of that size is a
candidate, and the best exact scorer against the target machines wins.

The candidates arrive as integer ``(next, out)`` tables from
:func:`~mealypred.enumeration.machine_tables`, a chunk at a time, and every
candidate of a chunk is scored at once (against large targets, in smaller
batches that bound the memory). The targets are read as one disjoint
union, and the pass keeps, per candidate, the number of input sequences in
each (candidate state, pending guess, target state) triple: the merged
frontier the exact engine builds for an automaton predictor, advanced for
the whole batch by a few array operations per depth. A leaderboard of the
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
from .enumeration import CANONICAL_K_CAP, CHUNK_ROWS, machine_tables
from .evaluation import (
    EXHAUSTIVE_T_CAP,
    CapExceeded,
    InconsistentTrainingData,
    consistency_profile,
)

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

    Each target starts from its ``starts`` entry, the number of input
    sequences per generator state, and a candidate's score is its total
    error over ``denom``. Candidates arrive in serialization order and
    each batch is merged into the carried leaderboard by a stable sort on
    the exact totals, so ties break toward the least machine.
    """
    k, size = num_states, max(1, top_n)
    start = [st.get(s, 0) for m, st in zip(targets, starts) for s in range(m.num_states)]
    g = len(start)
    # Counts at depth d sum to sum(start) * 2**d and a total is at most
    # t * sum(start) * 2**t, so int64 is exact below this bound. Above it the
    # start vector is cut into rows of base-2**w digits (a row sums to below
    # g * 2**w), which are scored side by side, since counts are linear in
    # it; past t = 55 or so no w fits, and the counts are Python integers.
    r, w = 1, max(start).bit_length()
    dtype = np.int64 if (sum(start) * t) << (t + 1) < 1 << 63 else object
    width = 63 - (g * t << (t + 1)).bit_length()
    if dtype is object and width > 0:
        dtype, r, w = np.int64, -(-w // width), width
    digits = np.array([[x >> w * j & (1 << w) - 1 for x in start] for j in range(r)], dtype=dtype)
    # The targets as one disjoint union of g states: input i in state x
    # emits bit o and moves to state y, dest[x, i] = o * g + y.
    offsets = np.cumsum([0] + [m.num_states for m in targets])
    dest = np.array([[m.output[x][i] * g + at + m.transition[x][i] for i in (0, 1)]
                     for m, at in zip(targets, offsets) for x in range(m.num_states)])
    # a pending guess p misses on the inputs that emit 1 - p
    emits_one = (dest >= g).sum(axis=1)
    weights = np.tile(np.concatenate([emits_one, 2 - emits_one]), k).astype(dtype)
    # the (x, i) entries grouped by destination, so one reduceat sums each group
    order = np.argsort(dest.ravel(), kind="stable")
    dests, first = np.unique(dest.ravel()[order], return_index=True)
    source = order // 2
    board = np.zeros(0, dtype=dtype if r == 1 else object)
    board_next = board_out = np.zeros((0, k, 2), dtype=np.intp)
    # rows scored at once: the counts of a batch take at most 2k * 2**17 cells
    batch = max(1, (CHUNK_ROWS << 4) // (r * g))
    tables = machine_tables(k, "canonical", max_canonical_states=max_canonical_states)
    pieces = ((nxt[i:i + batch], out[i:i + batch]) for nxt, out in tables
              for i in range(0, len(nxt), batch))
    space = batches = 0
    for nxt, out in pieces:
        n = len(nxt)
        rows = np.arange(n)
        # counts[c, j, 2 * s + p, x]: input sequences of digit row j that
        # leave candidate c in state s with pending guess p and the targets
        # in state x. Observing o in state s moves candidate c to code
        # 2 * next + out of slot (s, o): step[c] has a 1 at [code, 2 * s + o].
        step = np.zeros((n, 1, 2 * k, 2 * k), dtype=dtype)
        step[rows[:, None], 0, (2 * nxt + out).reshape(n, 2 * k), np.arange(2 * k)] = 1
        state, pending = nxt[:, 0, 0], out[:, 0, 0]  # primed by a virtual 0
        for bit in training:
            state, pending = nxt[rows, state, bit], out[rows, state, bit]
        counts = np.zeros((n, r, 2 * k, g), dtype=dtype)
        counts[rows, :, 2 * state + pending] = digits
        total = np.zeros((n, r), dtype=dtype)
        for _ in range(t):
            # an error at depth d stands for 2**(t - d - 1) completions
            total = 2 * total + counts.reshape(n, r, 2 * k * g) @ weights
            mass = counts[:, :, 0::2] + counts[:, :, 1::2]
            moved = np.zeros((n, r, k, 2 * g), dtype=dtype)
            moved[..., dests] = np.add.reduceat(mass[..., source], first, axis=-1)
            counts = step @ moved.reshape(n, r, 2 * k, g)
        if r > 1:
            total = sum(total[:, j].astype(object) << w * j for j in range(r))
        board = np.concatenate([board, total.reshape(n)])
        keep = np.argsort(board, kind="stable")[:size]
        board = board[keep]
        board_next = np.concatenate([board_next, nxt])[keep]
        board_out = np.concatenate([board_out, out])[keep]
        space += n
        batches += 1
    log.debug("%d candidates scored, batches: %d", space, batches)
    leaderboard = tuple(
        (MealyMachine(k, trans, outs, 0), Fraction(total, denom))
        for trans, outs, total in zip(board_next.tolist(), board_out.tolist(), board.tolist())
    )
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
