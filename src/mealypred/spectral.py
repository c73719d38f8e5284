"""State-visit frequencies and the perfect-knowledge error floor.

The transition structure of a machine, with input bits uniform, is a Markov
chain whose transition matrix P is the adjacency matrix scaled by 1/2. The
long-run fraction of time spent in each state, started from the initial
state s0, is row s0 of the Cesàro limit of the powers of P; that average
exists even for periodic chains, where the raw powers oscillate forever.
It is computed exactly in rationals (Kemeny & Snell, *Finite Markov Chains*,
1960): every closed class of the reachable states has its own stationary
vector, and the chain from s0 ends in each class with its absorption
probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automaton import MealyMachine


def adjacency(machine: MealyMachine) -> tuple[tuple[int, ...], ...]:
    """Counts of input bits taking state i to state j; every row sums to 2."""
    k = machine.num_states
    rows = []
    for s in range(k):
        row = [0] * k
        for b in (0, 1):
            row[machine.transition[s][b]] += 1
        rows.append(tuple(row))
    return tuple(rows)


def normalized_matrix(machine: MealyMachine) -> tuple[tuple[Fraction, ...], ...]:
    """The adjacency matrix scaled by 1/2, in exact rationals; rows sum to 1."""
    return tuple(tuple(Fraction(a, 2) for a in row) for row in adjacency(machine))


@dataclass(frozen=True)
class StationaryVector:
    """Exact long-run visit frequency of each state from the initial state.

    ``weights`` are rationals that are nonnegative and sum to 1. ``method``,
    ``residual`` and ``iterations`` describe how they were found; the exact
    solve always gives ``"exact"``, 0 and 0.
    """

    weights: tuple[Fraction, ...]
    method: str = "exact"
    residual: float = 0
    iterations: int = 0

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise ValueError("negative frequency")
        if sum(self.weights) != 1:
            raise ValueError("frequencies must sum to 1")


def _solve(rows: list[list[Fraction]], rhs: list[int]) -> list[Fraction]:
    """The row vector x with x @ rows == rhs, for nonsingular square ``rows``,
    by Gauss-Jordan elimination in exact rationals."""
    n = len(rhs)
    # equation j reads sum_i x_i rows[i][j] == rhs[j]
    eqs = [[rows[i][j] for i in range(n)] + [Fraction(rhs[j])] for j in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if eqs[r][c])
        eqs[c], eqs[pivot] = eqs[pivot], eqs[c]
        head = eqs[c][c]
        eqs[c] = [x / head for x in eqs[c]]
        for r in range(n):
            f = eqs[r][c]
            if r != c and f:
                eqs[r] = [x - f * y for x, y in zip(eqs[r], eqs[c])]
    return [eq[n] for eq in eqs]


def stationary_frequencies(machine: MealyMachine) -> StationaryVector:
    """Exact time-averaged state-visit frequencies from the initial state.

    A reachable state is recurrent when every state it reaches reaches it
    back; the states it reaches are then its closed class C, whose
    stationary vector solves pi (I - P_C) = 0, sum(pi) = 1. The other
    reachable states are transient: their expected visits n from s0 solve
    n (I - Q) = delta_s0, with Q the chain restricted to them, and a class
    absorbs the mass sum_i n_i P(i, C). A class holding s0 absorbs all of it.
    Unreachable states get weight 0.
    """
    k, s0 = machine.num_states, machine.initial_state
    p = normalized_matrix(machine)
    reach = {s: machine.reachable_states(s) for s in machine.reachable_states()}
    recurrent = {s for s, seen in reach.items() if all(s in reach[j] for j in seen)}
    transient = sorted(reach.keys() - recurrent)
    if transient:
        visits = _solve(
            [[int(i == j) - p[i][j] for j in transient] for i in transient],
            [int(i == s0) for i in transient],
        )
    weights = [Fraction(0)] * k
    for cls in {tuple(sorted(reach[s])) for s in recurrent}:
        if s0 in cls:
            mass = Fraction(1)
        else:
            mass = sum(v * p[i][c] for v, i in zip(visits, transient) for c in cls)
        # the last balance equation is implied by the others; sum(pi) = 1 replaces it
        rows = [[int(i == j) - p[i][j] for j in cls[:-1]] + [1] for i in cls]
        for s, pi in zip(cls, _solve(rows, [0] * (len(cls) - 1) + [1])):
            weights[s] = mass * pi
    return StationaryVector(tuple(weights))


def perfect_knowledge_error_bound(
    machine: MealyMachine, frequencies: StationaryVector
) -> Fraction:
    """Long-run error rate of the best predictor that always knows the state.

    In a biased state the next output is certain; in an unbiased state any
    fixed guess is wrong for exactly one of the two equally likely inputs, so
    each unbiased visit contributes an expected half error.
    """
    return sum(
        (frequencies.weights[s] for s in machine.unbiased_states()), Fraction(0)
    ) / 2
