"""State-visit frequencies and the perfect-knowledge error floor.

The transition structure of a machine, with input bits uniform, is a Markov
chain whose transition matrix P is the adjacency matrix scaled by 1/2. The
long-run fraction of time spent in each state, started from the initial
state s0, is row s0 of the Cesàro limit of the powers of P; that average
exists even for periodic chains, where the raw powers oscillate forever.
It is computed exactly in rationals (Kemeny & Snell, *Finite Markov Chains*,
1960): every closed class of the reachable states has its own stationary
vector, and the chain from s0 ends in each class with its absorption
probability. Each component is solved alone by integer elimination: linear
cost plus the cube of the largest component. On a 2-core x86 host, random
machines take about 0.3 s at 256 states, 2-3.5 s at 512, 7 s at 640 and 12-16 s at 768.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .automaton import MealyMachine

log = logging.getLogger(__name__)


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


def _solve(eqs: list[list[int]], rhs: list[int | Fraction]) -> list[Fraction]:
    """The x with eqs @ x == rhs, for a nonsingular integer square ``eqs``, by
    fraction-free elimination (Bareiss, 1968): every entry stays an integer
    minor, the last pivot d is ±det, d·x is integral (Cramer's rule), and each
    x_i is one division at the end."""
    n, den = len(rhs), math.lcm(*(r.denominator for r in rhs))
    eqs = [eq + [int(r * den)] for eq, r in zip(eqs, rhs)]
    prev = 1
    for c in range(n):
        pivot = next(r for r in range(c, n) if eqs[r][c])
        eqs[c], eqs[pivot] = eqs[pivot], eqs[c]
        head, p = eqs[c][c + 1:], eqs[c][c]
        for eq in eqs[c + 1:]:
            if f := eq[c]:
                eq[c + 1:] = [(p * x - f * y) // prev for x, y in zip(eq[c + 1:], head)]
            elif p != prev:
                eq[c + 1:] = [p * x // prev for x in eq[c + 1:]]
        prev = p
    x = [0] * n
    for c in reversed(range(n)):
        tail = sum(a * v for a, v in zip(eqs[c][c + 1:n], x[c + 1:]))
        x[c] = (prev * eqs[c][n] - tail) // eqs[c][c]
    return [Fraction(v, prev * den) for v in x]


def _components(machine: MealyMachine) -> list[list[int]]:
    """The strongly connected components reachable from s0, each before every
    component it reaches, by Tarjan's algorithm (1972) without recursion. An
    index is a place on the component stack, k once out; a low link stays in its component."""
    trans, k = machine.transition, machine.num_states
    index, low, stack, comps, work = [-1] * k, [0] * k, [], [], [(machine.initial_state, 0)]
    while work:
        v, b = work.pop()
        if b == 0:
            index[v] = low[v] = len(stack)
            stack.append(v)
        else:  # back from input b - 1: a finished child, a state on the stack, or one out
            low[v] = min(low[v], low[trans[v][b - 1]])
        if b < 2:
            work.append((v, b + 1))
            if index[trans[v][b]] < 0:
                work.append((trans[v][b], 0))
        elif low[v] == index[v]:
            comps.append(stack[index[v]:])
            del stack[index[v]:]
            for w in comps[-1]:
                index[w] = low[w] = k
    return comps[::-1]


def stationary_frequencies(machine: MealyMachine) -> StationaryVector:
    """Exact time-averaged state-visit frequencies from the initial state.

    A reachable component is closed when no edge leaves it; its stationary
    vector pi solves pi (I - P_C) = 0, sum(pi) = 1. The expected visits n to
    the transient states solve n (I - Q) = delta_s0, one component C at a
    time in topological order: n_C (I - Q_C) is the inflow into C from s0
    and from the components before it. A closed class absorbs all its
    inflow. Each system is solved as 2(I - P) = 2I - A, in integers.
    Unreachable states get weight 0.
    """
    comps, trans, k = _components(machine), machine.transition, machine.num_states
    inflow = [int(s == machine.initial_state) for s in range(k)]
    weights, closed = [Fraction(0)] * k, []
    for comp in comps:
        # equation j of x (2I - A_C) == rhs is column j
        eqs = [[2 * (i == j) - trans[i].count(j) for i in comp] for j in comp]
        if not sum(map(sum, eqs)):  # every row of 2I - A_C sums to 0: a closed class
            closed.append(len(comp))
            eqs[-1] = [1] * len(comp)  # implied by the others; sum(pi) = inflow replaces it
            rhs = [0] * (len(comp) - 1) + [sum(inflow[s] for s in comp)]
            for s, w in zip(comp, _solve(eqs, rhs)):
                weights[s] = w
            continue
        for s, v in zip(comp, _solve(eqs, [2 * inflow[s] for s in comp])):
            for n in trans[s]:
                if n not in comp:
                    inflow[n] += v / 2
    log.debug("stationary law: %d reachable states, closed classes of sizes %s, "
              "%d transient components, largest system %d",
              sum(map(len, comps)), closed, len(comps) - len(closed), max(map(len, comps)))
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
