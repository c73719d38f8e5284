"""Exhaustive enumeration of k-state machines, up to state relabeling.

There are ``(2k)**(2k)`` raw machines on k states: each of the 2k
(state, input) slots independently picks a successor and an output bit.
Relabelings that keep the distinguished initial state at index 0 identify
isomorphic machines; canonical mode yields the lexicographically least
member of each class. The quotient is far smaller than dividing by k!
suggests, because only permutations fixing the initial state apply.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

from .automaton import MealyMachine
from .evaluation import CapExceeded

RAW_K_CAP = 3
CANONICAL_K_CAP = 4

_MODES = ("raw", "canonical", "strongly_connected")


def raw_machine_count(k: int) -> int:
    """Number of raw k-state machines: (2k)**(2k)."""
    return (2 * k) ** (2 * k)


def _admissible_perms(k: int, initial: int) -> list[tuple[int, ...]]:
    """All state relabelings that map the initial state to index 0."""
    others = [s for s in range(k) if s != initial]
    perms = []
    for images in permutations(range(1, k)):
        perm = [0] * k
        perm[initial] = 0
        for s, img in zip(others, images):
            perm[s] = img
        perms.append(tuple(perm))
    return perms


def _relabel_key(trans, out, k, perm) -> tuple:
    """Flattened (next, out) table of the relabeled machine, rows ordered by
    the new state indices; this tuple order matches serialization order."""
    inverse = [0] * k
    for s, img in enumerate(perm):
        inverse[img] = s
    key = []
    for new_s in range(k):
        old = inverse[new_s]
        for b in (0, 1):
            key.append((perm[trans[old][b]], out[old][b]))
    return tuple(key)


def relabel(machine: MealyMachine, perm: tuple[int, ...]) -> MealyMachine:
    """Rename states by ``perm`` (old index -> new index); behavior is unchanged."""
    k = machine.num_states
    trans = [[0, 0] for _ in range(k)]
    out = [[0, 0] for _ in range(k)]
    for s in range(k):
        for b in (0, 1):
            trans[perm[s]][b] = perm[machine.transition[s][b]]
            out[perm[s]][b] = machine.output[s][b]
    return MealyMachine(
        k,
        tuple(tuple(r) for r in trans),
        tuple(tuple(r) for r in out),
        perm[machine.initial_state],
    )


def canonicalize(machine: MealyMachine) -> MealyMachine:
    """The least serialization among relabelings putting the initial state at 0.

    Idempotent, and identical for isomorphic machines; used as the identity
    for counting machine classes and deduplicating search spaces.
    """
    k = machine.num_states
    best_perm = min(
        _admissible_perms(k, machine.initial_state),
        key=lambda p: _relabel_key(machine.transition, machine.output, k, p),
    )
    return relabel(machine, best_perm)


def orbit_size(machine: MealyMachine) -> int:
    """Number of distinct machines reachable by admissible relabelings."""
    k = machine.num_states
    keys = {
        _relabel_key(machine.transition, machine.output, k, p)
        for p in _admissible_perms(k, machine.initial_state)
    }
    return len(keys)


def is_strongly_connected(machine: MealyMachine) -> bool:
    """True when every state can reach every other along transitions:
    state 0 reaches them all, and each of them reaches state 0."""
    k = machine.num_states
    return len(machine.reachable_states(0)) == k and all(
        0 in machine.reachable_states(s) for s in range(1, k)
    )


def enumerate_machines(
    k: int,
    mode: str = "raw",
    *,
    max_raw_states: int = RAW_K_CAP,
    max_canonical_states: int = CANONICAL_K_CAP,
) -> Iterator[MealyMachine]:
    """Yield every k-state machine once, in serialization order.

    ``raw`` yields all (2k)**(2k) machines; ``canonical`` one representative
    per relabeling class; ``strongly_connected`` the canonical machines whose
    transition digraph is strongly connected. All machines start at state 0.
    The ordering is pure integer comparison, identical on every platform.
    Predictor search relies on it: it breaks score ties toward the least
    serialization by a stable sort over candidates in this order.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if k < 1:
        raise ValueError("state count must be positive")
    cap = max_raw_states if mode == "raw" else max_canonical_states
    if k > cap:
        raise CapExceeded(
            f"enumeration of {k}-state machines in {mode} mode exceeds the cap of "
            f"{cap} (roughly {raw_machine_count(k):.3g} raw machines)"
        )

    perms = _admissible_perms(k, 0)
    non_identity = [p for p in perms if any(p[i] != i for i in range(k))]
    slots = list(product(range(k), (0, 1)))  # (next, out) choices in key order

    for combo in product(range(2 * k), repeat=2 * k):
        trans = tuple(
            (slots[combo[2 * s]][0], slots[combo[2 * s + 1]][0]) for s in range(k)
        )
        out = tuple(
            (slots[combo[2 * s]][1], slots[combo[2 * s + 1]][1]) for s in range(k)
        )
        if mode != "raw" and non_identity:
            key = None
            minimal = True
            for p in non_identity:
                if key is None:
                    key = _relabel_key(trans, out, k, tuple(range(k)))
                if _relabel_key(trans, out, k, p) < key:
                    minimal = False
                    break
            if not minimal:
                continue
        machine = MealyMachine(k, trans, out, 0)
        if mode == "strongly_connected" and not is_strongly_connected(machine):
            continue
        yield machine


def count_machines(k: int, mode: str = "raw", **caps) -> int:
    """Exact count of machines yielded by :func:`enumerate_machines`."""
    return sum(1 for _ in enumerate_machines(k, mode, **caps))
