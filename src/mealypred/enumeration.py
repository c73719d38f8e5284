"""Exhaustive enumeration of k-state machines, up to state relabeling.

There are ``(2k)**(2k)`` raw machines on k states: each of the 2k
(state, input) slots independently picks a successor and an output bit.
Relabelings that keep the distinguished initial state at index 0 identify
isomorphic machines; canonical mode yields the lexicographically least
member of each class. The quotient is far smaller than dividing by k!
suggests, because only permutations fixing the initial state apply.

The machines are produced as integer ``(next, out)`` tables, a fixed-size
chunk at a time (:func:`machine_tables`); listing and counting read the
chunks, and predictor search scores them without building machines.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator

import numpy as np

from .automaton import MealyMachine
from .evaluation import CapExceeded

RAW_K_CAP = 3
CANONICAL_K_CAP = 4
CHUNK_ROWS = 1 << 13  # most raw rows per table chunk: k=3 spans 6 chunks, k=4 spans 4,096

_TABLE_MODES = ("raw", "canonical")
_MODES = _TABLE_MODES + ("strongly_connected",)


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


def _keys(slots: np.ndarray) -> np.ndarray:
    """Rows as byte strings, which compare like the key tuples: the first
    differing slot code decides. NumPy ignores trailing NUL bytes when it
    compares them, which keeps this order, since NUL is the least byte."""
    return np.ascontiguousarray(slots, dtype=np.uint8).view(f"S{slots.shape[1]}").ravel()


def _relabelings(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per non-identity admissible relabeling ``perm``: the old columns in
    new order (new state ``perm[s]`` takes old state ``s``'s two slots), and
    the slot code each old code becomes once its successor is renamed."""
    out = []
    for perm in _admissible_perms(k, 0)[1:]:  # the first is the identity
        inverse = np.argsort(perm)
        columns = np.stack([2 * inverse, 2 * inverse + 1], axis=1).ravel()
        out.append((columns, (2 * np.repeat(perm, 2) + np.tile((0, 1), k)).astype(np.uint8)))
    return out


def machine_tables(
    k: int,
    mode: str,
    *,
    cap: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the k-state machines as ``(next, out)`` tables of shape ``(n, k, 2)``.

    Row i of the raw list holds the base-2k digits of i, one slot code
    ``2 * next + out`` per (state, input) slot, so rows come in serialization
    order. Each chunk fixes the leading slots and runs through every choice of
    the trailing ones, at most ``CHUNK_ROWS`` rows. ``mode`` is ``raw``, or
    ``canonical`` for the rows that are least among their relabelings.
    ``cap`` bounds ``k``: ``RAW_K_CAP`` or ``CANONICAL_K_CAP`` by mode unless
    given.
    """
    if mode not in _TABLE_MODES:
        raise ValueError(f"unknown table mode {mode!r}; expected one of {_TABLE_MODES}")
    if k < 1:
        raise ValueError("state count must be positive")
    if cap is None:
        cap = RAW_K_CAP if mode == "raw" else CANONICAL_K_CAP
    if k > cap:
        raise CapExceeded(
            f"enumeration of {k}-state machines in {mode} mode exceeds the cap of "
            f"{cap} (roughly {raw_machine_count(k):.3g} raw machines)"
        )
    base, width = 2 * k, 2 * k
    trailing = 1
    while trailing < width and base ** (trailing + 1) <= CHUNK_ROWS:
        trailing += 1
    tail = np.indices((base,) * trailing, dtype=np.uint8).reshape(trailing, -1).T
    relabelings = _relabelings(k) if mode != "raw" else []
    for lead in product(range(base), repeat=width - trailing):
        slots = np.hstack([np.full((len(tail), len(lead)), lead, dtype=np.uint8), tail])
        for columns, rename in relabelings:
            slots = slots[_keys(rename[slots[:, columns]]) >= _keys(slots)]
        slots = slots.astype(np.intp)
        yield (slots >> 1).reshape(-1, k, 2), (slots & 1).reshape(-1, k, 2)


def enumerate_machines(
    k: int,
    mode: str = "raw",
    *,
    cap: int | None = None,
) -> Iterator[MealyMachine]:
    """Yield every k-state machine once, in serialization order.

    ``raw`` yields all (2k)**(2k) machines; ``canonical`` one representative
    per relabeling class; ``strongly_connected`` the canonical machines whose
    transition digraph is strongly connected. All machines start at state 0.
    The ordering is pure integer comparison, identical on every platform.
    Predictor search scores the same :func:`machine_tables` chunks and breaks
    score ties toward the least serialization by a stable sort in this order.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    for nxt, out in machine_tables(k, "raw" if mode == "raw" else "canonical", cap=cap):
        for trans, outs in zip(nxt.tolist(), out.tolist()):
            machine = MealyMachine(k, trans, outs, 0)
            if mode == "strongly_connected" and not is_strongly_connected(machine):
                continue
            yield machine


def count_machines(k: int, mode: str = "raw", *, cap: int | None = None) -> int:
    """Exact count of machines yielded by :func:`enumerate_machines`; the raw
    and canonical counts are the row counts of :func:`machine_tables`."""
    if mode in _TABLE_MODES:
        return sum(len(nxt) for nxt, _ in machine_tables(k, mode, cap=cap))
    return sum(1 for _ in enumerate_machines(k, mode, cap=cap))
