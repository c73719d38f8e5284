"""Exhaustive enumeration of k-state machines, up to state relabeling.

There are ``(2k)**(2k)`` raw machines on k states: each of the 2k
(state, input) slots independently picks a successor and an output bit.
Relabelings that keep the distinguished initial state at index 0 identify
isomorphic machines; canonical mode yields the lexicographically least
member of each class. The quotient is far smaller than dividing by k!
suggests, because only permutations fixing the initial state apply.

The machines are produced as integer ``(next, out)`` tables, a fixed-size
chunk at a time (:func:`machine_tables`) in every mode; listing and counting
read the chunks, and predictor search scores them without building machines.
"""

from __future__ import annotations

import math
from itertools import permutations, product
from typing import Iterator

import numpy as np

from .automaton import MealyMachine

RAW_K_CAP = 3
CANONICAL_K_CAP = 4
CHUNK_ROWS = 1 << 13  # most raw rows per table chunk: k=3 spans 6 chunks, k=4 spans 4,096

_MODES = ("raw", "canonical", "strongly_connected")


class CapExceeded(RuntimeError):
    """A requested sweep is larger than the configured safety cap."""


def raw_machine_count(k: int) -> int:
    """Number of raw k-state machines: (2k)**(2k)."""
    return (2 * k) ** (2 * k)


def default_k_cap(mode: str) -> int:
    """The cap on ``k`` when none is given; strong connectivity filters the canonical list."""
    return RAW_K_CAP if mode == "raw" else CANONICAL_K_CAP


def _relabelings(k: int) -> list[tuple[tuple[int, ...], bytes]]:
    """Every state relabeling ``perm`` that fixes state 0, the identity first.

    Each is given as the old slots in new order (new state ``perm[s]`` takes
    old state ``s``'s two slots), and per old slot code ``2 * next + out`` the
    code it becomes once its successor is renamed. The one definition of a
    relabeling: the canonical filter, :func:`canonicalize` and
    :func:`orbit_size` all read it.
    """
    out = []
    for images in permutations(range(1, k)):
        perm = (0,) + images
        inverse = sorted(range(k), key=perm.__getitem__)
        slots = tuple([2 * s + b for s in inverse for b in (0, 1)])
        out.append((slots, bytes([2 * perm[c >> 1] + (c & 1) for c in range(2 * k)])))
    return out


def relabel(machine: MealyMachine, perm: tuple[int, ...]) -> MealyMachine:
    """Rename states by ``perm`` (old index -> new index); behavior is unchanged."""
    inverse = sorted(range(machine.num_states), key=perm.__getitem__)
    trans = [[perm[n] for n in machine.transition[s]] for s in inverse]
    out = [machine.output[s] for s in inverse]
    return MealyMachine(machine.num_states, trans, out, perm[machine.initial_state])


def _relabeled_keys(machine: MealyMachine) -> list[bytes]:
    """The slot codes of the machine under every admissible relabeling, in
    :func:`_relabelings` order, once a swap has moved its initial state to 0."""
    k, s0 = machine.num_states, machine.initial_state
    swap = list(range(k))
    swap[0], swap[s0] = s0, 0
    m = relabel(machine, tuple(swap)) if s0 else machine
    codes = bytes([2 * m.transition[s][b] + m.output[s][b] for s in range(k) for b in (0, 1)])
    return [bytes([rename[codes[i]] for i in slots]) for slots, rename in _relabelings(k)]


def canonicalize(machine: MealyMachine) -> MealyMachine:
    """The least serialization among relabelings putting the initial state at 0.

    Idempotent, and identical for isomorphic machines; used as the identity
    for counting machine classes and deduplicating search spaces.
    """
    codes = np.frombuffer(min(_relabeled_keys(machine)), dtype=np.uint8).reshape(-1, 2)
    return MealyMachine(machine.num_states, codes >> 1, codes & 1, 0)


def orbit_size(machine: MealyMachine) -> int:
    """Number of distinct machines reachable by admissible relabelings."""
    return len(set(_relabeled_keys(machine)))


def _strongly_connected(nxt: np.ndarray) -> np.ndarray:
    """Which rows of an ``(n, k, 2)`` successor table are strongly connected:
    state 0 reaches every state and every state reaches 0. Warshall's closure
    of I + A by ``ceil(log2(k - 1))`` boolean squarings covers every path."""
    k = nxt.shape[1]
    eye = np.eye(k, dtype=bool)
    reach = eye[nxt[..., 0]] | eye[nxt[..., 1]] | eye  # I + A: row s marks s and its successors
    for _ in range((k - 2).bit_length()):
        reach = reach @ reach
    return reach[:, 0].all(axis=1) & reach[:, :, 0].all(axis=1)


def is_strongly_connected(machine: MealyMachine) -> bool:
    """True when every state reaches every other: one row of the mode's filter."""
    return bool(_strongly_connected(np.array(machine.transition)[None])[0])


def _keys(slots: np.ndarray) -> np.ndarray:
    """Rows as byte strings, which compare like the keys of :func:`_relabeled_keys`:
    the first differing slot code decides. NumPy ignores trailing NUL bytes when
    it compares them, which keeps this order, since NUL is the least byte."""
    return np.ascontiguousarray(slots, dtype=np.uint8).view(f"S{slots.shape[1]}").ravel()


def machine_tables(
    k: int,
    mode: str,
    *,
    cap: int | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The k-state machines as ``(next, out)`` tables of shape ``(n, k, 2)``, an iterator.

    Row i of the raw list holds the base-2k digits of i, one slot code
    ``2 * next + out`` per (state, input) slot, so rows come in serialization
    order. Each chunk fixes the leading slots and runs through every choice of
    the trailing ones, at most ``CHUNK_ROWS`` rows. ``mode`` is ``raw``;
    ``canonical`` for the rows that are least among their relabelings; or
    ``strongly_connected`` for the canonical rows whose transition digraph is
    strongly connected. ``cap`` bounds ``k``, :func:`default_k_cap` unless
    given; the arguments are checked at the call, not at the first chunk.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    if k < 1:
        raise ValueError("state count must be positive")
    cap = default_k_cap(mode) if cap is None else cap
    if k > cap:
        rough = f"{raw_machine_count(k):.3g}" if k < 64 else f"10^{2 * k * math.log10(2 * k):.3g}"
        raise CapExceeded(
            f"enumeration of {k}-state machines in {mode.replace('_', '-')} mode "
            f"exceeds the cap of {cap} (roughly {rough} raw machines)"
        )

    def chunks():
        base, width = 2 * k, 2 * k
        trailing = 1
        while trailing < width and base ** (trailing + 1) <= CHUNK_ROWS:
            trailing += 1
        tail = np.indices((base,) * trailing, dtype=np.uint8).reshape(trailing, -1).T
        entries = _relabelings(k)[1:] if mode != "raw" else []  # the first is the identity
        relabelings = [(np.array(columns), np.frombuffer(rename, np.uint8)) for columns, rename in entries]
        for lead in product(range(base), repeat=width - trailing):
            slots = np.hstack([np.full((len(tail), len(lead)), lead, dtype=np.uint8), tail])
            for columns, rename in relabelings:
                slots = slots[_keys(rename[slots[:, columns]]) >= _keys(slots)]
            if mode == "strongly_connected":
                slots = slots[_strongly_connected(slots.reshape(-1, k, 2) >> 1)]
            slots = slots.astype(np.intp)
            yield (slots >> 1).reshape(-1, k, 2), (slots & 1).reshape(-1, k, 2)
    return chunks()


def enumerate_machines(
    k: int,
    mode: str = "raw",
    *,
    cap: int | None = None,
) -> Iterator[MealyMachine]:
    """Every k-state machine once, in serialization order, as an iterator.

    ``raw`` yields all (2k)**(2k) machines; ``canonical`` one representative
    per relabeling class; ``strongly_connected`` the canonical machines whose
    transition digraph is strongly connected. All machines start at state 0.
    The ordering is pure integer comparison, identical on every platform.
    Predictor search scores the same :func:`machine_tables` chunks and breaks
    score ties toward the least serialization by a stable sort in this order.
    Like :func:`machine_tables`, it checks its arguments when called.
    """
    return (MealyMachine(k, trans, outs, 0) for nxt, out in machine_tables(k, mode, cap=cap)
            for trans, outs in zip(nxt.tolist(), out.tolist()))


def count_machines(k: int, mode: str = "raw", *, cap: int | None = None) -> int:
    """Exact count of machines yielded by :func:`enumerate_machines`: the row
    count of :func:`machine_tables`, in every mode."""
    return sum(len(nxt) for nxt, _ in machine_tables(k, mode, cap=cap))
