"""Binary Mealy machines: construction, simulation, and a line-oriented text format.

A machine has k states indexed 0..k-1, a designated initial state, and for
every (state, input bit) pair exactly one successor state and one output bit.
All types here are immutable once built, so they can be shared freely across
threads and processes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Iterator


class InvalidStateError(ValueError):
    """A state index outside ``[0, num_states)``."""


class MachineFormatError(ValueError):
    """A machine document that violates the text format.

    ``line`` holds the offending 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class StateClass(Enum):
    """Output signature of a state: (output on input 0, output on input 1)."""

    L00 = (0, 0)
    L01 = (0, 1)
    L10 = (1, 0)
    L11 = (1, 1)

    @property
    def biased(self) -> bool:
        """True when both inputs emit the same bit, so the next output is certain."""
        return self.value[0] == self.value[1]


@dataclass(frozen=True)
class Bits:
    """An immutable bit sequence packed into a single integer.

    Bit ``i`` of ``value`` is element ``i`` of the sequence, so iterating
    ``value`` over ``range(2 ** length)`` enumerates every sequence of that
    length exactly once.
    """

    value: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be nonnegative")
        if self.value < 0 or self.value >> self.length:
            raise ValueError("value has bits beyond the declared length")

    @classmethod
    def from_string(cls, text: str) -> "Bits":
        value = 0
        n = 0
        for ch in text:
            if ch.isspace():
                continue
            if ch == "1":
                value |= 1 << n
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
            n += 1
        return cls(value, n)

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.length):
            yield v & 1
            v >>= 1

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> i) & 1

    def prefix(self, n: int) -> "Bits":
        if not 0 <= n <= self.length:
            raise ValueError(f"prefix length {n} out of range")
        return Bits(self.value & ((1 << n) - 1), n)

    def append(self, bit: int) -> "Bits":
        if bit not in (0, 1):
            raise ValueError(f"invalid bit {bit!r}")
        return Bits(self.value | (bit << self.length), self.length + 1)

    def __str__(self) -> str:
        return "".join(str(b) for b in self)

    def __repr__(self) -> str:
        return f"Bits({str(self)!r})"


@dataclass(frozen=True)
class MealyMachine:
    """A deterministic finite-state transducer over the binary alphabet.

    ``transition[s][b]`` and ``output[s][b]`` give the successor state and the
    emitted bit when input ``b`` arrives while state ``s`` is active.
    """

    num_states: int
    transition: tuple[tuple[int, int], ...]
    output: tuple[tuple[int, int], ...]
    initial_state: int = 0

    def __post_init__(self):
        k = self.num_states
        if k <= 0:
            raise ValueError("a machine needs at least one state")
        trans = tuple(tuple(int(x) for x in row) for row in self.transition)
        out = tuple(tuple(int(x) for x in row) for row in self.output)
        object.__setattr__(self, "transition", trans)
        object.__setattr__(self, "output", out)
        if len(trans) != k or len(out) != k:
            raise ValueError("transition/output tables must have one row per state")
        for s in range(k):
            if len(trans[s]) != 2 or len(out[s]) != 2:
                raise ValueError(f"state {s} needs exactly two entries")
            for b in (0, 1):
                if not 0 <= trans[s][b] < k:
                    raise ValueError(f"transition ({s},{b}) targets state {trans[s][b]} out of range")
                if out[s][b] not in (0, 1):
                    raise ValueError(f"output ({s},{b}) must be a bit")
        if not 0 <= self.initial_state < k:
            raise ValueError(f"initial state {self.initial_state} out of range")

    def step(self, state: int, bit: int) -> tuple[int, int]:
        """Advance one input bit: returns (next state, output bit)."""
        if not 0 <= state < self.num_states:
            raise InvalidStateError(f"state {state} out of range for {self.num_states}-state machine")
        if bit not in (0, 1):
            raise ValueError(f"invalid input bit {bit!r}")
        return self.transition[state][bit], self.output[state][bit]

    def run(self, bits: Bits | str) -> Bits:
        """Output sequence for the given input, starting from the initial state."""
        return self.run_with_states(bits)[0]

    def run_with_states(self, bits: Bits | str) -> tuple[Bits, tuple[int, ...]]:
        """Like :meth:`run` but also returns the visited-state path.

        The path includes the initial state, so it is one longer than the input.
        """
        if isinstance(bits, str):
            bits = Bits.from_string(bits)
        state = self.initial_state
        path = [state]
        out_value = 0
        for i, b in enumerate(bits):
            state, o = self.transition[state][b], self.output[state][b]
            out_value |= o << i
            path.append(state)
        return Bits(out_value, len(bits)), tuple(path)

    def classify(self, state: int) -> StateClass:
        if not 0 <= state < self.num_states:
            raise InvalidStateError(f"state {state} out of range")
        return StateClass(self.output[state])

    def unbiased_states(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.num_states) if not self.classify(s).biased)

    def biased_states(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.num_states) if self.classify(s).biased)

    def reachable_states(self, start: int | None = None) -> frozenset[int]:
        """States reachable from ``start``, the initial state by default."""
        start = self.initial_state if start is None else start
        seen = {start}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for b in (0, 1):
                n = self.transition[s][b]
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        return frozenset(seen)


def serialize_machine(machine: MealyMachine) -> str:
    """Canonical text form: header lines then entries sorted by (state, input).

    This exact byte form is the identity key used for hashing and caching.
    """
    lines = [f"mealy {machine.num_states}", f"initial {machine.initial_state}"]
    for s in range(machine.num_states):
        for b in (0, 1):
            lines.append(f"{s} {b} -> {machine.transition[s][b]} {machine.output[s][b]}")
    return "\n".join(lines) + "\n"


def machine_id(machine: MealyMachine) -> str:
    """SHA-256 of the canonical serialization; stable identity for reports."""
    return hashlib.sha256(serialize_machine(machine).encode()).hexdigest()


def parse_machine(text: str) -> MealyMachine:
    """Parse the line-oriented machine format.

    Comment lines start with ``#``; blank lines are ignored. The first two
    meaningful lines must declare ``mealy <k>`` and ``initial <i>``; the 2k
    entry lines ``<state> <input> -> <next> <output>`` may follow in any
    order, each (state, input) pair exactly once.
    """
    num_states: int | None = None
    initial: int | None = None
    entries: dict[tuple[int, int], tuple[int, int, int]] = {}

    def fail(msg: str, line_no: int):
        raise MachineFormatError(msg, line_no)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if num_states is None:
            if len(tokens) != 2 or tokens[0] != "mealy":
                fail(f"expected 'mealy <k>', got {line!r}", line_no)
            try:
                num_states = int(tokens[1])
            except ValueError:
                fail(f"state count {tokens[1]!r} is not an integer", line_no)
            if num_states <= 0:
                fail("state count must be positive", line_no)
            continue
        if initial is None:
            if len(tokens) != 2 or tokens[0] != "initial":
                fail(f"expected 'initial <i>', got {line!r}", line_no)
            try:
                initial = int(tokens[1])
            except ValueError:
                fail(f"initial state {tokens[1]!r} is not an integer", line_no)
            if not 0 <= initial < num_states:
                fail(f"initial state {initial} out of range for {num_states} states", line_no)
            continue
        if len(tokens) != 5 or tokens[2] != "->":
            fail(f"expected '<state> <input> -> <next> <output>', got {line!r}", line_no)
        try:
            s, b, n, o = int(tokens[0]), int(tokens[1]), int(tokens[3]), int(tokens[4])
        except ValueError:
            fail(f"non-integer field in entry {line!r}", line_no)
        if not 0 <= s < num_states:
            fail(f"state {s} out of range for {num_states} states", line_no)
        if b not in (0, 1):
            fail(f"input bit must be 0 or 1, got {b}", line_no)
        if not 0 <= n < num_states:
            fail(f"target state {n} out of range for {num_states} states", line_no)
        if o not in (0, 1):
            fail(f"output bit must be 0 or 1, got {o}", line_no)
        if (s, b) in entries:
            fail(f"duplicate entry for state {s} input {b} (first at line {entries[(s, b)][2]})", line_no)
        entries[(s, b)] = (n, o, line_no)

    if num_states is None:
        raise MachineFormatError("empty document: missing 'mealy <k>' header")
    if initial is None:
        raise MachineFormatError("missing 'initial <i>' line")
    for s in range(num_states):
        for b in (0, 1):
            if (s, b) not in entries:
                raise MachineFormatError(f"missing entry for state {s} input {b}")

    transition = tuple(tuple(entries[(s, b)][0] for b in (0, 1)) for s in range(num_states))
    output = tuple(tuple(entries[(s, b)][1] for b in (0, 1)) for s in range(num_states))
    return MealyMachine(num_states, transition, output, initial)
