"""Online next-bit predictors for machine-generated streams.

All predictors share one protocol: call ``predict()`` for the upcoming bit,
then ``observe()`` the bit that actually arrived; ``reset()`` returns to the
initial knowledge state. A prediction may depend only on the observed prefix,
with one sanctioned exception: :class:`KnownStatePredictor` is granted the
generator's true state through ``inform_state`` (evaluation drivers call it
before every ``predict``) and exists to measure the perfect-knowledge floor.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

from .automaton import Bits, MealyMachine, machine_id

log = logging.getLogger(__name__)


class InconsistentObservation(ValueError):
    """The observed prefix cannot be produced by the assumed machine(s)."""


class Predictor(ABC):
    """Online predictor contract; see the module docstring for the protocol.

    ``snapshot()``/``restore()`` drive exact evaluation: the engine merges
    observation branches that leave equal snapshots, so a snapshot must be
    hashable and capture everything later predictions depend on (state given
    through ``inform_state`` may steer ``predict`` but not ``observe``).
    Without them, exact evaluation falls back to a per-sequence loop over
    every input sequence.
    """

    label: str = "predictor"

    @abstractmethod
    def reset(self) -> None: ...

    @abstractmethod
    def predict(self) -> int: ...

    @abstractmethod
    def observe(self, bit: int) -> None: ...

    def inform_state(self, state: int) -> None:
        """Receive the generator's true state; ignored by ordinary predictors."""

    def snapshot(self):
        raise NotImplementedError

    def restore(self, snap) -> None:
        raise NotImplementedError


class ConstantPredictor(Predictor):
    """Always predicts the same bit."""

    def __init__(self, bit: int):
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self.bit = bit
        self.label = f"always-{bit}"

    def reset(self):
        pass

    def predict(self) -> int:
        return self.bit

    def observe(self, bit: int):
        pass

    def snapshot(self):
        return None

    def restore(self, snap):
        pass


class KnownStatePredictor(Predictor):
    """Predicts the forced bit in biased states, 0 in unbiased ones.

    Requires the true active state via ``inform_state`` before each
    prediction; used only to compute the perfect-knowledge error floor.
    """

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        self._state = machine.initial_state
        self.label = f"known-state:{machine_id(machine)[:12]}"

    def reset(self):
        self._state = self.machine.initial_state

    def inform_state(self, state: int):
        self._state = state

    def predict(self) -> int:
        o0, o1 = self.machine.output[self._state]
        return o0 if o0 == o1 else 0

    def observe(self, bit: int):
        pass

    def snapshot(self):
        return self._state

    def restore(self, snap):
        self._state = snap


@dataclass(frozen=True)
class OutputTransitionMatrices:
    """Transition-count matrices split by emitted bit.

    ``m0[i][j]`` counts input bits taking state i to state j while emitting 0;
    ``m1`` likewise for 1. Entrywise, ``m0 + m1`` is the adjacency matrix.
    """

    m0: tuple[tuple[int, ...], ...]
    m1: tuple[tuple[int, ...], ...]

    @classmethod
    def from_machine(cls, machine: MealyMachine) -> "OutputTransitionMatrices":
        k = machine.num_states
        m = [[[0] * k for _ in range(k)], [[0] * k for _ in range(k)]]
        for s in range(k):
            for b in (0, 1):
                m[machine.output[s][b]][s][machine.transition[s][b]] += 1
        return cls(
            tuple(tuple(row) for row in m[0]),
            tuple(tuple(row) for row in m[1]),
        )

    def sparse_rows(self, bit: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Rows as (column, count) pairs; each row has at most two entries."""
        rows = self.m1 if bit else self.m0
        return tuple(
            tuple((j, v) for j, v in enumerate(row) if v) for row in rows
        )

    def out_degrees(self, bit: int) -> tuple[int, ...]:
        """Per state, how many of its two input bits emit ``bit``."""
        rows = self.m1 if bit else self.m0
        return tuple(sum(row) for row in rows)


def advance_counts(
    counts: Sequence[int],
    sparse_rows: tuple[tuple[tuple[int, int], ...], ...],
) -> list[int]:
    """Evolve per-state sequence counts one step along transitions emitting a
    fixed bit; counts stay exact integers."""
    out = [0] * len(counts)
    for c, row in zip(counts, sparse_rows):
        if c:
            for j, v in row:
                out[j] += c if v == 1 else c + c
    return out


class ConsistencyPredictor(Predictor):
    """Optimal predictor when the machine is known but its state is not.

    Tracks, per state, the exact number of input sequences consistent with
    the observed output prefix that end there. The counts of one-step
    continuations emitting 0 versus 1 decide the prediction; ties go to 0.
    Counts are exact big integers, so ties are decided exactly.

    With ``strict`` set (the default) an observation that empties the
    consistency class raises :class:`InconsistentObservation`; otherwise the
    predictor goes dead and keeps emitting the tie-rule 0.
    """

    def __init__(self, machine: MealyMachine, *, strict: bool = True):
        self.machine = machine
        self.matrices = OutputTransitionMatrices.from_machine(machine)
        self._rows = (self.matrices.sparse_rows(0), self.matrices.sparse_rows(1))
        self._deg = (self.matrices.out_degrees(0), self.matrices.out_degrees(1))
        self.strict = strict
        self.label = f"consistency:{machine_id(machine)[:12]}"
        self._counts: list[int] = []
        self.reset()

    def reset(self):
        self._counts = [0] * self.machine.num_states
        self._counts[self.machine.initial_state] = 1

    @property
    def consistency_vector(self) -> tuple[int, ...]:
        return tuple(self._counts)

    @property
    def consistent(self) -> bool:
        return any(self._counts)

    def pending_counts(self) -> tuple[int, int]:
        """(#continuations emitting 0, #continuations emitting 1)."""
        d0, d1 = self._deg
        p = q = 0
        for c, a, b in zip(self._counts, d0, d1):
            if c:
                p += c * a
                q += c * b
        return p, q

    def predict(self) -> int:
        p, q = self.pending_counts()
        return 0 if p >= q else 1

    def observe(self, bit: int):
        if bit not in (0, 1):
            raise ValueError(f"invalid bit {bit!r}")
        new = advance_counts(self._counts, self._rows[bit])
        if not any(new):
            if self.strict:
                raise InconsistentObservation(
                    f"observed bit {bit} is impossible for machine "
                    f"{machine_id(self.machine)[:12]} given the prefix so far"
                )
            log.debug("%s: model ruled out by observation", self.label)
        self._counts = new

    def snapshot(self):
        return tuple(self._counts)

    def restore(self, snap):
        self._counts = list(snap)


class EnsemblePredictor(Predictor):
    """Optimal predictor when the machine is one of a known finite set.

    Keeps one consistency count vector per candidate and compares the summed
    continuation counts across all still-consistent (machine, sequence)
    pairs, each pair weighted equally. Candidates ruled out by an observation
    are dropped silently; only when every candidate is gone does a strict
    ensemble raise.
    """

    def __init__(self, machines: Sequence[MealyMachine], *, strict: bool = True):
        if not machines:
            raise ValueError("ensemble needs at least one machine")
        self.members = tuple(
            ConsistencyPredictor(m, strict=False) for m in machines
        )
        self.strict = strict
        self.label = f"ensemble-{len(self.members)}"

    def reset(self):
        for m in self.members:
            m.reset()

    def alive(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.members) if m.consistent)

    def pending_counts(self) -> tuple[int, int]:
        p = q = 0
        for m in self.members:
            mp, mq = m.pending_counts()
            p += mp
            q += mq
        return p, q

    def predict(self) -> int:
        p, q = self.pending_counts()
        return 0 if p >= q else 1

    def observe(self, bit: int):
        before = self.snapshot() if self.strict else None
        for i, m in enumerate(self.members):
            was_alive = m.consistent
            m.observe(bit)
            if was_alive and not m.consistent:
                log.debug("ensemble: candidate %d (%s) eliminated", i, m.label)
        if self.strict and not any(m.consistent for m in self.members):
            self.restore(before)
            raise InconsistentObservation(
                "observed prefix is impossible for every machine in the ensemble"
            )

    def snapshot(self):
        return tuple(m.snapshot() for m in self.members)

    def restore(self, snap):
        for m, s in zip(self.members, snap):
            m.restore(s)


class AutomatonPredictor(Predictor):
    """A machine used as a predictor under a fixed state budget.

    The machine consumes observed bits as its input; the bit it emits on each
    step is its prediction for the next observation. The first prediction is
    primed by feeding a virtual 0 from the initial state (the priming step
    advances the state like any other input).
    """

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        self.label = f"automaton:{machine_id(machine)[:12]}"
        self._state = 0
        self._pending = 0
        self.reset()

    def reset(self):
        self._state, self._pending = self.machine.step(self.machine.initial_state, 0)

    def predict(self) -> int:
        return self._pending

    def observe(self, bit: int):
        self._state, self._pending = self.machine.step(self._state, bit)

    def snapshot(self):
        return (self._state, self._pending)

    def restore(self, snap):
        self._state, self._pending = snap


@dataclass(frozen=True)
class PredictorTrace:
    """Step-by-step record of one prediction run."""

    predictions: tuple[int, ...]
    observed: tuple[int, ...]
    cumulative_errors: tuple[int, ...]
    consistent: bool

    @property
    def total_errors(self) -> int:
        return self.cumulative_errors[-1] if self.cumulative_errors else 0

    @property
    def error_rate(self) -> float:
        if not self.predictions:
            return 0.0
        return self.total_errors / len(self.predictions)


def trace_predictor(
    machine: MealyMachine, predictor: Predictor, input_bits: Bits | str
) -> PredictorTrace:
    """Run ``machine`` on ``input_bits`` while the predictor guesses each
    output bit one step ahead."""
    if isinstance(input_bits, str):
        input_bits = Bits.from_string(input_bits)
    predictor.reset()
    state = machine.initial_state
    predictions: list[int] = []
    observed: list[int] = []
    cumulative: list[int] = []
    errors = 0
    for b in input_bits:
        predictor.inform_state(state)
        p = predictor.predict()
        state, out = machine.step(state, b)
        errors += int(p != out)
        predictor.observe(out)
        predictions.append(p)
        observed.append(out)
        cumulative.append(errors)
    consistent = getattr(predictor, "consistent", True)
    if isinstance(predictor, EnsemblePredictor):
        consistent = bool(predictor.alive())
    return PredictorTrace(
        tuple(predictions), tuple(observed), tuple(cumulative), bool(consistent)
    )
