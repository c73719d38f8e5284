"""Online next-bit predictors for machine-generated streams.

All predictors share one protocol: call ``predict()`` for the upcoming bit,
then ``observe()`` the bit that actually arrived; ``reset()`` returns to the
initial knowledge state. :func:`run_beside` runs it beside a generator. A
prediction may depend only on the observed prefix, with one sanctioned
exception: :class:`KnownStatePredictor` is granted the generator's true state
through ``inform_state`` (evaluation drivers call it before every
``predict``) and exists to measure the perfect-knowledge floor.

Every predictor offers ``snapshot``/``restore``, which exact evaluation
requires. The model-tracking predictors share one count vector: the ensemble
is the consistency predictor of the disjoint union of its candidates, and the
consistency predictor reads its machine's tables alone, keeping per observed
bit and state the successors of the inputs that emit that bit. Its
``next_counts`` and ``guess``, pure functions of a count vector, serve
``observe``, ``predict`` and exact evaluation alike. The ensemble's
``pair_counts`` sums its vector per candidate. :func:`training_pool`, an
ensemble that has observed training data, is where batch selection and search
read the consistent (input sequence, machine) pairs. A label that names a
machine hashes it only when read.
"""

from __future__ import annotations

import logging
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .automaton import Bits, MealyMachine, machine_id
from .machines import constant_machine

log = logging.getLogger(__name__)


class InconsistentObservation(ValueError):
    """The observed prefix cannot be produced by the assumed machine(s)."""


class Predictor(ABC):
    """Online predictor contract; see the module docstring for the protocol.

    ``snapshot()``/``restore()`` drive exact evaluation: the engine merges
    observation branches that leave equal snapshots, so a snapshot must be
    hashable and capture everything later predictions depend on (state given
    through ``inform_state`` may steer ``predict`` but not ``observe``).
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

    @abstractmethod
    def snapshot(self): ...

    @abstractmethod
    def restore(self, snap) -> None: ...


class KnownStatePredictor(Predictor):
    """Predicts the forced bit in biased states, 0 in unbiased ones.

    Requires the true active state via ``inform_state`` before each
    prediction; used only to compute the perfect-knowledge error floor.
    """

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        self._state = machine.initial_state

    @property
    def label(self) -> str:
        return f"known-state:{machine_id(self.machine)[:12]}"

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


class ConsistencyPredictor(Predictor):
    """Optimal predictor when the machine is known but its state is not.

    Tracks, per state, the exact number of input sequences consistent with
    the observed output prefix that end there: the unnormalized forward
    vector of the machine read as an edge-emitting HMM. The counts of
    one-step continuations emitting 0 versus 1 decide the prediction; ties
    go to 0. Counts are exact big integers, so ties are decided exactly.

    An observation that empties the consistency class leaves the predictor
    dead, not ``consistent``: its counts all zero, it guesses the tie-rule 0.
    """

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        # per observed bit and state: the successors of the inputs emitting it
        self._succ = tuple(
            tuple(tuple(n for n, o in zip(nxt, out) if o == bit)
                  for nxt, out in zip(machine.transition, machine.output))
            for bit in (0, 1)
        )
        self._deg = tuple(tuple(map(len, rows)) for rows in self._succ)
        self._start = tuple(int(s == machine.initial_state) for s in range(machine.num_states))
        # the machines counted and, per machine, its (first, end) states in the vector
        self.members, self.blocks = (machine,), ((0, machine.num_states),)
        self.reset()

    @property
    def label(self) -> str:
        return f"consistency:{machine_id(self.machine)[:12]}"

    def reset(self):
        self._counts = self._start

    @property
    def consistency_vector(self) -> tuple[int, ...]:
        return self._counts

    @property
    def consistent(self) -> bool:
        return any(self._counts)

    def pending_counts(self) -> tuple[int, int]:
        """(#continuations emitting 0, #continuations emitting 1)."""
        return tuple(sum(map(operator.mul, self._counts, d)) for d in self._deg)

    def guess(self, counts: tuple[int, ...]) -> int:
        """1 if more continuations of ``counts`` emit 1 than 0; ties go to 0."""
        d0, d1 = self._deg
        return int(sum(map(operator.mul, counts, d1)) > sum(map(operator.mul, counts, d0)))

    def next_counts(self, counts: tuple[int, ...], bit: int) -> tuple[int, ...]:
        """``counts`` after observing ``bit``; all zero if no sequence emits it."""
        new = [0] * len(counts)
        for c, succ in zip(counts, self._succ[bit]):
            if c:
                for n in succ:
                    new[n] += c
        return tuple(new)

    def predict(self) -> int:
        return self.guess(self._counts)

    def observe(self, bit: int):
        if bit not in (0, 1):
            raise ValueError(f"invalid bit {bit!r}")
        before, self._counts = self._counts, self.next_counts(self._counts, bit)
        # logged once, by the observation that empties the vector; the label hashes the machine
        if log.isEnabledFor(logging.DEBUG) and any(before) and not any(self._counts):
            log.debug("%s: model ruled out by observation", self.label)

    def _impossible(self, bit: int) -> str:
        return (
            f"observed bit {bit} is impossible for machine "
            f"{machine_id(self.machine)[:12]} given the prefix so far"
        )

    def snapshot(self):
        return self._counts

    def restore(self, snap):
        self._counts = tuple(snap)


class EnsemblePredictor(ConsistencyPredictor):
    """Optimal predictor when the machine is one of a known finite set.

    Counts the still-consistent (machine, input sequence) pairs, each pair
    weighted equally. That is consistency prediction on the disjoint union of
    the candidates, one block of states each, started with one count at each
    candidate's initial state. Candidates ruled out by an observation drop
    out; when every candidate is gone the ensemble is dead.
    """

    def __init__(self, machines: Sequence[MealyMachine]):
        if not machines:
            raise ValueError("ensemble needs at least one machine")
        ends = tuple(accumulate(m.num_states for m in machines))
        offsets = (0,) + ends[:-1]
        union = MealyMachine(
            ends[-1],
            tuple(tuple(o + s for s in row) for m, o in zip(machines, offsets) for row in m.transition),
            tuple(row for m in machines for row in m.output),
        )
        super().__init__(union)
        self.members, self.blocks = tuple(machines), tuple(zip(offsets, ends))
        self._start = tuple(int(s == m.initial_state) for m in machines for s in range(m.num_states))
        self.reset()

    @property
    def label(self) -> str:
        return f"ensemble-{len(self.members)}"

    def pair_counts(self) -> tuple[int, ...]:
        """Per candidate, the input sequences that produce the observed prefix."""
        return tuple(sum(self._counts[a:b]) for a, b in self.blocks)

    def alive(self) -> tuple[int, ...]:
        """Indices of the candidates that can still produce the observed prefix."""
        return tuple(i for i, n in enumerate(self.pair_counts()) if n)

    def observe(self, bit: int):
        before = self.alive() if log.isEnabledFor(logging.DEBUG) else ()
        super().observe(bit)
        now = self.alive() if before else ()
        for i in before:
            if i not in now:
                log.debug("ensemble: candidate %d (consistency:%s) eliminated",
                          i, machine_id(self.members[i])[:12])

    def _impossible(self, bit: int) -> str:
        return "observed prefix is impossible for every machine in the ensemble"


def training_pool(machines: Sequence[MealyMachine], observed: Bits) -> EnsemblePredictor:
    """The ensemble of ``machines`` after ``observed``: its counts are the
    consistent (input sequence, machine) pairs by end state of the union."""
    pool = EnsemblePredictor(machines)
    for bit in observed:
        if not pool.consistent:
            break
        pool.observe(bit)
    return pool


class AutomatonPredictor(Predictor):
    """A machine used as a predictor under a fixed state budget.

    The machine consumes observed bits as its input; the bit it emits on each
    step is its prediction for the next observation. The first prediction is
    primed by feeding a virtual 0 from the initial state (the priming step
    advances the state like any other input).
    """

    def __init__(self, machine: MealyMachine):
        self.machine = machine
        self._state = 0
        self._pending = 0
        self.reset()

    @property
    def label(self) -> str:
        # hashed on read: search builds many of these and never reads it
        return f"automaton:{machine_id(self.machine)[:12]}"

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


class ConstantPredictor(AutomatonPredictor):
    """Always predicts the same bit: the one-state machine emitting it."""

    def __init__(self, bit: int):
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self.bit = bit
        super().__init__(constant_machine(bit))

    @property
    def label(self) -> str:
        return f"always-{self.bit}"


def run_beside(machine: MealyMachine, predictor: Predictor, bits: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The online protocol: reset ``predictor``, then per input bit tell it
    the generator's state, take its guess, show it the bit ``machine`` emits
    and yield (guess, emitted bit)."""
    predictor.reset()
    state = machine.initial_state
    for b in bits:
        predictor.inform_state(state)
        guess = predictor.predict()
        state, out = machine.step(state, b)
        predictor.observe(out)
        yield guess, out


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
    output bit one step ahead. A consistency or ensemble predictor that an
    output bit leaves dead raises :class:`InconsistentObservation` there."""
    if isinstance(input_bits, str):
        input_bits = Bits.from_string(input_bits)
    counting, steps = isinstance(predictor, ConsistencyPredictor), []
    for guess, out in run_beside(machine, predictor, input_bits):
        if counting and not predictor.consistent:
            raise InconsistentObservation(predictor._impossible(out))
        steps.append((guess, out))
    return PredictorTrace(
        tuple(g for g, _ in steps),
        tuple(o for _, o in steps),
        tuple(accumulate(int(g != o) for g, o in steps)),
        bool(getattr(predictor, "consistent", True)),
    )
