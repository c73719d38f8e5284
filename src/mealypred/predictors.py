"""Online next-bit predictors for machine-generated streams.

All predictors share one protocol: call ``predict()`` for the upcoming bit,
then ``observe()`` the bit that actually arrived; ``reset()`` returns to the
initial knowledge state. A prediction may depend only on the observed prefix,
with one sanctioned exception: :class:`KnownStatePredictor` is granted the
generator's true state through ``inform_state`` (evaluation drivers call it
before every ``predict``) and exists to measure the perfect-knowledge floor.

Every predictor offers ``snapshot``/``restore``, which exact evaluation
requires. The model-tracking predictors share one count vector: the ensemble
is the consistency predictor of the disjoint union of its candidates, and the
consistency predictor reads its machine's tables alone, keeping per observed
bit and state the successors of the inputs that emit that bit. A label that
names a machine hashes it only when read.
"""

from __future__ import annotations

import logging
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import accumulate
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

    With ``strict`` set (the default) an observation that empties the
    consistency class raises :class:`InconsistentObservation` and leaves the
    counts as they were; otherwise the predictor goes dead and keeps
    emitting the tie-rule 0.
    """

    def __init__(self, machine: MealyMachine, *, strict: bool = True):
        self.machine = machine
        # per observed bit and state: the successors of the inputs emitting it
        self._succ = tuple(
            tuple(tuple(n for n, o in zip(nxt, out) if o == bit)
                  for nxt, out in zip(machine.transition, machine.output))
            for bit in (0, 1)
        )
        self._deg = tuple(tuple(map(len, rows)) for rows in self._succ)
        self.strict = strict
        self._start = tuple(int(s == machine.initial_state) for s in range(machine.num_states))
        self.reset()

    @property
    def label(self) -> str:
        return f"consistency:{machine_id(self.machine)[:12]}"

    def reset(self):
        self._counts = list(self._start)

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
        new = [0] * len(self._counts)
        for c, succ in zip(self._counts, self._succ[bit]):
            if c:
                for n in succ:
                    new[n] += c
        if not any(new):
            if self.strict:
                raise InconsistentObservation(self._impossible(bit))
            if log.isEnabledFor(logging.DEBUG):  # the label hashes the machine
                log.debug("%s: model ruled out by observation", self.label)
        self._counts = new

    def _impossible(self, bit: int) -> str:
        return (
            f"observed bit {bit} is impossible for machine "
            f"{machine_id(self.machine)[:12]} given the prefix so far"
        )

    def snapshot(self):
        return tuple(self._counts)

    def restore(self, snap):
        self._counts = list(snap)


class EnsemblePredictor(ConsistencyPredictor):
    """Optimal predictor when the machine is one of a known finite set.

    Counts the still-consistent (machine, input sequence) pairs, each pair
    weighted equally. That is consistency prediction on the disjoint union of
    the candidates, one block of states each, started with one count at each
    candidate's initial state. Candidates ruled out by an observation drop
    out silently; only when every candidate is gone does a strict ensemble
    raise.
    """

    def __init__(self, machines: Sequence[MealyMachine], *, strict: bool = True):
        if not machines:
            raise ValueError("ensemble needs at least one machine")
        ends = tuple(accumulate(m.num_states for m in machines))
        offsets = (0,) + ends[:-1]
        union = MealyMachine(
            ends[-1],
            tuple(tuple(o + s for s in row) for m, o in zip(machines, offsets) for row in m.transition),
            tuple(row for m in machines for row in m.output),
        )
        super().__init__(union, strict=strict)
        self._members = tuple(machines)
        self._blocks = tuple(zip(offsets, ends))
        self._start = tuple(int(s == m.initial_state) for m in machines for s in range(m.num_states))
        self.reset()

    @property
    def label(self) -> str:
        return f"ensemble-{len(self._members)}"

    def alive(self) -> tuple[int, ...]:
        """Indices of the candidates that can still produce the observed prefix."""
        return tuple(i for i, (a, b) in enumerate(self._blocks) if any(self._counts[a:b]))

    def observe(self, bit: int):
        before = self.alive() if log.isEnabledFor(logging.DEBUG) else ()
        super().observe(bit)
        now = self.alive() if before else ()
        for i in before:
            if i not in now:
                log.debug("ensemble: candidate %d (consistency:%s) eliminated",
                          i, machine_id(self._members[i])[:12])

    def _impossible(self, bit: int) -> str:
        return "observed prefix is impossible for every machine in the ensemble"


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
    return PredictorTrace(
        tuple(predictions), tuple(observed), tuple(cumulative), bool(consistent)
    )
