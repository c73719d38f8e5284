"""Error metrics for predictors, exact or sampled, plus batch-mode selection.

The exact evaluators average per-bit prediction error over every input
sequence of a given length with one engine, a merged-frontier pass. It
interns each predictor snapshot as an integer node, expanded once: its guess
per generator state and its child per observed bit. The per-state counts of
input sequences consistent with the observed output are the unnormalized
forward vector of the machine read as an edge-emitting HMM, and expected
error is linear in them. So the engine walks the horizon depth by depth over
(node, generator state) pairs and merges every branch that reaches an equal
pair: ``e_ave``, ``e_wc`` and the per-step errors come out exact for every
predictor. A consistency or ensemble node is keyed by its count vector over
the vector's gcd, so proportional vectors, which guess alike, share a node.
The same pass, started from a training prefix's consistency profile, scores
batch continuations. It needs only the ``snapshot``/``restore`` every
predictor has, so there is no fallback path.

Monte Carlo estimates sample input sequences and run every built-in
predictor through a vectorized numpy sweep at any horizon. Consistency and
ensemble predictors share one count kernel. Its int64 count rows are divided
by their gcd, which changes no guess, whenever they could overflow, and turn
into exact Python integers only if the normalised rows outgrow int64. The
finite-state predictors (known-state, constant, automaton) run beside the
generator as one product machine on input bits, built once from their
snapshot nodes, so each step costs two table lookups. Only a predictor from
outside the package goes through a per-sequence loop.

Predictors whose machine model is contradicted by an observation are scored
leniently here: a dead model keeps emitting the tie-rule 0. This makes
cross-machine scores and batch continuation scores well-defined.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .automaton import Bits, MealyMachine, machine_id
from .predictors import (
    AutomatonPredictor,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    KnownStatePredictor,
    Predictor,
)

log = logging.getLogger(__name__)

EXHAUSTIVE_T_CAP = 24
PAIR_BUDGET_LOG2 = 26


class CapExceeded(RuntimeError):
    """A requested sweep is larger than the configured safety cap."""


class InconsistentTrainingData(ValueError):
    """No candidate machine can produce the given training sequence."""


@dataclass(frozen=True)
class ErrorReport:
    """Average and worst-case prediction error for one (machine, predictor) pair.

    Exhaustive reports carry exact rationals; Monte Carlo reports carry float
    estimates, record the sampler, and flag ``e_wc`` as only a lower bound on
    the true worst case.
    """

    machine_id: str
    predictor_id: str
    t: int
    e_ave: Fraction | float
    e_wc: Fraction | float
    method: str
    samples: int | None = None
    seed: int | None = None
    rng: str | None = None
    wc_is_lower_bound: bool = False
    per_step_errors: tuple | None = None

    def __post_init__(self):
        if not 0 <= self.e_ave <= self.e_wc <= 1:
            raise ValueError(
                f"error metrics out of order: e_ave={self.e_ave}, e_wc={self.e_wc}"
            )

    def to_dict(self) -> dict:
        d: dict = {
            "machine_id": self.machine_id,
            "predictor_id": self.predictor_id,
            "t": self.t,
            "e_ave": _rational_str(self.e_ave),
            "e_ave_float": float(self.e_ave),
            "e_wc": _rational_str(self.e_wc),
            "e_wc_float": float(self.e_wc),
            "method": self.method,
        }
        if self.method == "monte_carlo":
            d["samples"] = self.samples
            d["seed"] = self.seed
            d["rng"] = self.rng
            d["wc_is_lower_bound"] = self.wc_is_lower_bound
        if self.per_step_errors is not None:
            d["per_step_errors"] = [_rational_str(x) for x in self.per_step_errors]
        return d


def _rational_str(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


@contextmanager
def _lenient(predictor: Predictor):
    """Temporarily disable strict inconsistency errors on model-tracking predictors."""
    toggle = isinstance(predictor, ConsistencyPredictor) and predictor.strict
    if toggle:
        predictor.strict = False
    try:
        yield
    finally:
        if toggle:
            predictor.strict = True


# ---------------------------------------------------------------------------
# vectorized Monte Carlo sweeps (integer error totals over sampled inputs)

def _sweep_consistency(machine: MealyMachine, predictor: ConsistencyPredictor, bits: np.ndarray) -> tuple[int, int, list[int]]:
    """Count kernel: the consistency counts of every sample, one row each."""
    # m[o, i, j]: the inputs taking the predictor's machine from state i to
    # state j while emitting o
    pm = predictor.machine
    m = np.zeros((2, pm.num_states, pm.num_states), dtype=np.int64)
    np.add.at(m, (np.asarray(pm.output), np.arange(pm.num_states)[:, None], np.asarray(pm.transition)), 1)
    m0, m1 = m
    lean = m1.sum(axis=1) - m0.sum(axis=1)  # a row guesses 1 where counts @ lean > 0
    succ = 2 * np.asarray(machine.transition, dtype=np.int64).ravel()
    out = np.asarray(machine.output, dtype=bool).ravel()
    start = predictor.snapshot()
    n, t = bits.shape
    counts = np.tile(np.asarray(start, dtype=np.int64), (n, 1))
    at = np.full(n, 2 * machine.initial_state, dtype=np.int64)  # 2 * generator state
    seq_err = np.zeros(n, dtype=np.int64)
    step_totals = []
    # Counts are non-negative and out-degrees at most 2, so if every row sum
    # is at most ``bound``, every entry and partial sum of counts @ m0, @ m1
    # and @ lean is at most 2 * bound, as is every next row sum: a step is
    # exact in int64 while bound < 2**62. A guess compares counts of one row
    # and the update is linear, so there each row is divided by its gcd (an
    # all-zero row by 1); only rows that still do not fit widen to Python ints.
    bound = sum(start)
    for i in range(t):
        if bound >= 1 << 62 and counts.dtype != object:
            counts //= np.maximum(np.gcd.reduce(counts, axis=1), 1)[:, None]
            bound = int(counts.sum(axis=1).max())
            if bound >= 1 << 62:
                counts = counts.astype(object)
        at += bits[:, i]
        o = out[at]
        e = (counts @ lean > 0) != o
        seq_err += e
        step_totals.append(int(np.count_nonzero(e)))
        at = succ[at]
        counts = np.where(o[:, None], counts @ m1, counts @ m0)
        bound *= 2
    return int(seq_err.sum()), int(seq_err.max()), step_totals


def _product_machine(machine: MealyMachine, predictor: Predictor) -> tuple[np.ndarray, np.ndarray]:
    """The predictor run beside the generator, as one machine on input bits.

    Its nodes are the reachable (snapshot node, generator state) pairs,
    numbered breadth-first from the predictor's current snapshot and the
    initial state. Returns ``(successor, miss)``, flat at ``2 * node + input
    bit``; ``miss`` is 1 where the guess differs from the generator's output.
    The walk ends only for predictors with finitely many snapshots.
    """
    nodes = _Nodes(machine, predictor)
    index = {machine.initial_state: 0}  # (snapshot node, state) pair -> product node
    pairs = list(index)
    successor, miss = [], []
    for at in pairs:  # grows as new pairs are found
        for to, m in nodes.expand(at):
            successor.append(index.setdefault(to, len(pairs)))
            if successor[-1] == len(pairs):
                pairs.append(to)
            miss.append(m)
    predictor.restore(nodes.root)
    return np.array(successor, dtype=np.int64), np.array(miss, dtype=np.int64)


def _sweep_product(machine: MealyMachine, predictor: Predictor, bits: np.ndarray) -> tuple[int, int, list[int]]:
    """Run the product machine of a finite-state predictor over every sample."""
    # Both tables read flat at 2 * node + input bit: one index per step and
    # 1-D gathers; 2-D [node, bit] gathers took 2.5 times as long at t=200
    # with 10,000 samples.
    succ, miss = _product_machine(machine, predictor)
    succ *= 2
    n, t = bits.shape
    at = np.zeros(n, dtype=np.int64)  # 2 * node
    seq_err = np.zeros(n, dtype=np.int64)
    step_totals = []
    for i in range(t):
        at += bits[:, i]
        e = miss[at]
        seq_err += e
        step_totals.append(int(e.sum()))
        at = succ[at]
    return int(seq_err.sum()), int(seq_err.max()), step_totals


# ---------------------------------------------------------------------------
# exact engine

class _Nodes:
    """A predictor's snapshots interned as integer nodes, each expanded once.

    Node 0 is the predictor's current snapshot. On first use a node restores
    its snapshot to find and cache its guess per generator state and its child
    per observed bit. A consistency or ensemble node is keyed, and restored,
    as its count vector over the vector's gcd (an all-zero vector as it is):
    a guess compares two sums over one vector and observing is linear, so
    proportional vectors guess alike forever after.
    """

    def __init__(self, machine: MealyMachine, predictor: Predictor):
        self.trans, self.out, self.k = machine.transition, machine.output, machine.num_states
        self.predictor, self.root = predictor, predictor.snapshot()
        self.scaled = type(predictor) in (ConsistencyPredictor, EnsemblePredictor)
        self.blind = type(predictor).inform_state is Predictor.inform_state
        # snapshot -> node; per node its snapshot; at 2 * node + observed bit
        # its child; at node, or at the pair if the state steers it, its guess
        self.index, self.keys, self.children, self.guesses = {}, [], [], {}
        self.intern(self.root)

    def intern(self, snap) -> int:
        if self.scaled and (g := math.gcd(*snap)) > 1:
            snap = tuple(c // g for c in snap)
        node = self.index.setdefault(snap, len(self.keys))
        if node == len(self.keys):
            self.keys.append(snap)
            self.children += (None, None)
        return node

    def expand(self, pair: int) -> list[tuple[int, bool]]:
        """(next pair, miss) for input bits 0 and 1 from ``pair`` = node * k + state."""
        node, s = divmod(pair, self.k)
        p, key = self.predictor, node if self.blind else pair
        if key not in self.guesses:
            p.restore(self.keys[node])
            p.inform_state(s)
            self.guesses[key] = p.predict()
        guess, steps = self.guesses[key], []
        for b, o in enumerate(self.out[s]):
            at = 2 * node + o
            if self.children[at] is None:
                p.restore(self.keys[node])
                p.observe(o)
                self.children[at] = self.intern(p.snapshot())
            steps.append((self.children[at] * self.k + self.trans[s][b], guess != o))
        return steps


def _frontier_totals(machine: MealyMachine, predictor: Predictor, t: int, start: dict[int, int]) -> tuple[int, int, list[int]]:
    """Exact error totals by one depth-by-depth pass with merged predictor states.

    The frontier maps each (snapshot node, generator state) pair, at ``node *
    k + state``, to (number of input sequences, most errors so far). It
    starts at the predictor's current snapshot with ``start`` giving the
    sequence counts per state. They are the engine's own (a node's key
    rescales only the predictor's), so they stay exact. Errors are linear in
    them; an error at depth ``d`` stands for ``2**(t - d - 1)`` completions.
    """
    nodes = _Nodes(machine, predictor)
    frontier = {s: (n, 0) for s, n in start.items() if n}
    step = [0] * t
    peak = len(frontier)
    for depth in range(t):
        nxt: dict = {}
        wrong = 0
        for at, (n, errs) in frontier.items():
            for to, miss in nodes.expand(at):
                wrong += n * miss
                m, e = nxt.get(to, (0, 0))
                nxt[to] = (m + n, max(e, errs + miss))
        step[depth] = wrong << (t - depth - 1)
        frontier = nxt
        peak = max(peak, len(frontier))
    predictor.restore(nodes.root)
    log.debug("exact walk, t=%d: %d nodes interned, peak frontier %d (node, state) pairs",
              t, len(nodes.keys), peak)
    wc = max((e for _, e in frontier.values()), default=0)
    return sum(step), wc, step


# ---------------------------------------------------------------------------
# per-sequence loop

def _generic_totals(
    machine: MealyMachine,
    predictor: Predictor,
    t: int,
    sequences: Iterable[int],
) -> tuple[int, int, list[int]]:
    """Per-sequence loop over bit-packed inputs; works for any predictor.

    Monte Carlo runs predictors from outside the package through it, and the
    tests use it as the reference for the other engines.
    """
    trans = machine.transition
    out = machine.output
    total, wc = 0, 0
    step = [0] * t
    for g in sequences:
        predictor.reset()
        s = machine.initial_state
        errs = 0
        for i in range(t):
            b = (g >> i) & 1
            predictor.inform_state(s)
            p = predictor.predict()
            o = out[s][b]
            if p != o:
                errs += 1
                step[i] += 1
            predictor.observe(o)
            s = trans[s][b]
        total += errs
        if errs > wc:
            wc = errs
    return total, wc, step


# ---------------------------------------------------------------------------
# dispatch

def _check_informed(machine: MealyMachine, predictor: Predictor) -> None:
    """A known-state predictor is told the generator's states, so its own
    machine needs at least as many of them."""
    if isinstance(predictor, KnownStatePredictor) and predictor.machine.num_states < machine.num_states:
        raise ValueError(
            f"known-state predictor has {predictor.machine.num_states} states, "
            f"fewer than the generator's {machine.num_states}"
        )


def evaluate_exhaustive(
    machine: MealyMachine,
    predictor: Predictor,
    t: int,
    *,
    cap: int = EXHAUSTIVE_T_CAP,
    per_step: bool = False,
) -> ErrorReport:
    """Exact average and worst-case error over all ``2**t`` input sequences.

    The predictor starts every sequence from its reset state. Horizons above
    ``cap`` are refused; raise the cap deliberately or use
    :func:`evaluate_monte_carlo`.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if t > cap:
        raise CapExceeded(
            f"horizon {t} exceeds the exhaustive cap of {cap} "
            f"(2**{t} sequences); raise the cap explicitly or use Monte Carlo"
        )
    _check_informed(machine, predictor)
    with _lenient(predictor):
        predictor.reset()
        total, wc, step = _frontier_totals(machine, predictor, t, {machine.initial_state: 1})
    n = 1 << t
    return ErrorReport(
        machine_id=machine_id(machine),
        predictor_id=predictor.label,
        t=t,
        e_ave=Fraction(total, t * n),
        e_wc=Fraction(wc, t),
        method="exhaustive",
        per_step_errors=tuple(Fraction(c, n) for c in step) if per_step else None,
    )


def evaluate_monte_carlo(
    machine: MealyMachine,
    predictor: Predictor,
    t: int,
    samples: int,
    seed: int = 0,
    *,
    per_step: bool = False,
) -> ErrorReport:
    """Estimate the average error from uniformly sampled input sequences.

    Sampling uses numpy's PCG64 generator seeded explicitly, so a report is
    reproducible from (machine, predictor, t, samples, seed) alone. The
    sampled worst case only bounds the true one from below.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if samples < 1:
        raise ValueError("samples must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_informed(machine, predictor)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(samples, t), dtype=np.uint8)
    predictor.reset()
    if isinstance(predictor, ConsistencyPredictor):
        total, wc, step = _sweep_consistency(machine, predictor, bits)
    elif isinstance(predictor, (KnownStatePredictor, ConstantPredictor, AutomatonPredictor)):
        total, wc, step = _sweep_product(machine, predictor, bits)
    else:
        packed = (
            int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in bits
        )
        total, wc, step = _generic_totals(machine, predictor, t, packed)
    return ErrorReport(
        machine_id=machine_id(machine),
        predictor_id=predictor.label,
        t=t,
        e_ave=total / (t * samples),
        e_wc=wc / t,
        method="monte_carlo",
        samples=samples,
        seed=seed,
        rng="pcg64",
        wc_is_lower_bound=True,
        per_step_errors=tuple(c / samples for c in step) if per_step else None,
    )


# ---------------------------------------------------------------------------
# batch setting

def consistency_profile(machine: MealyMachine, observed: Bits) -> tuple[int, ...]:
    """Per-state counts of input sequences consistent with an observed prefix."""
    predictor = ConsistencyPredictor(machine, strict=False)
    for bit in observed:
        if not predictor.consistent:
            break
        predictor.observe(bit)
    return predictor.consistency_vector


@dataclass(frozen=True)
class BatchProblem:
    """Training data plus the candidate machines and predictors to choose among."""

    machines: tuple[MealyMachine, ...]
    training: Bits
    horizon: int
    predictors: tuple[Predictor, ...]

    def __post_init__(self):
        if not self.machines:
            raise ValueError("candidate machine list must be nonempty")
        if not self.predictors:
            raise ValueError("predictor list must be nonempty")
        if self.horizon <= len(self.training):
            raise ValueError("horizon must exceed the training length")


@dataclass(frozen=True)
class PredictorScore:
    label: str
    index: int
    score: Fraction
    training_errors: int
    model_died_in_training: bool

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "index": self.index,
            "score": _rational_str(self.score),
            "score_float": float(self.score),
            "training_errors": self.training_errors,
            "model_died_in_training": self.model_died_in_training,
        }


@dataclass(frozen=True)
class BatchSelection:
    best_index: int
    best_label: str
    scores: tuple[PredictorScore, ...]
    weighting: str
    pair_counts: tuple[int, ...]
    continuation: int

    def to_dict(self) -> dict:
        return {
            "best_index": self.best_index,
            "best_label": self.best_label,
            "weighting": self.weighting,
            "continuation": self.continuation,
            "pair_counts": list(self.pair_counts),
            "scores": [s.to_dict() for s in self.scores],
        }


def _train_predictor(predictor: Predictor, training: Bits) -> tuple[int, bool]:
    """Drive a predictor through the training bits; returns (errors, model died)."""
    predictor.reset()
    errors = 0
    for bit in training:
        errors += int(predictor.predict() != bit)
        predictor.observe(bit)
    died = isinstance(predictor, ConsistencyPredictor) and not predictor.consistent
    return errors, died


def batch_select(
    problem: BatchProblem,
    *,
    weighting: str = "pairs",
) -> BatchSelection:
    """Pick the predictor with the least expected error on continuations.

    Every (input sequence, machine) pair able to produce the training data is
    enumerated implicitly: per machine, the consistency profile of the
    training data gives the count of such sequences per end state, and that
    end state is where the machine resumes for the ``horizon - t``
    continuation steps. Each predictor is scored with its post-training
    knowledge; training errors are reported but play no part in the score.

    ``weighting="pairs"`` weights every consistent pair equally;
    ``weighting="machines"`` averages within each machine first, then across
    the machines that survive.
    """
    if weighting not in ("pairs", "machines"):
        raise ValueError(f"unknown weighting {weighting!r}")
    t = len(problem.training)
    delta = problem.horizon - t
    if len(problem.machines) * (1 << delta) > (1 << PAIR_BUDGET_LOG2):
        raise CapExceeded(
            f"{len(problem.machines)} machines x 2**{delta} continuations "
            f"exceeds the pair budget of 2**{PAIR_BUDGET_LOG2}"
        )
    profiles = [consistency_profile(m, problem.training) for m in problem.machines]
    pair_counts = tuple(sum(p) for p in profiles)
    if not any(pair_counts):
        raise InconsistentTrainingData(
            "no candidate machine can produce the training sequence"
        )

    denom = delta * (1 << delta)
    scores = []
    for idx, predictor in enumerate(problem.predictors):
        if isinstance(predictor, KnownStatePredictor):
            raise TypeError("state-informed predictors cannot be scored in the batch setting")
        with _lenient(predictor):
            train_errors, died = _train_predictor(predictor, problem.training)
            per_machine: list[Fraction] = []
            for m, profile, pairs in zip(problem.machines, profiles, pair_counts):
                if not pairs:
                    continue
                errors, _, _ = _frontier_totals(m, predictor, delta, dict(enumerate(profile)))
                total = Fraction(errors, denom)
                per_machine.append(total if weighting == "pairs" else total / pairs)
            predictor.reset()
        score = sum(per_machine, Fraction(0)) / (len(per_machine) if weighting == "machines" else 1)
        scores.append(
            PredictorScore(predictor.label, idx, score, train_errors, died)
        )

    best = min(scores, key=lambda s: (s.score, s.index))
    return BatchSelection(
        best_index=best.index,
        best_label=best.label,
        scores=tuple(scores),
        weighting=weighting,
        pair_counts=pair_counts,
        continuation=delta,
    )


def default_batch_predictors(machines: Sequence[MealyMachine]) -> tuple[Predictor, ...]:
    """Constant predictors first (so score ties favor the simplest), then one
    consistency predictor per candidate machine."""
    preds: list[Predictor] = [ConstantPredictor(0), ConstantPredictor(1)]
    preds.extend(ConsistencyPredictor(m) for m in machines)
    return tuple(preds)


@dataclass(frozen=True)
class SelectionWitness:
    """A concrete instance where the best continuation predictor is not a
    training-error minimizer."""

    machines: tuple[MealyMachine, MealyMachine]
    training: Bits
    continuation: int
    selection: BatchSelection
    min_training_errors: int


def find_selection_witness(
    *,
    max_states: int = 2,
    max_training_len: int = 6,
    continuation: int = 4,
) -> SelectionWitness | None:
    """Scan small two-machine batch problems for a selection/training mismatch.

    Searches deterministically over training prefixes (shortest first) and
    ordered pairs of distinct canonical machines with at most ``max_states``
    states, using the default predictor set. A hit requires the selected
    predictor to beat every training-error minimizer strictly, so the
    mismatch cannot be an artifact of tie-breaking. Returns the first hit.
    """
    from .enumeration import enumerate_machines

    machines: list[MealyMachine] = []
    for k in range(1, max_states + 1):
        machines.extend(enumerate_machines(k, "canonical"))

    for ln in range(1, max_training_len + 1):
        for value in range(1 << ln):
            training = Bits(value, ln)
            candidates = {i for i, m in enumerate(machines) if any(consistency_profile(m, training))}
            if not candidates:
                continue
            for i, j in combinations(range(len(machines)), 2):
                if i not in candidates and j not in candidates:
                    continue
                pair = (machines[i], machines[j])
                problem = BatchProblem(pair, training, ln + continuation, default_batch_predictors(pair))
                selection = batch_select(problem)
                chosen = selection.scores[selection.best_index]
                min_train = min(s.training_errors for s in selection.scores)
                minimizers = [s for s in selection.scores if s.training_errors == min_train]
                if chosen.training_errors > min_train and all(chosen.score < s.score for s in minimizers):
                    return SelectionWitness(pair, training, continuation, selection, min_train)
    return None
