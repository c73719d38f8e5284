"""Error metrics for predictors, exact or sampled, plus batch-mode selection.

The exact evaluators average per-bit prediction error over every input
sequence of a given length with one engine, a merged-frontier pass. It
interns each predictor snapshot as an integer node and expands each item of
the walk once into a table of its step. The per-state counts of input
sequences consistent with the observed output are the unnormalized forward
vector of the machine read as an edge-emitting HMM, and expected error is
linear in them. So the engine walks the horizon depth by depth over the
items, merges every branch that reaches an equal item and sums the errors by
Horner's rule: ``e_ave``, ``e_wc`` and the per-step errors come out exact for
every predictor. A consistency or ensemble node is keyed by its count vector
over the vector's gcd, so proportional vectors, which guess alike, share a
node, whose guess and children are read off the predictor's count table.
Any other predictor is driven through ``snapshot``/``restore``, which every
predictor has, so there is no fallback path.

An item is a (node, generator state) pair. When a consistency or ensemble
predictor holds the generator itself as a member, exhaustive evaluation
walks from its reset counts, and an item is the node alone: that block of
its counts is the generator's own forward vector, so the sequences reaching
a node split over the generator's states in proportion to it, and the
node's pairs are exactly lumpable (Kemeny and Snell). A walk whose frontier
outgrows ``FRONTIER_BUDGET`` items is refused with :class:`CapExceeded`.

In the batch setting the consistent (input sequence, machine) pairs of
training data are the count vector of the training pool
(:func:`~mealypred.predictors.training_pool`), one ensemble of the
candidate machines that has observed it: per candidate its pair count, per
state of the candidates' disjoint union the pairs ending there. Batch
selection scores each predictor with one walk over that union, started from
the pool's counts, as its expected continuation error per consistent pair
(or per machine); search scores its candidates from the same vector.

Monte Carlo estimates sample input sequences and run every built-in
predictor through a vectorized numpy sweep at any horizon. Consistency and
ensemble predictors share one count kernel: one column of counts per sample,
and per step one product with the stacked transition and lean matrices. The
counts climb a ladder of exact number types. They are float64 while column
sums stay below 2**52, so every product and partial sum stays below 2**53.
Past that bound each column is divided by its gcd, which changes no guess;
columns that still do not fit move to int64, exact below 2**62, and past
that, after another gcd, to Python integers. The finite-state predictors
(known-state, automaton, and constant, the one-state automaton) run beside
the generator as one product machine on input bits, the exact walk's pairs
expanded to a fixpoint, so each step costs two table lookups. Any other
predictor, a subclass of a built-in one included, runs the online protocol
(:func:`~mealypred.predictors.run_beside`) per sample. Each path overwrites
the sampled bits with its misses, which are summed once.

A consistency or ensemble predictor whose machines an observation rules out
is dead and keeps emitting the tie-rule 0, on every path alike, so
cross-machine scores and batch continuation scores are well-defined.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .automaton import Bits, MealyMachine, machine_id
from .enumeration import CapExceeded, enumerate_machines
from .machines import echo_machine
from .predictors import (
    AutomatonPredictor,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    KnownStatePredictor,
    Predictor,
    run_beside,
    training_pool,
)

log = logging.getLogger(__name__)

# Built-in predictor classes by the shortcut the engines take for them,
# matched by exact type, since a subclass may break the rule a shortcut rests on
_COUNTING = (ConsistencyPredictor, EnsemblePredictor)  # count vectors, keyed over their gcd
_FINITE = (KnownStatePredictor, ConstantPredictor, AutomatonPredictor)  # finitely many snapshots

EXHAUSTIVE_T_CAP = 24
FRONTIER_BUDGET = 1 << 18  # items (nodes or (node, state) pairs) of one depth; a few hundred bytes each
_ECHO = echo_machine()  # emits its input bits, so training bits run beside it unchanged


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
            "e_ave": rational_str(self.e_ave),
            "e_ave_float": float(self.e_ave),
            "e_wc": rational_str(self.e_wc),
            "e_wc_float": float(self.e_wc),
            "method": self.method,
        }
        if self.method == "monte_carlo":
            d["samples"] = self.samples
            d["seed"] = self.seed
            d["rng"] = self.rng
            d["wc_is_lower_bound"] = self.wc_is_lower_bound
        if self.per_step_errors is not None:
            d["per_step_errors"] = [rational_str(x) for x in self.per_step_errors]
        return d


def rational_str(x) -> str:
    """An exact rational as "num/den"; a float estimate as its repr."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return repr(float(x))


# ---------------------------------------------------------------------------
# Monte Carlo sweeps, each overwriting column i of the sampled bits with step i's misses

def _sweep_consistency(machine: MealyMachine, predictor: ConsistencyPredictor, bits: np.ndarray) -> None:
    """Count kernel: the consistency counts of every sample, one column each."""
    # w = [m0; m1; lean]: m[o][j, i] counts the inputs taking the predictor's
    # machine from state i to state j while emitting o; a column guesses 1
    # where lean @ counts > 0
    pm, k = predictor.machine, predictor.machine.num_states
    w = np.zeros((2 * k + 1, k), dtype=np.int64)
    np.add.at(w, (k * np.asarray(pm.output) + np.asarray(pm.transition), np.arange(k)[:, None]), 1)
    w[2 * k] = w[k:2 * k].sum(axis=0) - w[:k].sum(axis=0)
    succ = 2 * np.asarray(machine.transition, dtype=np.int64).ravel()
    out = np.asarray(machine.output, dtype=bool).ravel()
    start = predictor.snapshot()
    n, t = bits.shape
    # Counts are non-negative and out-degrees at most 2, so if every column
    # sum is at most ``bound``, every entry and partial sum of w @ counts is
    # at most 2 * bound in size, as is every next column sum: a step is exact
    # on the first rung whose limit exceeds bound. A guess compares counts of
    # one column and the update is linear, so past the limit each column is
    # divided by its gcd (an all-zero one by 1) and all move to the first rung
    # that fits.
    rungs = ((np.float64, 1 << 52), (np.int64, 1 << 62), (object, math.inf))
    bound = sum(start)
    rung, limit = next(r for r in rungs if bound < r[1])
    counts, ws = np.repeat(np.array(start, dtype=rung)[:, None], n, axis=1), w.astype(rung)
    at = np.full(n, 2 * machine.initial_state, dtype=np.int64)  # 2 * generator state
    normalised = []
    for i in range(t):
        if bound >= limit:
            ints = counts.astype(np.int64)
            ints //= np.maximum(np.gcd.reduce(ints, axis=0), 1)
            bound = int(ints.sum(axis=0).max())
            rung, limit = next(r for r in rungs if bound < r[1])
            counts, ws = ints.astype(rung), w.astype(rung)
            normalised.append(i)
        at += bits[:, i]
        o = out[at]
        nxt = ws @ counts
        bits[:, i] = (nxt[2 * k] > 0) != o
        at = succ[at]
        counts = np.where(o, nxt[k:2 * k], nxt[:k])
        bound *= 2
    log.debug("count kernel, %d samples, t=%d: columns normalised at depths %s, ended on %s",
              n, t, normalised, counts.dtype)


def _sweep_product(machine: MealyMachine, predictor: Predictor, bits: np.ndarray) -> None:
    """Run a finite-state predictor beside the generator over every sample, as
    one product machine on input bits. Its states are the exact walk's (node,
    generator state) pairs, expanded to a fixpoint from the predictor's
    snapshot and the initial state; it ends only for finitely many snapshots."""
    nodes, todo = _Nodes(machine, predictor), [machine.initial_state]
    while todo:
        if (at := todo.pop()) not in nodes.steps:
            todo += nodes.expand(at)[1::3]  # the next pair per input bit
    predictor.restore(nodes.root)
    # Both tables read flat at 2 * pair + input bit, the edge there being
    # 2 * next pair + miss: one index per step and 1-D gathers; 2-D
    # [pair, bit] gathers took 2.5 times as long at t=200 with 10,000 samples.
    edges = np.zeros(2 * len(nodes.keys) * machine.num_states, dtype=np.int64)
    for at, (_, to0, _, miss0, to1, _, miss1) in nodes.steps.items():
        edges[2 * at:2 * at + 2] = 2 * to0 + miss0, 2 * to1 + miss1
    succ, miss = edges & -2, edges & 1
    n, t = bits.shape
    at = np.full(n, 2 * machine.initial_state, dtype=np.int64)  # 2 * pair
    for i in range(t):
        at += bits[:, i]
        bits[:, i] = miss[at]
        at = succ[at]
    log.debug("product machine, %d samples, t=%d: %d (node, state) pairs expanded",
              n, t, len(nodes.steps))


# ---------------------------------------------------------------------------
# exact engine

class _Nodes:
    """A predictor's snapshots interned as integer nodes, and the walk's items
    expanded once each.

    An item is a (node, generator state) pair ``node * k + state``, or, where
    the generator is a ``block`` of a counting predictor's states, the node
    alone. Node 0 is the predictor's current snapshot. Expanding an item
    finds its guess and its node's child per observed bit, by restoring the
    predictor and driving it, and stores the item's step. A consistency or
    ensemble node is keyed as its count vector over the vector's gcd (an
    all-zero vector as it is): a guess compares two sums over one vector and
    observing is linear, so proportional vectors guess alike forever after.
    Of exact type, such a predictor is not driven: its ``guess`` and
    ``next_counts`` of the key give them, so it logs no elimination lines.

    A node item counts input sequences per unit of its block's counts, which
    split the sequences reaching the node over the generator's states. Its
    misses per unit are the block's counts times the inputs of the
    generator's output table emitting the bit it does not guess, and its edge
    on an emitted bit weighs the gcd divided out of the child.
    """

    def __init__(self, machine: MealyMachine, predictor: Predictor, block: tuple[int, int] | None = None):
        self.trans, self.out, self.k, self.block = machine.transition, machine.output, machine.num_states, block
        self.predictor, self.root = predictor, predictor.snapshot()
        self.counting = type(predictor) in _COUNTING
        self.blind = type(predictor).inform_state is Predictor.inform_state
        if block:
            # per observed bit, per generator state: the inputs emitting it
            self.emits = tuple(tuple(row.count(o) for row in self.out) for o in (0, 1))
        # snapshot -> node; per node its snapshot; at 2 * node + observed bit
        # its child and the gcd divided out of it; per blind node its guess;
        # per expanded item its step: its misses per unit count, then per
        # edge the next item, its weight and the miss. A pair's edges are its
        # input bits in order; a node's are the bits its block emits, the
        # one edge repeated at weight 0 if it emits one bit only.
        self.index, self.keys, self.children, self.guesses, self.steps = {}, [], [], {}, {}
        self.intern(self.root)

    def intern(self, snap) -> tuple[int, int]:
        """The node of ``snap`` and the gcd divided out of it."""
        g = math.gcd(*snap) if self.counting else 1
        if g > 1:
            snap = tuple(c // g for c in snap)
        node = self.index.setdefault(snap, len(self.keys))
        if node == len(self.keys):
            self.keys.append(snap)
            self.children += (None, None)
        return node, g or 1

    def child(self, node: int, o: int) -> tuple[int, int]:
        at = 2 * node + o
        if self.children[at] is None:
            p = self.predictor
            if self.counting:
                snap = p.next_counts(self.keys[node], o)
            else:
                p.restore(self.keys[node])
                p.observe(o)
                snap = p.snapshot()
            self.children[at] = self.intern(snap)
        return self.children[at]

    def expand(self, item: int) -> tuple:
        """Store and return the step of ``item``."""
        if self.block:
            key = self.keys[item]
            guess, (a, b) = self.predictor.guess(key), self.block
            reach = [sum(map(operator.mul, key[a:b], e)) for e in self.emits]
            ends = [(*self.child(item, o), guess != o) for o in (0, 1) if reach[o]]
            if len(ends) == 1:
                ends.append((ends[0][0], 0, ends[0][2]))
            misses = reach[1 - guess]
        else:
            node, s = divmod(item, self.k)
            p, guess = self.predictor, self.guesses.get(node)
            if guess is None:
                if self.counting:
                    guess = p.guess(self.keys[node])
                else:
                    p.restore(self.keys[node])
                    p.inform_state(s)
                    guess = p.predict()
                if self.blind:
                    self.guesses[node] = guess
            ends = [(self.child(node, o)[0] * self.k + self.trans[s][b], 1, guess != o)
                    for b, o in enumerate(self.out[s])]
            misses = ends[0][2] + ends[1][2]
        step = self.steps[item] = (misses, *ends[0], *ends[1])
        return step


def _frontier_totals(machine: MealyMachine, predictor: Predictor, t: int, start: dict[int, int], per_step: bool = False, block: tuple[int, int] | None = None) -> tuple[int, int, list[int] | None]:
    """Exact error totals by one depth-by-depth pass with merged predictor states.

    Two dicts map each item of the frontier (see :class:`_Nodes`) to its
    number of input sequences and its most errors so far. It starts at the
    predictor's current snapshot with ``start`` giving the sequence counts per
    state; the items are nodes alone where ``block``, (first, end) states of
    a counting predictor, holds the generator's forward vector. The counts
    are the engine's own (a node's key rescales only the predictor's), so
    they stay exact. An error at depth ``d`` stands for ``2**(t - d - 1)``
    completions, so the total is summed by Horner's rule; per-depth totals
    are kept only for ``per_step``. A frontier of more than
    ``FRONTIER_BUDGET`` items is refused.
    """
    nodes = _Nodes(machine, predictor, block)
    steps = nodes.steps
    items, short = ("nodes", "nodes") if block else ("(node, state) pairs", "pairs")
    count = {0: 1} if block else {s: n for s, n in start.items() if n}
    most = dict.fromkeys(count, 0)
    total, step, peak = 0, [] if per_step else None, len(count)
    for depth in range(t):
        nc, nm, wrong = {}, {}, 0
        for at, n in count.items():
            misses, to0, w0, m0, to1, w1, m1 = steps.get(at) or nodes.expand(at)
            errs = most[at]
            wrong += n * misses
            # both edges unrolled: this loop is most of the walk's own time
            c, e = n * w0, errs + m0
            if to0 in nc:
                nc[to0] += c
                if nm[to0] < e:
                    nm[to0] = e
            else:
                nc[to0], nm[to0] = c, e
            c, e = n * w1, errs + m1
            if to1 in nc:
                nc[to1] += c
                if nm[to1] < e:
                    nm[to1] = e
            else:
                nc[to1], nm[to1] = c, e
        total = 2 * total + wrong
        if per_step:
            step.append(wrong << (t - depth - 1))
        count, most = nc, nm
        peak = max(peak, len(count))
        if peak > FRONTIER_BUDGET:
            raise CapExceeded(
                f"exact walk frontier reached {peak} {items} at depth "
                f"{depth + 1}, over the budget of {FRONTIER_BUDGET}"
            )
    predictor.restore(nodes.root)
    log.debug("exact walk, t=%d: %d nodes interned, %d %s expanded, peak frontier %d %s",
              t, len(nodes.keys), len(steps), short, peak, items)
    return total, max(most.values(), default=0), step


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

    The predictor starts every sequence from its reset state, so a counting
    predictor's member equal to the generator holds its forward vector, and
    the walk runs over nodes alone. Horizons above ``cap`` are refused (raise
    it deliberately or use :func:`evaluate_monte_carlo`), and so is a walk
    whose frontier outgrows ``FRONTIER_BUDGET`` items at some depth.
    """
    if t < 1:
        raise ValueError("horizon must be at least 1")
    if t > cap:
        raise CapExceeded(
            f"horizon {t} exceeds the exhaustive cap of {cap} "
            f"(2**{t} sequences); raise the cap explicitly or use Monte Carlo"
        )
    _check_informed(machine, predictor)
    predictor.reset()
    members = zip(predictor.members, predictor.blocks) if type(predictor) in _COUNTING else ()
    block = next((ab for m, ab in members if m == machine), None)
    total, wc, step = _frontier_totals(machine, predictor, t, {machine.initial_state: 1}, per_step, block)
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
    if samples * t > np.iinfo(np.intp).max:
        raise MemoryError(f"{samples} samples of {t} steps are more bits than one array can "
                          f"index ({np.iinfo(np.intp).max})")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(samples, t), dtype=np.uint8)
    predictor.reset()
    if type(predictor) in _COUNTING:
        _sweep_consistency(machine, predictor, bits)
    elif type(predictor) in _FINITE:
        _sweep_product(machine, predictor, bits)
    else:
        for row in bits:
            row[:] = [guess != out for guess, out in run_beside(machine, predictor, row.tolist())]
        log.debug("online protocol, %d samples, t=%d", samples, t)
    misses = bits.sum(axis=1)  # bits now holds the misses, per sample and step
    total, wc = int(misses.sum()), int(misses.max())
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
        per_step_errors=tuple(c / samples for c in bits.sum(axis=0).tolist()) if per_step else None,
    )


# ---------------------------------------------------------------------------
# batch setting

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

    def __post_init__(self):
        if not 0 <= self.score <= 1:
            raise ValueError(f"score out of range: {self.score}")

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "index": self.index,
            "score": rational_str(self.score),
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
    """Drive a predictor through the training bits, which the echo machine
    emits on them as input; returns (errors, model died)."""
    errors = sum(guess != bit for guess, bit in run_beside(_ECHO, predictor, training))
    died = isinstance(predictor, ConsistencyPredictor) and not predictor.consistent
    return errors, died


def batch_select(
    problem: BatchProblem,
    *,
    weighting: str = "pairs",
) -> BatchSelection:
    """Pick the predictor with the least expected error on continuations.

    Every (input sequence, machine) pair able to produce the training data is
    enumerated implicitly: the training pool counts such pairs per end state
    of the machines' disjoint union, and that end state is where the machine
    resumes for the ``horizon - t`` continuation steps. Each predictor is
    scored with its post-training knowledge by one exact walk over the union;
    training errors are reported but play no part in the score.

    ``weighting="pairs"`` weights every consistent pair equally, so a score is
    the expected continuation error per consistent pair;
    ``weighting="machines"`` averages within each machine first, then across
    the machines that survive.
    """
    if weighting not in ("pairs", "machines"):
        raise ValueError(f"unknown weighting {weighting!r}")
    delta = problem.horizon - len(problem.training)
    pool = training_pool(problem.machines, problem.training)
    pair_counts = pool.pair_counts()
    if not any(pair_counts):
        raise InconsistentTrainingData(
            "no candidate machine can produce the training sequence"
        )
    # Under "pairs" every consistent pair weighs 1; under "machines" each pair
    # of a surviving machine weighs lcm / its pairs, so the machine weighs lcm.
    # A score is the weighted mean over pairs of the continuation error rate.
    weights = [1] * len(pair_counts)
    if weighting == "machines":
        lcm = math.lcm(*(n for n in pair_counts if n))
        weights = [lcm // n if n else 0 for n in pair_counts]
    per_state = (w for m, w in zip(problem.machines, weights) for _ in range(m.num_states))
    start = {s: c * w for s, (c, w) in enumerate(zip(pool.consistency_vector, per_state))}
    denom = (delta << delta) * sum(start.values())

    scores = []
    for idx, predictor in enumerate(problem.predictors):
        if type(predictor).inform_state is not Predictor.inform_state:
            raise TypeError("state-informed predictors cannot be scored in the batch setting")
        train_errors, died = _train_predictor(predictor, problem.training)
        errors, _, _ = _frontier_totals(pool.machine, predictor, delta, start)
        predictor.reset()
        scores.append(
            PredictorScore(predictor.label, idx, Fraction(errors, denom), train_errors, died)
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
    machines: list[MealyMachine] = []
    for k in range(1, max_states + 1):
        machines.extend(enumerate_machines(k, "canonical"))
    # built once: batch_select resets each predictor before and after use
    predictors = default_batch_predictors(machines)

    for ln in range(1, max_training_len + 1):
        for value in range(1 << ln):
            training = Bits(value, ln)
            candidates = set(training_pool(machines, training).alive())
            if not candidates:
                continue
            for i, j in combinations(range(len(machines)), 2):
                if i not in candidates and j not in candidates:
                    continue
                pair = (machines[i], machines[j])
                pair_predictors = predictors[:2] + (predictors[2 + i], predictors[2 + j])
                problem = BatchProblem(pair, training, ln + continuation, pair_predictors)
                selection = batch_select(problem)
                chosen = selection.scores[selection.best_index]
                min_train = min(s.training_errors for s in selection.scores)
                minimizers = [s for s in selection.scores if s.training_errors == min_train]
                if chosen.training_errors > min_train and all(chosen.score < s.score for s in minimizers):
                    return SelectionWitness(pair, training, continuation, selection, min_train)
    return None
