"""Error metrics for predictors, exact or sampled, plus batch-mode selection.

The exact evaluators average per-bit prediction error over every input
sequence of a given length with one engine, a merged-frontier pass. The
per-state counts of input sequences consistent with the observed output are
the unnormalized forward vector of the machine read as an edge-emitting HMM,
and expected error is linear in them. So the engine walks the horizon depth
by depth, keyed by predictor snapshot, and merges every branch that leaves
the predictor in an equal state: ``e_ave``, ``e_wc`` and the per-step errors
come out exact for every predictor. The same pass, started from a training
prefix's consistency profile, scores batch continuations. Predictors without
``snapshot``/``restore`` fall back to a per-sequence loop over all inputs.

Monte Carlo estimates sample input sequences and run them through vectorized
numpy sweeps for the built-in predictor kinds, or through the per-sequence
loop for any other predictor.

Predictors whose machine model is contradicted by an observation are scored
leniently here: a dead model keeps emitting the tie-rule 0. This makes
cross-machine scores and batch continuation scores well-defined.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .automaton import Bits, MealyMachine, machine_id
from .predictors import (
    AutomatonPredictor,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    KnownStatePredictor,
    OutputTransitionMatrices,
    Predictor,
    advance_counts,
)

EXHAUSTIVE_T_CAP = 24
PAIR_BUDGET_LOG2 = 26
_VEC_T_LIMIT = 62  # consistency counts fit in int64 up to here


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
    toggle = isinstance(predictor, (ConsistencyPredictor, EnsemblePredictor)) and predictor.strict
    if toggle:
        predictor.strict = False
    try:
        yield
    finally:
        if toggle:
            predictor.strict = True


# ---------------------------------------------------------------------------
# vectorized Monte Carlo sweeps (integer error totals over sampled inputs)

def _sweep_known_state(machine: MealyMachine, t: int, n: int, column) -> tuple[int, int, list[int]]:
    trans = np.asarray(machine.transition, dtype=np.int64)
    out = np.asarray(machine.output, dtype=np.int64)
    forced = np.where(out[:, 0] == out[:, 1], out[:, 0], 0)
    states = np.full(n, machine.initial_state, dtype=np.int64)
    seq_err = np.zeros(n, dtype=np.int64)
    step_totals = []
    for i in range(t):
        b = column(i)
        e = forced[states] != out[states, b]
        seq_err += e
        step_totals.append(int(e.sum()))
        states = trans[states, b]
    return int(seq_err.sum()), int(seq_err.max()), step_totals


def _sweep_automaton(machine: MealyMachine, pred_machine: MealyMachine, t: int, n: int, column) -> tuple[int, int, list[int]]:
    ttrans = np.asarray(machine.transition, dtype=np.int64)
    tout = np.asarray(machine.output, dtype=np.int64)
    ptrans = np.asarray(pred_machine.transition, dtype=np.int64)
    pout = np.asarray(pred_machine.output, dtype=np.int64)
    p0, pend0 = pred_machine.step(pred_machine.initial_state, 0)
    states = np.full(n, machine.initial_state, dtype=np.int64)
    pstates = np.full(n, p0, dtype=np.int64)
    pending = np.full(n, pend0, dtype=np.int64)
    seq_err = np.zeros(n, dtype=np.int64)
    step_totals = []
    for i in range(t):
        b = column(i)
        o = tout[states, b]
        e = pending != o
        seq_err += e
        step_totals.append(int(e.sum()))
        states = ttrans[states, b]
        pending = pout[pstates, o]
        pstates = ptrans[pstates, o]
    return int(seq_err.sum()), int(seq_err.max()), step_totals


def _sweep_consistency(machine: MealyMachine, pred_machine: MealyMachine, t: int, n: int, column) -> tuple[int, int, list[int]]:
    ttrans = np.asarray(machine.transition, dtype=np.int64)
    tout = np.asarray(machine.output, dtype=np.int64)
    mats = OutputTransitionMatrices.from_machine(pred_machine)
    m0 = np.asarray(mats.m0, dtype=np.int64)
    m1 = np.asarray(mats.m1, dtype=np.int64)
    deg0 = m0.sum(axis=1)
    deg1 = m1.sum(axis=1)
    kp = pred_machine.num_states
    counts = np.zeros((n, kp), dtype=np.int64)
    counts[:, pred_machine.initial_state] = 1
    states = np.full(n, machine.initial_state, dtype=np.int64)
    seq_err = np.zeros(n, dtype=np.int64)
    step_totals = []
    for i in range(t):
        b = column(i)
        pred = (counts @ deg0 < counts @ deg1).astype(np.int64)
        o = tout[states, b]
        e = pred != o
        seq_err += e
        step_totals.append(int(e.sum()))
        states = ttrans[states, b]
        counts = np.where((o == 1)[:, None], counts @ m1, counts @ m0)
    return int(seq_err.sum()), int(seq_err.max()), step_totals


def _sweep_constant(machine: MealyMachine, bit: int, t: int, n: int, column) -> tuple[int, int, list[int]]:
    trans = np.asarray(machine.transition, dtype=np.int64)
    out = np.asarray(machine.output, dtype=np.int64)
    states = np.full(n, machine.initial_state, dtype=np.int64)
    seq_err = np.zeros(n, dtype=np.int64)
    step_totals = []
    for i in range(t):
        b = column(i)
        e = out[states, b] != bit
        seq_err += e
        step_totals.append(int(e.sum()))
        states = trans[states, b]
    return int(seq_err.sum()), int(seq_err.max()), step_totals


def _matrix_columns(bits: np.ndarray):
    return bits.shape[0], lambda i: bits[:, i].astype(np.int64)


_SWEEPS = {
    "known_state": _sweep_known_state,
    "constant": _sweep_constant,
    "automaton": _sweep_automaton,
    "consistency": _sweep_consistency,
}


# ---------------------------------------------------------------------------
# exact engine

def _merge(states: dict, s: int, n: int, errs: int) -> None:
    """Add ``n`` sequences that end in state ``s`` with at most ``errs`` errors."""
    if s in states:
        m, e = states[s]
        states[s] = (m + n, max(e, errs))
    else:
        states[s] = (n, errs)


def _frontier_totals(
    machine: MealyMachine, predictor: Predictor, t: int, start: dict[int, int]
) -> tuple[int, int, list[int]]:
    """Exact error totals by one depth-by-depth pass with merged predictor states.

    The frontier maps a predictor snapshot to ``{generator state: (number of
    input sequences, most errors so far)}``. It starts from the predictor's
    current state with ``start`` giving the per-state sequence counts. A
    prediction depends only on the snapshot and the generator state, so
    prefixes that leave equal snapshots share every later prediction and
    merge into one node; errors are linear in the counts, and an error at
    depth ``d`` stands for all ``2**(t - d - 1)`` completions.
    """
    trans, out = machine.transition, machine.output
    root = predictor.snapshot()
    frontier = {root: {s: (n, 0) for s, n in start.items() if n}}
    step = [0] * t
    for depth in range(t):
        nxt: dict = {}
        wrong = 0
        for snap, states in frontier.items():
            children: tuple[dict, dict] = ({}, {})
            for s, (n, errs) in states.items():
                predictor.restore(snap)
                predictor.inform_state(s)
                guess = predictor.predict()
                for b in (0, 1):
                    o = out[s][b]
                    miss = guess != o
                    wrong += n * miss
                    _merge(children[o], trans[s][b], n, errs + miss)
            for o, child in enumerate(children):
                if child:
                    predictor.restore(snap)
                    predictor.observe(o)
                    merged = nxt.setdefault(predictor.snapshot(), {})
                    for s, (n, errs) in child.items():
                        _merge(merged, s, n, errs)
        step[depth] = wrong << (t - depth - 1)
        frontier = nxt
    predictor.restore(root)
    wc = max((e for states in frontier.values() for _, e in states.values()), default=0)
    return sum(step), wc, step


# ---------------------------------------------------------------------------
# per-sequence loop

def _generic_totals(
    machine: MealyMachine,
    predictor: Predictor,
    t: int,
    sequences: Iterable[int],
) -> tuple[int, int, list[int]]:
    """Per-sequence loop over bit-packed inputs; works for any predictor."""
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

def _vector_plan(machine: MealyMachine, predictor: Predictor, t: int):
    """Return (sweep kind, sweep params) when a vectorized sampler applies."""
    if isinstance(predictor, KnownStatePredictor) and predictor.machine == machine:
        return "known_state", (machine,)
    if isinstance(predictor, ConstantPredictor):
        return "constant", (machine, predictor.bit)
    if isinstance(predictor, AutomatonPredictor):
        return "automaton", (machine, predictor.machine)
    if isinstance(predictor, ConsistencyPredictor) and t <= _VEC_T_LIMIT:
        return "consistency", (machine, predictor.machine)
    return None


def _supports_snapshot(predictor: Predictor) -> bool:
    try:
        predictor.restore(predictor.snapshot())
    except NotImplementedError:
        return False
    return True


def _exact_totals(
    machine: MealyMachine, predictor: Predictor, t: int
) -> tuple[int, int, list[int]]:
    """Exact error totals over all ``2**t`` inputs from the initial state."""
    with _lenient(predictor):
        predictor.reset()
        if _supports_snapshot(predictor):
            return _frontier_totals(machine, predictor, t, {machine.initial_state: 1})
        return _generic_totals(machine, predictor, t, range(1 << t))


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
    total, wc, step = _exact_totals(machine, predictor, t)
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
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=(samples, t), dtype=np.uint8)
    with _lenient(predictor):
        plan = _vector_plan(machine, predictor, t)
        if plan is not None:
            kind, params = plan
            total, wc, step = _SWEEPS[kind](*params, t, *_matrix_columns(bits))
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
    mats = OutputTransitionMatrices.from_machine(machine)
    rows = (mats.sparse_rows(0), mats.sparse_rows(1))
    counts = [0] * machine.num_states
    counts[machine.initial_state] = 1
    for bit in observed:
        counts = advance_counts(counts, rows[bit])
        if not any(counts):
            break
    return tuple(counts)


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
    if isinstance(predictor, EnsemblePredictor):
        died = not predictor.alive()
    return errors, died


def _continuation_errors(
    predictor: Predictor, machine: MealyMachine, profile: Sequence[int], t: int
) -> int:
    """Total continuation errors from the predictor's current knowledge state,
    the machine resuming in each state as many times as ``profile`` counts."""
    if isinstance(predictor, KnownStatePredictor):
        raise TypeError("state-informed predictors cannot be scored in the batch setting")
    total, _, _ = _frontier_totals(machine, predictor, t, dict(enumerate(profile)))
    return total


def batch_select(
    problem: BatchProblem,
    *,
    weighting: str = "pairs",
    pair_budget_log2: int = PAIR_BUDGET_LOG2,
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
    if len(problem.machines) * (1 << delta) > (1 << pair_budget_log2):
        raise CapExceeded(
            f"{len(problem.machines)} machines x 2**{delta} continuations "
            f"exceeds the pair budget of 2**{pair_budget_log2}"
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
        with _lenient(predictor):
            train_errors, died = _train_predictor(predictor, problem.training)
            per_machine: list[Fraction] = []
            for m, profile, pairs in zip(problem.machines, profiles, pair_counts):
                if not pairs:
                    continue
                total = Fraction(_continuation_errors(predictor, m, profile, delta), denom)
                per_machine.append(total if weighting == "pairs" else total / pairs)
            predictor.reset()
        if weighting == "pairs":
            score = sum(per_machine, Fraction(0))
        else:
            score = sum(per_machine, Fraction(0)) / len(per_machine)
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
    max_pairs_per_prefix: int | None = None,
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

    profile_cache: dict[tuple[int, Bits], tuple[int, ...]] = {}

    def profile(mi: int, training: Bits) -> tuple[int, ...]:
        key = (mi, training)
        if key not in profile_cache:
            profile_cache[key] = consistency_profile(machines[mi], training)
        return profile_cache[key]

    for ln in range(1, max_training_len + 1):
        for value in range(1 << ln):
            training = Bits(value, ln)
            consistent = [i for i in range(len(machines)) if any(profile(i, training))]
            if not consistent:
                continue
            candidates = set(consistent)
            checked = 0
            for i in range(len(machines)):
                for j in range(i + 1, len(machines)):
                    if i not in candidates and j not in candidates:
                        continue
                    checked += 1
                    if max_pairs_per_prefix and checked > max_pairs_per_prefix:
                        break
                    pair = (machines[i], machines[j])
                    problem = BatchProblem(
                        machines=pair,
                        training=training,
                        horizon=ln + continuation,
                        predictors=default_batch_predictors(pair),
                    )
                    selection = batch_select(problem)
                    chosen = selection.scores[selection.best_index]
                    min_train = min(s.training_errors for s in selection.scores)
                    if chosen.training_errors <= min_train:
                        continue
                    minimizers = [
                        s for s in selection.scores if s.training_errors == min_train
                    ]
                    if all(chosen.score < s.score for s in minimizers):
                        return SelectionWitness(
                            machines=pair,
                            training=training,
                            continuation=continuation,
                            selection=selection,
                            min_training_errors=min_train,
                        )
                else:
                    continue
                break
    return None
