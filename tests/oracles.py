"""Independent brute-force reference implementations.

Everything here recomputes quantities straight from machine tables by
explicit enumeration or exact linear algebra, sharing no code path with the
library's predictors, evaluators, or solvers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def simulate(machine, g_value: int, t: int) -> tuple[list[int], list[int]]:
    """Outputs and state path (including the start) for one packed input."""
    s = machine.initial_state
    path = [s]
    outs = []
    for i in range(t):
        b = (g_value >> i) & 1
        outs.append(machine.output[s][b])
        s = machine.transition[s][b]
        path.append(s)
    return outs, path


def consistency_counts(machine, observed: list[int]) -> list[int]:
    """Per-state counts of inputs consistent with an observed output prefix,
    by filtering all 2^t input sequences one by one."""
    t = len(observed)
    counts = [0] * machine.num_states
    for g in range(1 << t):
        s = machine.initial_state
        ok = True
        for i in range(t):
            b = (g >> i) & 1
            if machine.output[s][b] != observed[i]:
                ok = False
                break
            s = machine.transition[s][b]
        if ok:
            counts[s] += 1
    return counts


def level_tables(machine, t: int) -> list[dict[int, tuple[int, ...]]]:
    """For each prefix length j <= t, map realized output prefixes (packed
    big-endian into an int) to per-end-state counts of the inputs producing
    them. Level j enumerates all 2^j inputs."""
    k = machine.num_states
    trans = np.asarray(machine.transition, dtype=np.int64)
    out = np.asarray(machine.output, dtype=np.int64)
    states = np.array([machine.initial_state], dtype=np.int64)
    keys = np.array([0], dtype=np.int64)
    root = [0] * k
    root[machine.initial_state] = 1
    levels = [{0: tuple(root)}]
    for _ in range(t):
        n = len(states)
        b = np.concatenate([np.zeros(n, np.int64), np.ones(n, np.int64)])
        st = np.concatenate([states, states])
        ky = np.concatenate([keys, keys])
        o = out[st, b]
        states = trans[st, b]
        keys = ky * 2 + o
        combined = keys * k + states
        counts = np.bincount(combined)
        level: dict[int, list[int]] = {}
        for idx in np.nonzero(counts)[0]:
            key, s = divmod(int(idx), k)
            level.setdefault(key, [0] * k)[s] = int(counts[idx])
        levels.append({key: tuple(row) for key, row in level.items()})
    return levels


def visit_counts(machine, t: int) -> list[int]:
    """Visits to each state over path positions 1..t, summed over all 2^t
    inputs, by enumerating every input in parallel."""
    trans = np.asarray(machine.transition, dtype=np.int64)
    g = np.arange(1 << t, dtype=np.int64)
    states = np.full(1 << t, machine.initial_state, dtype=np.int64)
    counts = np.zeros(machine.num_states, dtype=np.int64)
    for i in range(t):
        b = (g >> i) & 1
        states = trans[states, b]
        counts += np.bincount(states, minlength=machine.num_states)
    return [int(c) for c in counts]


def visit_frequencies(machine, t: int) -> np.ndarray:
    """Average frequency of each state over path positions 1..t, across all
    2^t inputs."""
    return np.asarray(visit_counts(machine, t)) / (t * (1 << t))


def dp_known_state_error(machine, t: int) -> Fraction:
    """Exact average error of the state-informed predictor via the chain law:
    each step contributes half the probability mass sitting on unbiased
    states, tracked with exact per-state input counts."""
    k = machine.num_states
    unbiased = [s for s in range(k) if machine.output[s][0] != machine.output[s][1]]
    counts = [Fraction(0)] * k
    counts[machine.initial_state] = Fraction(1)
    total = Fraction(0)
    for _ in range(t):
        total += Fraction(1, 2) * sum(counts[s] for s in unbiased)
        nxt = [Fraction(0)] * k
        for s in range(k):
            if counts[s]:
                for b in (0, 1):
                    nxt[machine.transition[s][b]] += counts[s] / 2
        counts = nxt
    return total / t


def predictor_error_double_sum(machine, predict, t: int) -> Fraction:
    """E^t for an arbitrary prefix-function predictor, by the literal double
    sum over all inputs and steps. ``predict`` maps an observed-bit tuple to
    the next guess."""
    errors = 0
    for g in range(1 << t):
        s = machine.initial_state
        seen: tuple[int, ...] = ()
        for i in range(t):
            b = (g >> i) & 1
            o = machine.output[s][b]
            if predict(seen) != o:
                errors += 1
            seen = seen + (o,)
            s = machine.transition[s][b]
    return Fraction(errors, t * (1 << t))


def predictor_totals(machine, predictor, t: int, sequences) -> tuple[int, int, list[int]]:
    """Misses of any predictor object run online beside the machine, over
    bit-packed inputs: (total, most in one sequence, per step).

    Per sequence it resets the predictor; per step it tells the predictor the
    machine's state, takes its guess and then shows it the emitted bit.
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


def continuation_error_double_sum(machine, training, predict, c: int) -> tuple[int, int]:
    """Continuation misses after observed training bits, by the literal sum.

    Runs every input of length ``len(training) + c``, keeps those whose first
    outputs equal the training bits, and counts the later steps where
    ``predict`` (observed-bit tuple -> guess, training bits included) misses.
    Returns (misses, kept inputs).
    """
    training = list(training)
    n = len(training)
    misses = kept = 0
    for g in range(1 << (n + c)):
        s = machine.initial_state
        seen: tuple[int, ...] = ()
        for i in range(n + c):
            b = (g >> i) & 1
            o = machine.output[s][b]
            if i < n and o != training[i]:
                break
            if i >= n and predict(seen) != o:
                misses += 1
            seen = seen + (o,)
            s = machine.transition[s][b]
        else:
            kept += 1
    return misses, kept


def _exact_inverse(a: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination in
    exact rationals."""
    n = len(a)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        scale = rows[c][c]
        if scale != 1:
            rows[c] = [x / scale for x in rows[c]]
        for r in range(n):
            f = rows[r][c]
            if r != c and f != 0:
                rows[r] = [x - f * y if y else x for x, y in zip(rows[r], rows[c])]
    return [[Fraction(x) for x in row[n:]] for row in rows]


def cesaro_limit_and_fundamental(
    machine,
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """The Cesàro limit Pi of the chain P (adjacency scaled by 1/2) and its
    fundamental matrix Z = (I - P + Pi)^-1, both exact (Kemeny & Snell 1960).

    Pi is built from its definition: the closed classes are the states whose
    every reachable state reaches back; each closed class gets its own
    stationary vector, and each transient state spreads its row over the
    classes by its absorption probabilities B = (I - Q)^-1 R.
    """
    k = machine.num_states
    adj = [[0] * k for _ in range(k)]
    for s in range(k):
        for b in (0, 1):
            adj[s][machine.transition[s][b]] += 1
    p = [[Fraction(a, 2) for a in row] for row in adj]
    reach = []
    for s in range(k):
        seen, todo = {s}, [s]
        while todo:
            for nxt in machine.transition[todo.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        reach.append(seen)
    recurrent = [s for s in range(k) if all(s in reach[j] for j in reach[s])]
    classes = sorted({tuple(sorted(reach[s])) for s in recurrent})
    stationary = {}
    for cls in classes:
        # pi (I - P_C) = 0 with the last balance equation swapped for sum(pi) = 1
        n = len(cls)
        a = [[int(i == j) - p[cls[j]][cls[i]] for j in range(n)] for i in range(n)]
        a[-1] = [Fraction(1)] * n
        inv = _exact_inverse(a)
        for i, s in enumerate(cls):
            stationary[s] = inv[i][-1]
    transient = [s for s in range(k) if s not in stationary]
    absorb = {}
    if transient:
        n_mat = _exact_inverse(
            [[int(i == j) - p[i][j] for j in transient] for i in transient]
        )
        for a_idx, i in enumerate(transient):
            for cls in classes:
                absorb[i, cls] = sum(
                    n_mat[a_idx][b_idx] * sum(p[j][c] for c in cls)
                    for b_idx, j in enumerate(transient)
                )
    pi = [[Fraction(0)] * k for _ in range(k)]
    for cls in classes:
        for i in range(k):
            weight = int(i in cls) if i in stationary else absorb[i, cls]
            for j in cls:
                pi[i][j] = weight * stationary[j]
    z = _exact_inverse(
        [[int(i == j) - p[i][j] + pi[i][j] for j in range(k)] for i in range(k)]
    )
    return pi, z


def known_state_transient_law(
    machine, horizons
) -> tuple[Fraction, dict[int, Fraction], Fraction]:
    """Exact floor, transient terms and their bound for the state-informed
    predictor, from the oracle's Cesàro limit Pi and fundamental matrix Z.

    With P the chain, u = 1/2 on unbiased states and s0 the initial state,
    the floor is (Pi u)[s0] and t (e(t) - floor) equals the transient term
    (Z u)[s0] - (delta_s0 P^t) Z u, so the gap to the floor is at most
    2 max|Z u| / t.
    """
    k, s0 = machine.num_states, machine.initial_state
    pi, z = cesaro_limit_and_fundamental(machine)
    u = [Fraction(int(machine.output[s][0] != machine.output[s][1]), 2) for s in range(k)]
    zu = [sum(z[i][j] * u[j] for j in range(k)) for i in range(k)]
    floor = sum(pi[s0][j] * u[j] for j in range(k))
    row = [int(s == s0) for s in range(k)]  # 2^t delta_s0 P^t, in input counts
    transient = {}
    for t in range(1, max(horizons) + 1):
        nxt = [0] * k
        for s in range(k):
            for b in (0, 1):
                nxt[machine.transition[s][b]] += row[s]
        row = nxt
        if t in horizons:
            transient[t] = zu[s0] - sum(r * x for r, x in zip(row, zu)) / (1 << t)
    return floor, transient, 2 * max(abs(x) for x in zu)


def visit_transient_term(machine, h: int) -> list[Fraction]:
    """delta_s0 (P - P^(h+1)) Z, exact, from the oracle's fundamental matrix.

    Since sum_{n=1..h} P^n = h Pi + (P - P^(h+1)) Z, this is what h times the
    all-input visit frequency over positions 1..h exceeds h Pi[s0] by.
    """
    k, s0 = machine.num_states, machine.initial_state
    _, z = cesaro_limit_and_fundamental(machine)
    row = [int(s == s0) for s in range(k)]  # 2^n delta_s0 P^n, in input counts
    rows = []
    for _ in range(h + 1):
        nxt = [0] * k
        for s in range(k):
            for b in (0, 1):
                nxt[machine.transition[s][b]] += row[s]
        row = nxt
        rows.append(row)
    diff = [Fraction(a, 2) - Fraction(b, 1 << (h + 1)) for a, b in zip(rows[0], rows[-1])]
    return [sum(d * z[i][j] for i, d in enumerate(diff)) for j in range(k)]


def strongly_connected(machine) -> bool:
    """Whether every state reaches every state, by a depth-first search from
    each state along ``machine.transition``."""
    k = machine.num_states
    for start in range(k):
        seen, stack = {start}, [start]
        while stack:
            for n in machine.transition[stack.pop()]:
                if n not in seen:
                    seen.add(n)
                    stack.append(n)
        if len(seen) < k:
            return False
    return True
