"""Correctness gate: every op's report is checked outside the timed section.

The exact checks recompute results from the machine tables with the
independent definitions in ``tests/oracles.py`` (the chain-law DP, the level
tables of realized output prefixes, the literal double sum); nothing here
calls the library. A check returns a list of problems, empty when the report
is right.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

import oracles
from workloads import Machine, Op, Workload


def _frac(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def parse_machine_text(text: str) -> Machine:
    lines = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    k = int(lines[0][1])
    initial = int(lines[1][1])
    trans = [[0, 0] for _ in range(k)]
    out = [[0, 0] for _ in range(k)]
    for s, b, _, n, o in lines[2:]:
        trans[int(s)][int(b)] = int(n)
        out[int(s)][int(b)] = int(o)
    return Machine(k, tuple(map(tuple, trans)), tuple(map(tuple, out)), initial)


class Gate:
    """Checks reports against the workload's own machine tables.

    Level tables are cached per machine because several ops of a workload
    share them; a table for horizon t holds every shorter one. The runs
    consistent with a search's training bits are cached per op.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self._cache: dict = {}

    def check(self, op: Op, data: bytes, reports: dict[str, bytes]) -> list[str]:
        try:
            if op.check == "replay":
                source = reports.get(op.params["source"])
                return [] if source == data else ["replay differs from its source report"]
            report = json.loads(data)
            if report.get("tool") != "mealypred":
                return ["not a mealypred report"]
            return getattr(self, "_" + op.check)(op, report["result"])
        except Exception as e:  # a malformed report is a failed op, not a crash
            return [f"{type(e).__name__}: {e}"]

    def _m(self, name: str) -> Machine:
        return self.workload.machines[name]

    def _levels_of(self, name: str, t: int):
        levels = self._cache.get(name)
        if levels is None or len(levels) <= t:
            levels = self._cache[name] = oracles.level_tables(self._m(name), t)
        return levels

    # -- analyze ------------------------------------------------------------

    def _analyze(self, op, result):
        m = self._m(op.params["machine"])
        w = np.asarray(result["stationary"]["weights"], dtype=float)
        n = np.zeros((m.num_states, m.num_states))
        for s in range(m.num_states):
            for b in (0, 1):
                n[s, m.transition[s][b]] += 0.5
        problems = []
        if w.shape != (m.num_states,):
            return ["weight vector has the wrong length"]
        if (w < 0).any():
            problems.append("negative weight")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            problems.append(f"weights sum to {float(w.sum())!r}")
        residual = float(np.max(np.abs(w @ n - w)))
        if residual > 1e-9:
            problems.append(f"not a fixed point (residual {residual:.3g})")
        reachable = set(oracles_reachable(m))
        if any(w[s] != 0.0 for s in range(m.num_states) if s not in reachable):
            problems.append("weight on an unreachable state")
        unbiased = [s for s in range(m.num_states) if m.output[s][0] != m.output[s][1]]
        if result["unbiased_states"] != unbiased:
            problems.append("wrong unbiased state list")
        return problems

    # -- exact evaluation ---------------------------------------------------

    def _known_state(self, op, result):
        m = self._m(op.params["machine"])
        t = op.params["t"]
        expected = oracles.dp_known_state_error(m, t)
        if result["t"] != t or result["method"] != "exhaustive":
            return ["wrong horizon or method"]
        if _frac(result["e_ave"]) != expected:
            return [f"e_ave {result['e_ave']} != chain-law DP {expected}"]
        return []

    def _consistency_exact(self, op, result):
        name, t = op.params["machine"], op.params["t"]
        levels = self._levels_of(name, t)
        total = 0
        for j in range(t):
            nxt = levels[j + 1]
            for key in levels[j]:
                p = sum(nxt.get(2 * key, ()))
                q = sum(nxt.get(2 * key + 1, ()))
                total += min(p, q) << (t - j - 1)
        expected = Fraction(total, t << t)
        if _frac(result["e_ave"]) != expected:
            return [f"e_ave {result['e_ave']} != level-table min sum {expected}"]
        return self._exact_report(op, result)

    def _exact_report(self, op, result):
        """Average, worst case and per-step errors, recomputed exactly."""
        t = op.params["t"]
        if op.params["predictor"] in ("consistency", "ensemble"):
            step, wc = self._prefix_walk(op, t)
        else:
            step, wc = self._product_walk(op, t)
        problems = []
        expected = Fraction(sum(step), t << t)
        if _frac(result["e_ave"]) != expected:
            problems.append(f"e_ave {result['e_ave']} != recomputed {expected}")
        if _frac(result["e_wc"]) != Fraction(wc, t):
            problems.append(f"e_wc {result['e_wc']} != recomputed {Fraction(wc, t)}")
        if "per_step_errors" in result:
            if [_frac(x) for x in result["per_step_errors"]] != [Fraction(c, 1 << t) for c in step]:
                problems.append("per-step errors differ from the recomputed ones")
        return problems

    def _prefix_walk(self, op, t):
        """Walk the generator's realized output prefixes. A consistency or
        ensemble guess after a prefix compares, summed over the predictor's
        machines, the inputs whose outputs extend the prefix by 0 and by 1."""
        names = [op.params["machine"]] if op.params["predictor"] == "consistency" \
            else _candidates(op)
        tables = [self._levels_of(n, t) for n in names]
        gen = self._levels_of(op.params["machine"], t)
        step = [0] * t
        errs = {0: 0}
        for j in range(t):
            new_errs = {}
            for key, e in errs.items():
                p = q = 0
                for levels in tables:
                    p += sum(levels[j + 1].get(2 * key, ()))
                    q += sum(levels[j + 1].get(2 * key + 1, ()))
                guess = 0 if p >= q else 1
                for o in (0, 1):
                    child = 2 * key + o
                    if child in gen[j + 1]:
                        if guess != o:
                            step[j] += sum(gen[j + 1][child]) << (t - j - 1)
                        new_errs[child] = e + (guess != o)
            errs = new_errs
        return step, max(errs.values())

    def _product_walk(self, op, t):
        kind = op.params["predictor"]
        pm = self._m(_automaton(op)) if kind == "automaton" else constant(int(kind[-1]))
        return automaton_errors(self._m(op.params["machine"]), pm, t)

    # -- Monte Carlo --------------------------------------------------------

    def _consistency_mc(self, op, result):
        m = self._m(op.params["machine"])
        t, samples, seed = op.params["t"], op.params["samples"], op.params["seed"]
        bits = np.random.default_rng(seed).integers(0, 2, size=(samples, t), dtype=np.uint8)
        total, wc = _consistency_sample_errors(m, bits.tolist())
        problems = []
        if result["samples"] != samples or result["seed"] != seed or result["rng"] != "pcg64":
            problems.append("sampler settings differ from the command line")
        if result["e_ave"] != repr(total / (t * samples)):
            problems.append(f"e_ave {result['e_ave']} != resampled {total / (t * samples)!r}")
        if result["e_wc"] != repr(wc / t):
            problems.append("e_wc differs from the resampled worst case")
        return problems

    # -- search and batch selection -----------------------------------------

    def _search(self, op, result):
        best = parse_machine_text(result["best_machine"])
        targets = [self._m(n) for n in op.params["targets"]]
        t = op.params["t"]
        predict = _automaton_prefix_function(best)
        expected = sum(
            (oracles.predictor_error_double_sum(m, predict, t) for m in targets), Fraction(0)
        ) / len(targets)
        problems = []
        if _frac(result["best_score"]) != expected:
            problems.append(f"best score {result['best_score']} != double sum {expected}")
        scores = [_frac(e["score"]) for e in result["leaderboard"]]
        if scores != sorted(scores) or scores[0] != _frac(result["best_score"]):
            problems.append("leaderboard out of order")
        for rival in _rivals(op, best.num_states):
            score = sum((Fraction(sum(automaton_errors(m, rival, t)[0]), t << t)
                         for m in targets), Fraction(0)) / len(targets)
            if score < expected:
                problems.append(f"a {best.num_states}-state candidate scores {score} < winner")
                break
        return problems

    def _search_after(self, op, result):
        best = parse_machine_text(result["best_machine"])
        expected = self._after_score(op, best)
        problems = []
        if _frac(result["best_score"]) != expected:
            problems.append(
                f"best score {result['best_score']} != brute-force continuation sum {expected}")
        for rival in _rivals(op, best.num_states):
            if self._after_score(op, rival) < expected:
                problems.append(f"a {best.num_states}-state candidate beats the winner")
                break
        return problems

    def _after_score(self, op, predictor: Machine) -> Fraction:
        """Continuation error of an automaton predictor after the training
        bits, over every consistent (input, target) pair, by brute force."""
        training = op.params["training"]
        c = op.params["continuation"]
        n = len(training)
        key = ("after", op.op_id)
        if key not in self._cache:
            runs = []
            for name in op.params["targets"]:
                for g in range(1 << (n + c)):
                    outs, _ = oracles.simulate(self._m(name), g, n + c)
                    if outs[:n] == training:
                        runs.append(outs)
            self._cache[key] = runs
        runs = self._cache[key]
        predict = _automaton_prefix_function(predictor)
        errors = sum(predict(tuple(outs[:i])) != outs[i] for outs in runs for i in range(n, n + c))
        return Fraction(errors, len(runs) * c)

    def _batch(self, op, result):
        training = [int(ch) for ch in op.argv[op.argv.index("--training") + 1]]
        counts = [sum(oracles.consistency_counts(self._m(n), training))
                  for n in op.params["machines"]]
        problems = []
        if result["pair_counts"] != counts:
            problems.append(f"pair counts {result['pair_counts']} != filtered counts {counts}")
        scores = [(_frac(s["score"]), s["index"]) for s in result["scores"]]
        if min(scores)[1] != result["best_index"]:
            problems.append("best index is not the least score")
        return problems


def oracles_reachable(m: Machine) -> list[int]:
    """States on some path from the initial state (all inputs of length k)."""
    seen = set()
    for g in range(1 << m.num_states):
        seen.update(oracles.simulate(m, g, m.num_states)[1])
    return sorted(seen)


def constant(bit: int, k: int = 1) -> Machine:
    """A k-state automaton that always guesses ``bit``."""
    return Machine(k, ((0, 0),) * k, ((bit, bit),) * k)


RIVALS = 6


def _rivals(op: Op, k: int) -> list[Machine]:
    """Candidates the winner of a k-state search must not lose to: both
    constant guessers and a few random k-state automata seeded by the op."""
    rng = random.Random(op.op_id)
    rivals = [constant(0, k), constant(1, k)]
    for _ in range(RIVALS):
        trans = tuple((rng.randrange(k), rng.randrange(k)) for _ in range(k))
        out = tuple((rng.randrange(2), rng.randrange(2)) for _ in range(k))
        rivals.append(Machine(k, trans, out))
    return rivals


def automaton_errors(gen: Machine, pm: Machine, t: int) -> tuple[list[int], int]:
    """Per-step error totals over all 2^t inputs, and the worst sequence's
    error count, of automaton predictor ``pm`` on generator ``gen``.

    Walks (generator state, predictor state, pending guess) triples with the
    number of inputs reaching each and the most errors on the way there.
    """
    s0 = pm.initial_state
    layer = {(gen.initial_state, pm.transition[s0][0], pm.output[s0][0]): (1, 0)}
    step = [0] * t
    for j in range(t):
        nxt: dict = {}
        for (s, q, guess), (count, worst) in layer.items():
            for b in (0, 1):
                o = gen.output[s][b]
                miss = guess != o
                if miss:
                    step[j] += count << (t - j - 1)
                key = (gen.transition[s][b], pm.transition[q][o], pm.output[q][o])
                c2, w2 = nxt.get(key, (0, 0))
                nxt[key] = (c2 + count, max(w2, worst + miss))
        layer = nxt
    return step, max(w for _, w in layer.values())


def _candidates(op: Op) -> list[str]:
    argv = op.argv
    return [argv[i + 1][: -len(".mealy")] for i, a in enumerate(argv) if a == "--candidates"]


def _automaton(op: Op) -> str:
    return op.argv[op.argv.index("--predictor-machine") + 1][: -len(".mealy")]


def _automaton_prefix_function(m: Machine):
    """The automaton predictor as a map from an observed prefix to its guess:
    primed with a virtual 0, then fed every observed bit."""
    memo: dict[tuple, tuple[int, int]] = {}

    def state(seen: tuple) -> tuple[int, int]:
        if seen in memo:
            return memo[seen]
        if not seen:
            s0 = m.initial_state
            r = (m.transition[s0][0], m.output[s0][0])
        else:
            s, _ = state(seen[:-1])
            r = (m.transition[s][seen[-1]], m.output[s][seen[-1]])
        memo[seen] = r
        return r

    return lambda seen: state(tuple(seen))[1]


def _consistency_sample_errors(m: Machine, rows: list[list[int]]) -> tuple[int, int]:
    """Total and worst per-row errors of the consistency predictor for
    machine ``m`` on each sampled input row, with exact per-state counts of
    consistent input sequences."""
    k = m.num_states
    moves = [[[], []] for _ in range(k)]  # moves[s][o] = successors emitting o
    for s in range(k):
        for b in (0, 1):
            moves[s][m.output[s][b]].append(m.transition[s][b])
    total = wc = 0
    for row in rows:
        counts = {m.initial_state: 1}
        s = m.initial_state
        errs = 0
        for b in row:
            p = sum(c * len(moves[x][0]) for x, c in counts.items())
            q = sum(c * len(moves[x][1]) for x, c in counts.items())
            o = m.output[s][b]
            errs += (0 if p >= q else 1) != o
            nxt: dict[int, int] = {}
            for x, c in counts.items():
                for y in moves[x][o]:
                    nxt[y] = nxt.get(y, 0) + c
            counts = nxt
            s = m.transition[s][b]
        total += errs
        wc = max(wc, errs)
    return total, wc
