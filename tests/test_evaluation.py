"""Error metrics (exact and sampled) and batch-mode predictor selection."""

import itertools
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from mealypred import (
    AutomatonPredictor,
    BatchProblem,
    CapExceeded,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    InconsistentTrainingData,
    KnownStatePredictor,
    MealyMachine,
    Bits,
    batch_select,
    default_batch_predictors,
    evaluate_exhaustive,
    evaluate_monte_carlo,
    relabel,
    training_pool,
)
from mealypred.automaton import parse_machine
from mealypred.evaluation import PredictorScore, _Nodes, _sweep_consistency, _sweep_product
from mealypred.machines import (
    alternating_ring,
    biased_unbiased_ring,
    constant_machine,
    delay_machine,
    echo_machine,
    eight_state_example,
    random_machine,
)
from mealypred.predictors import Predictor

import oracles


def _seeded(seed):
    rng = random.Random(seed)
    return random_machine(rng.randint(3, 8), rng)


def _seeded_ensemble(seed):
    rng = random.Random(seed)
    return [random_machine(rng.randint(2, 5), rng) for _ in range(3)]


def _census_kinds(rng):
    """Seeded 1-6-state machines of the kinds a census draws: random ones,
    ones with a deterministic ring reached from state 0, and ones whose
    unbiased initial state is never re-entered."""
    for k in range(1, 7):
        yield random_machine(k, rng)
        if k == 1:
            continue
        base = random_machine(k, rng)
        trans = [list(row) for row in base.transition]
        ring = rng.sample(range(k), rng.randint(2, k))
        for s, nxt in zip(ring, ring[1:] + ring[:1]):
            trans[s] = [nxt, nxt]
        if 0 not in ring:
            trans[0][rng.randrange(2)] = ring[0]
        yield MealyMachine(k, tuple(map(tuple, trans)), base.output)
        base = random_machine(k, rng)
        first = rng.randrange(2)
        yield MealyMachine(k, tuple(tuple(n or rng.randrange(1, k) for n in row) for row in base.transition),
                           ((first, 1 - first),) + base.output[1:])


# a two-state counter: its consistency counts over itself never repeat up to
# scale, so its product machine has unboundedly many pairs
COUNTER = parse_machine("mealy 2\ninitial 0\n0 0 -> 1 0\n0 1 -> 0 1\n1 0 -> 1 1\n1 1 -> 0 1\n")


class _FlipFlopPredictor(Predictor):
    """Alternates guesses; a predictor from outside the package."""

    label = "flip-flop"

    def __init__(self):
        self._next = 0

    def reset(self):
        self._next = 0

    def predict(self):
        return self._next

    def observe(self, bit):
        self._next ^= 1

    def snapshot(self):
        return self._next

    def restore(self, snap):
        self._next = snap


class _ContraryPredictor(ConsistencyPredictor):
    """Guesses the bit the consistency rule rejects."""

    def predict(self) -> int:
        return 1 - super().predict()


class _CountingPredictor(AutomatonPredictor):
    """Also counts its observations, so it has a snapshot per step count.
    It refuses after 10,000 snapshots, where a walk over them would not end."""

    def reset(self):
        super().reset()
        self.seen, self.taken = 0, 0

    def observe(self, bit: int):
        super().observe(bit)
        self.seen += 1

    def snapshot(self):
        self.taken += 1
        if self.taken > 10_000:
            raise RuntimeError("more than 10,000 snapshots")
        return super().snapshot(), self.seen

    def restore(self, snap):
        super().restore(snap[0])
        self.seen = snap[1]


class TestExhaustive:
    def test_constant_machine_perfectly_predicted(self, const0):
        r = evaluate_exhaustive(const0, ConsistencyPredictor(const0), 8)
        assert r.e_ave == 0 and r.e_wc == 0

    def test_echo_sits_at_half(self, echo):
        r = evaluate_exhaustive(echo, ConsistencyPredictor(echo), 10)
        assert r.e_ave == Fraction(1, 2)
        assert 0.45 <= r.e_ave <= 0.55

    def test_alternating_ring_at_most_one_error(self, alt_ring):
        r = evaluate_exhaustive(alt_ring, ConsistencyPredictor(alt_ring), 10)
        assert r.e_ave <= Fraction(1, 10)

    def test_metric_ordering_invariant(self):
        rng = random.Random(2)
        for _ in range(15):
            m = random_machine(rng.randint(1, 3), rng)
            r = evaluate_exhaustive(m, ConsistencyPredictor(m), 6)
            assert 0 <= r.e_ave <= r.e_wc <= 1

    def test_cap_refusal(self, echo):
        with pytest.raises(CapExceeded):
            evaluate_exhaustive(echo, ConsistencyPredictor(echo), 25)
        # explicit cap raise is honored
        r = evaluate_exhaustive(echo, ConstantPredictor(0), 25, cap=25)
        assert r.e_ave == Fraction(1, 2)

    def test_per_step_errors(self, alt_ring):
        r = evaluate_exhaustive(alt_ring, ConstantPredictor(0), 4, per_step=True)
        assert r.per_step_errors == (0, Fraction(1), 0, Fraction(1))

    def test_engines_agree_with_reference_loop(self):
        rng, more = random.Random(4), random.Random(5)
        # every state biased: a node item whose states emit one bit only
        # repeats its one edge at weight 0, on the horizon's items too
        biased = MealyMachine(3, ((0, 1), (2, 1), (2, 0)), ((1, 1), (0, 0), (0, 0)))

        def rows():
            for _ in range(25):
                yield random_machine(rng.randint(1, 4), rng), rng.randint(1, 7)
            # at t=1 the whole walk is the horizon step
            yield from ((m, t) for m in (eight_state_example(), biased) for t in (1, 2))
            yield biased, 7

        for m, t in rows():
            predictors = [
                ConsistencyPredictor(m),
                ConsistencyPredictor(random_machine(2, rng)),
                KnownStatePredictor(m),
                ConstantPredictor(rng.randint(0, 1)),
                EnsemblePredictor([m, random_machine(2, rng)]),
                AutomatonPredictor(random_machine(3, more)),
                _SubConsistency(m),  # driven through snapshot and restore
            ]
            for p in predictors:
                fast = evaluate_exhaustive(m, p, t, per_step=True)
                total, wc, step = oracles.predictor_totals(m, p, t, range(1 << t))
                assert fast.e_ave == Fraction(total, t * (1 << t))
                assert fast.e_wc == Fraction(wc, t)
                assert fast.per_step_errors == tuple(
                    Fraction(c, 1 << t) for c in step
                )

    def test_workers_handle_arbitrary_predictors(self, echo):
        # a foreign predictor runs through the same merged-frontier engine
        r = evaluate_exhaustive(echo, _FlipFlopPredictor(), 8)
        assert r.e_ave == oracles.predictor_error_double_sum(echo, lambda p: len(p) % 2, 8)

    def test_long_horizon_known_state_matches_chain_law(self):
        rng = random.Random(40)
        t = 40
        for _ in range(12):
            m = random_machine(rng.randint(1, 6), rng)
            r = evaluate_exhaustive(m, KnownStatePredictor(m), t, cap=t, per_step=True)
            assert r.e_ave == oracles.dp_known_state_error(m, t)
            assert sum(r.per_step_errors) == t * r.e_ave
            assert evaluate_exhaustive(m, KnownStatePredictor(m), t, cap=t).e_ave == r.e_ave

    def test_each_pair_expanded_once(self, monkeypatch):
        # a known-state walk reaches one (node, state) pair per reachable
        # state, however many depths each of them stays on the frontier
        calls = []
        expand = _Nodes.expand
        monkeypatch.setattr(_Nodes, "expand", lambda nodes, pair: calls.append(pair) or expand(nodes, pair))
        rng = random.Random(41)
        for k in (3, 6, 8):
            m = random_machine(k, rng)
            calls.clear()
            r = evaluate_exhaustive(m, KnownStatePredictor(m), 40, cap=40)
            assert r.e_ave == oracles.dp_known_state_error(m, 40)
            assert len(calls) == len(set(calls)) == len(m.reachable_states()) <= k

    def test_known_state_of_smaller_machine_refused(self):
        rng = random.Random(44)
        generator, small = random_machine(4, rng), random_machine(2, rng)
        with pytest.raises(ValueError, match="has 2 states, fewer than the generator's 4"):
            evaluate_exhaustive(generator, KnownStatePredictor(small), 6)

    def test_frontier_budget_refused(self, monkeypatch):
        # consistency over a relabeled copy is not over the generator itself,
        # so it walks (node, state) pairs; at t=13 the frontiers it holds,
        # those of depths 0..12, peak at 46 pairs at depth 12
        m = eight_state_example()
        relabeled = relabel(m, (0, 7, 6, 5, 4, 3, 2, 1))
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 46)
        assert evaluate_exhaustive(m, ConsistencyPredictor(relabeled), 13).e_ave == Fraction(4579, 106496)
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 45)
        with pytest.raises(CapExceeded, match=r"^exact walk frontier reached 46 \(node, state\) "
                                              r"pairs at depth 12, over the budget of 45$"):
            evaluate_exhaustive(m, ConsistencyPredictor(relabeled), 13)
        # at t=12 the depth-12 frontier is never built: 40 pairs suffice
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 40)
        assert evaluate_exhaustive(m, ConsistencyPredictor(relabeled), 12).e_ave == Fraction(719, 16384)

    def test_node_frontier_budget_refused(self, monkeypatch):
        # the machine's own consistency walk goes by nodes alone; at t=13 the
        # frontiers it holds peak at 10 nodes, at depth 12
        m = eight_state_example()
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 10)
        assert evaluate_exhaustive(m, ConsistencyPredictor(m), 13).e_ave == Fraction(4579, 106496)
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 9)
        with pytest.raises(CapExceeded, match=r"^exact walk frontier reached 10 nodes at depth 12, "
                                              r"over the budget of 9$"):
            evaluate_exhaustive(m, ConsistencyPredictor(m), 13)
        # at t=12 the depth-12 frontier is never built: 9 nodes suffice
        assert evaluate_exhaustive(m, ConsistencyPredictor(m), 12).e_ave == Fraction(719, 16384)


def _union_rule(members, t):
    """The consistency guess over the disjoint union of ``members`` as a
    function of the observed prefix, from the oracle's level tables: count
    the one-step continuations emitting 0 and 1 of every consistent (member,
    input) pair; ties, and a prefix no member can produce, go to 0."""
    tables = [(m, oracles.level_tables(m, t)) for m in members]

    def predict(seen):
        key = int("".join(map(str, seen)) or "0", 2)
        lean = 0  # half of (continuations emitting 1 - those emitting 0)
        for m, levels in tables:
            for s, c in enumerate(levels[len(seen)].get(key, ())):
                lean += c * (sum(m.output[s]) - 1)
        return int(lean > 0)

    return predict


class TestMergedWalk:
    """The snapshot-interning walk against the literal double sum and the
    oracle's per-sequence loop, for the predictors whose nodes are gcd-keyed."""

    @staticmethod
    def _cases():
        rng = random.Random(11)
        machines = [eight_state_example()] + [random_machine(k, rng) for k in (3, 4, 5, 6, 8)]
        # its biased states of opposite bias are reached with unequal counts,
        # so a key that kept only which counts are nonzero would misguess
        machines.append(MealyMachine(3, ((2, 0), (0, 2), (1, 0)), ((1, 0), (0, 0), (1, 1))))
        for i, m in enumerate(machines):
            t = 10 + i % 3
            a, b = random_machine(rng.randint(2, 4), rng), random_machine(3, rng)
            yield m, t, [m]
            yield m, t, [a, m]
            yield m, t, [a, b]  # the generator is not among them: every member may die
            yield m, t, [b, m, a]

    def test_matches_double_sum_and_loop(self):
        for m, t, members in self._cases():
            p = ConsistencyPredictor(m) if len(members) == 1 else EnsemblePredictor(members)
            r = evaluate_exhaustive(m, p, t, per_step=True)
            assert r.e_ave == oracles.predictor_error_double_sum(m, _union_rule(members, t), t)
            total, wc, step = oracles.predictor_totals(m, p, t, range(1 << t))
            assert r.e_ave == Fraction(total, t * (1 << t))
            assert r.e_wc == Fraction(wc, t)
            assert r.per_step_errors == tuple(Fraction(c, 1 << t) for c in step)

    def test_nodes_are_the_distinct_normalised_vectors(self, caplog):
        # A machine's own consistency walk reaches exactly the realisable
        # prefixes of length 0..t-1 (the horizon's items are read, not
        # expanded), so its nodes are their count vectors over their gcd,
        # which the oracle's level tables list independently.
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        merged = 0
        rng = random.Random(12)
        for m in [eight_state_example()] + [random_machine(k, rng) for k in (3, 5, 6, 8)]:
            t = 12
            evaluate_exhaustive(m, ConsistencyPredictor(m), t)
            levels = oracles.level_tables(m, t)
            raw = {v for level in levels[:t] for v in level.values()}
            scaled = {tuple(c // math.gcd(*v) for c in v) for v in raw}
            walk = [r.getMessage() for r in caplog.records if r.name == "mealypred.evaluation"][-1]
            assert int(re.search(r"(\d+) nodes interned", walk).group(1)) == len(scaled)
            merged += len(scaled) < len(raw)
        assert merged  # gcd keys merged proportional vectors

    def test_product_machine_matches_loop(self):
        rng = random.Random(13)
        for m in [eight_state_example()] + [random_machine(k, rng) for k in (3, 5, 8)]:
            for p in (KnownStatePredictor(m), AutomatonPredictor(random_machine(3, rng)),
                      ConstantPredictor(1)):
                TestMonteCarlo._assert_matches_loop(m, p, 40, samples=200)


def _walked(caplog) -> str:
    """The item kind the last exact walk logged."""
    walk = [r.getMessage() for r in caplog.records if r.getMessage().startswith("exact walk")][-1]
    return re.search(r"peak frontier \d+ (.*)$", walk).group(1)


def _reversed(m):
    """``m`` with states 1..k-1 renamed in reverse: equal behaviour, unequal tables."""
    return relabel(m, (0,) + tuple(range(m.num_states - 1, 0, -1)))


class TestNodeWalk:
    """A counting predictor that holds the generator as a member walks nodes
    alone; every other walk goes by (node, state) pairs."""

    @staticmethod
    def _ensembles(m, rng):
        a, b = random_machine(rng.randint(2, 4), rng), random_machine(3, rng)
        return [[m, a], [a, m], [a, b, m], [m, m], [a, m, b, m]]

    def test_matches_double_sum(self, caplog):
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        rng = random.Random(14)
        for m in [eight_state_example()] + [random_machine(k, rng) for k in (1, 2, 3, 5, 7, 8)]:
            t = rng.randint(6, 10)
            for members in [[m]] + self._ensembles(m, rng):
                p = ConsistencyPredictor(m) if len(members) == 1 else EnsemblePredictor(members)
                r = evaluate_exhaustive(m, p, t)
                assert _walked(caplog) == "nodes"
                assert r.e_ave == oracles.predictor_error_double_sum(m, _union_rule(members, t), t)

    def test_matches_pair_walk_of_relabeled_copy(self, caplog):
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        rng = random.Random(15)
        for _ in range(12):
            m = random_machine(rng.randint(3, 8), rng)
            t = rng.randint(10, 16)
            for members in [[m]] + self._ensembles(m, rng)[:3]:
                copy = [_reversed(x) if x is m else x for x in members]
                reports = []
                for ms in (members, copy):
                    p = ConsistencyPredictor(ms[0]) if len(ms) == 1 else EnsemblePredictor(ms)
                    reports.append(evaluate_exhaustive(m, p, t, per_step=True))
                    reports.append(_walked(caplog))
                nodes, node_kind, pairs, pair_kind = reports
                assert (node_kind, pair_kind) == ("nodes", "(node, state) pairs")
                assert (nodes.e_ave, nodes.e_wc, nodes.per_step_errors) == (
                    pairs.e_ave, pairs.e_wc, pairs.per_step_errors)

    def test_other_walks_go_by_pairs(self, caplog):
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        rng = random.Random(16)
        m, a, b = random_machine(5, rng), random_machine(3, rng), random_machine(4, rng)
        moved = MealyMachine(m.num_states, m.transition, m.output, initial_state=2)
        for p in (EnsemblePredictor([a, b]), EnsemblePredictor([a, moved]),
                  ConsistencyPredictor(moved), ConsistencyPredictor(a), KnownStatePredictor(m),
                  AutomatonPredictor(a), _ContraryPredictor(m)):
            evaluate_exhaustive(m, p, 8)
            assert _walked(caplog) == "(node, state) pairs"
        problem = BatchProblem((m, a), Bits.from_string("01"), 8, (ConsistencyPredictor(m),))
        caplog.clear()
        batch_select(problem)
        assert _walked(caplog) == "(node, state) pairs"


class _SubConsistency(ConsistencyPredictor):
    """No override: only its type sends it down the online protocol."""


class _SubEnsemble(EnsemblePredictor):
    """No override: only its type sends it down the online protocol."""


class TestTableWalk:
    """A counting predictor of exact type is walked through its count table;
    a trivial subclass is restored, shown each bit and asked to predict. The
    two give equal reports."""

    @staticmethod
    def _both(m, members, t):
        """The exact reports of the exact type and of its subclass."""
        if len(members) == 1:
            return [evaluate_exhaustive(m, cls(members[0]), t, per_step=True)
                    for cls in (ConsistencyPredictor, _SubConsistency)]
        return [evaluate_exhaustive(m, cls(members), t, per_step=True)
                for cls in (EnsemblePredictor, _SubEnsemble)]

    def test_consistency_matches_protocol(self, caplog):
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        rng = random.Random(17)
        for m in [eight_state_example()] + [random_machine(rng.randint(2, 8), rng) for _ in range(8)]:
            t = rng.randint(6, 12)
            # the generator itself walks nodes; another machine, which dies
            # on some observed prefixes, and the all-zero model, which dies
            # at the first 1, walk pairs
            for model, kind in ((m, "nodes"), (random_machine(rng.randint(1, 4), rng), "(node, state) pairs"),
                                (constant_machine(0), "(node, state) pairs")):
                table, protocol = self._both(m, [model], t)
                assert _walked(caplog) == "(node, state) pairs"  # the subclass walks pairs
                assert table == protocol
                evaluate_exhaustive(m, ConsistencyPredictor(model), t)
                assert _walked(caplog) == kind

    def test_ensemble_with_dying_candidates_matches_protocol(self):
        rng = random.Random(18)
        for _ in range(8):
            m = random_machine(rng.randint(2, 6), rng)
            a = random_machine(rng.randint(1, 4), rng)
            t = rng.randint(6, 12)
            for members in ([m, a, constant_machine(0)], [constant_machine(1), m],
                            [a, constant_machine(0), constant_machine(1)]):
                table, protocol = self._both(m, members, t)
                assert table == protocol

    @pytest.mark.parametrize("weighting", ["pairs", "machines"])
    def test_batch_select_matches_protocol(self, weighting):
        rng = random.Random(19)
        for _ in range(6):
            machines = tuple(random_machine(rng.randint(1, 4), rng) for _ in range(3))
            training = Bits(rng.randrange(8), 3)
            if not any(training_pool(machines, training).pair_counts()):
                continue
            default = default_batch_predictors(machines)
            subclassed = default[:2] + tuple(_SubConsistency(m) for m in machines)
            assert [type(p) for p in default[2:]] == [ConsistencyPredictor] * 3
            selections = [batch_select(BatchProblem(machines, training, 10, ps), weighting=weighting)
                          for ps in (default, subclassed)]
            assert selections[0] == selections[1]

    def test_walk_never_drives_the_predictor(self, monkeypatch):
        # an exact-type walk reads guesses and children off the count
        # table: no observe or predict, and restore only puts back the root
        calls = []

        def spy(cls, name):
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, *a: calls.append((name, a)) or method(self, *a))

        for cls, name in ((ConsistencyPredictor, "observe"), (EnsemblePredictor, "observe"),
                          (ConsistencyPredictor, "predict"), (ConsistencyPredictor, "restore")):
            spy(cls, name)
        rng = random.Random(20)
        m, a = random_machine(5, rng), random_machine(3, rng)
        for p in (ConsistencyPredictor(m), ConsistencyPredictor(a), EnsemblePredictor([a, m]),
                  EnsemblePredictor([a, constant_machine(1)])):
            calls.clear()
            evaluate_exhaustive(m, p, 10)
            assert calls == [("restore", (p.snapshot(),))]
        calls.clear()
        evaluate_exhaustive(m, _SubConsistency(a), 6)
        assert {name for name, _ in calls} == {"observe", "predict", "restore"}


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self, echo):
        a = evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 16, 500, seed=7)
        b = evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 16, 500, seed=7)
        assert a == b
        c = evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 16, 500, seed=8)
        assert (c.e_ave, c.e_wc) != (a.e_ave, a.e_wc)

    def test_constant_machine_scores_zero(self, const0):
        r = evaluate_monte_carlo(const0, ConsistencyPredictor(const0), 32, 2000)
        assert r.e_ave == 0.0

    def test_long_horizon_echo_near_half(self, echo):
        r = evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 64, 20000, seed=1)
        assert abs(r.e_ave - 0.5) < 0.01
        assert r.rng == "pcg64" and r.wc_is_lower_bound

    def test_agrees_with_exhaustive(self, echo):
        exact = evaluate_exhaustive(echo, ConsistencyPredictor(echo), 12)
        mc = evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 12, 100_000, seed=0)
        assert abs(mc.e_ave - float(exact.e_ave)) <= 0.01

    @staticmethod
    def _assert_matches_loop(m, p, t, samples=100, seed=3):
        """Monte Carlo against the oracle's per-sequence loop on the same bits."""
        bits = np.random.default_rng(seed).integers(0, 2, size=(samples, t), dtype=np.uint8)
        packed = [sum(int(b) << i for i, b in enumerate(row)) for row in bits]
        fast = evaluate_monte_carlo(m, p, t, samples, seed, per_step=True)
        total, wc, step = oracles.predictor_totals(m, p, t, packed)
        assert fast.e_ave == total / (t * samples)
        assert fast.e_wc == wc / t
        assert fast.per_step_errors == tuple(c / samples for c in step)

    @staticmethod
    def _assert_kernel_matches_loop(m, p, t, samples=100, seed=3):
        """The count kernel alone against the oracle's loop, on the bits
        Monte Carlo samples for ``seed``."""
        bits = np.random.default_rng(seed).integers(0, 2, size=(samples, t), dtype=np.uint8)
        packed = [sum(int(b) << i for i, b in enumerate(row)) for row in bits]
        p.reset()
        _sweep_consistency(m, p, bits)
        total, wc, step = oracles.predictor_totals(m, p, t, packed)
        assert (int(bits.sum()), int(bits.sum(axis=1).max()), bits.sum(axis=0).tolist()) == (total, wc, step)

    def test_generic_and_vector_paths_agree(self):
        # The count kernel and the product sweep against the per-sequence
        # loop. A consistency predictor whose (node, state) pairs close
        # within PRODUCT_PAIRS runs on the product machine, as the constant
        # machine's own does with one pair; the others, these ensembles
        # among them, run the count kernel, whose columns at t = 70 pass its
        # float64 bound or its int64 bound and are divided by their gcd. The
        # consistency predictors of ``other`` and ``a`` track a machine that
        # is not the generator, so both paths must read the predictor's. The
        # engines' shortcuts hold for the built-in classes only: a subclass
        # may guess otherwise, or have unboundedly many snapshots.
        rng = random.Random(6)
        for t in (9, 70):
            for m in [constant_machine(0)] + [random_machine(rng.randint(1, 6), rng) for _ in range(3)]:
                a, b = random_machine(rng.randint(1, 4), rng), random_machine(2, rng)
                other = random_machine(m.num_states, rng)
                for p in (
                    ConsistencyPredictor(m),
                    ConsistencyPredictor(other),
                    ConsistencyPredictor(a),
                    EnsemblePredictor([a, m]),
                    EnsemblePredictor([a, m, b]),
                    KnownStatePredictor(m),
                    KnownStatePredictor(other),
                    ConstantPredictor(0),
                    ConstantPredictor(1),
                    AutomatonPredictor(a),
                    _ContraryPredictor(m),
                    _CountingPredictor(a),
                ):
                    self._assert_matches_loop(m, p, t)

    @pytest.mark.parametrize("machine, predictor, t, rung", [
        # gcd-normalised at depth 52, the columns pass 2**52 again at once
        # and move to int64, then pass 2**62 near depth 62, so the counts
        # widen to Python integers
        (eight_state_example(), ConsistencyPredictor(eight_state_example()), 70, "object"),
        # normalised columns stay small: three normalisations, all on float64
        (biased_unbiased_ring(), ConsistencyPredictor(biased_unbiased_ring()), 200, "float64"),
        (delay_machine(), EnsemblePredictor([alternating_ring(), echo_machine(), delay_machine()]), 200, "float64"),
        # seeded machines: one normalisation at 2**52 that stays on float64,
        # columns that step onto int64, columns that reach Python integers
        (_seeded(0), ConsistencyPredictor(_seeded(0)), 70, "float64"),
        (_seeded(141), ConsistencyPredictor(_seeded(141)), 80, "int64"),
        (_seeded(154), ConsistencyPredictor(_seeded(154)), 80, "object"),
        (_seeded_ensemble(23)[0], EnsemblePredictor(_seeded_ensemble(23)), 80, "int64"),
    ], ids=["widens", "stays-float64", "ensemble-stays-float64", "normalises-on-float64",
            "int64-rung", "python-ints", "ensemble-int64-rung"])
    def test_count_kernel_past_the_int64_bound(self, machine, predictor, t, rung, caplog):
        # each row's report, whichever path ran, then the kernel itself on
        # the same bits: "stays-float64" and "normalises-on-float64" close
        # in a few pairs, so Monte Carlo runs them on the product machine
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        self._assert_matches_loop(machine, predictor, t)
        self._assert_kernel_matches_loop(machine, predictor, t)
        line = [r.getMessage() for r in caplog.records if r.name == "mealypred.evaluation"][-1]
        assert re.search(r"normalised at depths \[\d", line)
        assert line.endswith(f"ended on {rung}")

    def test_count_kernel_keeps_snapshots_past_float64_exact(self):
        # Two states whose inputs all emit 1 and all emit 0: lean (+2, -2).
        # From the counts (2**53 + 1, 2**53) the first guess is 1, but in
        # float64 the first count rounds to 2**53 and the guess to 0. The
        # kernel must start such columns on int64, never on float64.
        pm = MealyMachine(2, ((0, 1), (1, 0)), ((1, 1), (0, 0)))
        snap = (2**53 + 1, 2**53)
        for m in (echo_machine(), pm, constant_machine(1)):
            bits = np.random.default_rng(5).integers(0, 2, size=(40, 12), dtype=np.uint8)
            p = ConsistencyPredictor(pm)
            p.restore(snap)
            misses = bits.copy()  # the kernel overwrites it with its misses
            _sweep_consistency(m, p, misses)
            total, wc, step = int(misses.sum()), int(misses.sum(axis=1).max()), misses.sum(axis=0).tolist()
            errs = []
            for row in bits:  # exact Python-int reference
                p.restore(snap)
                s, wrong = m.initial_state, []
                for b in row:
                    o = m.output[s][b]
                    wrong.append(p.predict() != o)
                    p.observe(o)
                    s = m.transition[s][b]
                errs.append(wrong)
            assert errs[0][0] == (m.output[m.initial_state][bits[0][0]] != 1)
            assert step == [sum(col) for col in zip(*errs)]
            assert (total, wc) == (sum(map(sum, errs)), max(map(sum, errs)))

    def test_count_kernel_logs_its_normalisations(self, caplog):
        # The constant machine's one count doubles every step, so it reaches
        # the float64 limit 2**52 every 52 steps and its gcd brings it back to
        # 1. Monte Carlo runs it on the product machine, so the kernel is
        # driven here on the bits Monte Carlo samples.
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        m, p = constant_machine(0), ConsistencyPredictor(constant_machine(0))
        p.reset()
        _sweep_consistency(m, p, np.random.default_rng(2).integers(0, 2, size=(30, 200), dtype=np.uint8))
        assert [r.getMessage() for r in caplog.records if r.name == "mealypred.evaluation"] == [
            "count kernel, 30 samples, t=200: columns normalised at depths [52, 104, 156], "
            "ended on float64"
        ]

    def test_each_path_logs_its_name(self, echo, caplog):
        # -v names the path that ran: the product machine (the echo
        # machine's consistency and known-state pairs are its two states),
        # the count kernel where the product machine outgrows PRODUCT_PAIRS
        # or, for any other predictor, the online protocol on each sample
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        for m, p in ((echo, ConsistencyPredictor(echo)), (COUNTER, ConsistencyPredictor(COUNTER)),
                     (echo, KnownStatePredictor(echo)), (echo, _ContraryPredictor(echo))):
            evaluate_monte_carlo(m, p, 5, 7, seed=1)
        assert [r.getMessage() for r in caplog.records if r.name == "mealypred.evaluation"] == [
            "product machine, 7 samples, t=5: 2 (node, state) pairs expanded",
            "count kernel, 7 samples, t=5: columns normalised at depths [], ended on float64",
            "product machine, 7 samples, t=5: 2 (node, state) pairs expanded",
            "online protocol, 7 samples, t=5",
        ]

    def test_product_machine_and_count_kernel_agree(self, caplog):
        # Consistency and ensemble predictors on census-like machines: where
        # the product machine closes within PRODUCT_PAIRS its misses equal
        # the kernel's, per sample and per step; where it does not, it
        # leaves the bits as sampled. At t = 80 the kernel's columns pass
        # the float64 bound and are normalised at depth 51 or 52.
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        rng = random.Random(27)
        machines = list(_census_kinds(rng))
        closed, normalised, open_ = 0, 0, 0
        for i, m in enumerate(machines):
            other = machines[(i + 1) % len(machines)]
            for p in (ConsistencyPredictor(m), ConsistencyPredictor(other),
                      EnsemblePredictor([other, m]), EnsemblePredictor([constant_machine(i % 2), m])):
                for t in (48, 80):
                    bits = np.random.default_rng(i).integers(0, 2, size=(64, t), dtype=np.uint8)
                    product, kernel = bits.copy(), bits.copy()
                    p.reset()
                    start = p.snapshot()
                    ran = _sweep_product(m, p, product)
                    assert p.snapshot() == start
                    if not ran:
                        assert (product == bits).all()
                        open_ += 1
                        continue
                    _sweep_consistency(m, p, kernel)
                    assert (product == kernel).all()
                    closed += 1
                    normalised += not caplog.records[-1].getMessage().endswith("depths [], ended on float64")
        # every closed case at t = 80 crossed a normalisation
        assert closed > 50 and open_ > 50 and normalised == closed // 2

    def test_product_machine_pair_limit(self, caplog, monkeypatch):
        # this consistency predictor's product machine closes at 11 pairs:
        # it runs at a limit of 11, and the kernel runs at 10, to the same report
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        rng = random.Random(1)
        m = random_machine(rng.randint(2, 6), rng)
        monkeypatch.setattr("mealypred.evaluation.PRODUCT_PAIRS", 11)
        closed = evaluate_monte_carlo(m, ConsistencyPredictor(m), 80, 64, seed=5, per_step=True)
        assert caplog.records[-1].getMessage() == "product machine, 64 samples, t=80: 11 (node, state) pairs expanded"
        monkeypatch.setattr("mealypred.evaluation.PRODUCT_PAIRS", 10)
        assert evaluate_monte_carlo(m, ConsistencyPredictor(m), 80, 64, seed=5, per_step=True) == closed
        assert caplog.records[-1].getMessage().startswith("count kernel, 64 samples, t=80")

    def test_unbounded_product_machine_gives_way(self, caplog):
        # The ensemble's counts over the delay machine never repeat up to
        # scale, so a fixpoint of its pairs would never end: the product
        # machine gives up past PRODUCT_PAIRS and the kernel runs.
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        m, p = delay_machine(), EnsemblePredictor([alternating_ring(), echo_machine(), delay_machine()])
        bits = np.random.default_rng(9).integers(0, 2, size=(20, 200), dtype=np.uint8)
        sampled = bits.copy()
        p.reset()
        start = p.snapshot()
        assert not _sweep_product(m, p, bits)
        assert (bits == sampled).all() and p.snapshot() == start
        evaluate_monte_carlo(m, p, 200, 20, seed=9)
        assert caplog.records[-1].getMessage().startswith("count kernel, 20 samples, t=200")

    def test_negative_seed_refused(self, echo):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 8, 10, seed=-1)

    def test_known_state_of_smaller_machine_refused(self):
        rng = random.Random(44)
        generator, small = random_machine(4, rng), random_machine(2, rng)
        with pytest.raises(ValueError, match="has 2 states, fewer than the generator's 4"):
            evaluate_monte_carlo(generator, KnownStatePredictor(small), 6, 50)

    @pytest.mark.parametrize("base, model", [
        (ConsistencyPredictor, constant_machine(0)),
        (EnsemblePredictor, [constant_machine(0)]),
    ])
    def test_strict_subclass_scored_leniently(self, base, model):
        # the subclass runs the online protocol on each sample; its model
        # dies at the first bit and keeps guessing 0, as in exhaustive
        # evaluation
        p = type("Sub", (base,), {})(model)
        target = constant_machine(1)
        assert evaluate_exhaustive(target, p, 6).e_ave == 1
        assert evaluate_monte_carlo(target, p, 6, 10).e_ave == 1.0

    @pytest.mark.parametrize("base, model", [
        (ConsistencyPredictor, constant_machine(0)),
        (EnsemblePredictor, [constant_machine(0)]),
    ])
    def test_subclass_logs_its_death_once_per_sample(self, base, model, caplog):
        # the online protocol resets the predictor per sample; its model dies
        # on each sample's first bit and is shown five more
        caplog.set_level("DEBUG", logger="mealypred.predictors")
        p = type("Sub", (base,), {})(model)
        evaluate_monte_carlo(constant_machine(1), p, 6, 4, seed=3)
        ruled_out = [r for r in caplog.records if r.getMessage().endswith("model ruled out by observation")]
        assert len(ruled_out) == 4

    @pytest.mark.parametrize("samples, t", [(2**64, 5), (2, 2**64), (2**62, 4)])
    def test_too_many_bits_to_index_refused(self, echo, samples, t):
        with pytest.raises(MemoryError, match=f"^{samples} samples of {t} steps .* index "
                                              f"\\({np.iinfo(np.intp).max}\\)$"):
            evaluate_monte_carlo(echo, ConsistencyPredictor(echo), t, samples)


class TestPredictorMachineError:
    def test_constant_predictor_on_opposite_machine(self, const1):
        assert evaluate_exhaustive(const1, ConstantPredictor(0), 8).e_ave == 1

    def test_cross_machine_matches_double_sum(self):
        rng = random.Random(8)
        for _ in range(12):
            target = random_machine(rng.randint(1, 2), rng)
            model = random_machine(rng.randint(1, 2), rng)
            t = rng.randint(1, 8)
            p = ConsistencyPredictor(model)

            def oracle_rule(prefix, _m=model):
                q = ConsistencyPredictor(_m)
                q.reset()
                for bit in prefix:
                    q.observe(bit)
                return q.predict()

            lhs = evaluate_exhaustive(target, p, t).e_ave
            assert lhs == oracles.predictor_error_double_sum(target, oracle_rule, t)


class TestDeadModel:
    """A model that an observation rules out mid-sequence is dead: it guesses
    the tie-rule 0 from then on, on every engine path alike."""

    # emits 0, then 1 forever: the constant-0 generator's second bit rules it
    # out, after a guess of 1 that a model kept alive would repeat
    MODEL = MealyMachine(2, ((1, 1), (1, 1)), ((0, 0), (1, 1)))
    T = 6
    # right at the first step, wrong at the second, then dead and right
    DIES = (0, 1, 0, 0, 0, 0)

    @pytest.mark.parametrize("make", [
        ConsistencyPredictor,
        lambda m: EnsemblePredictor([m]),
        _SubConsistency,  # the protocol walk
        lambda m: _SubEnsemble([m]),
    ], ids=["consistency", "ensemble", "sub-consistency", "sub-ensemble"])
    def test_pair_walk(self, const0, caplog, make):
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        r = evaluate_exhaustive(const0, make(self.MODEL), self.T, per_step=True)
        assert r.per_step_errors == self.DIES
        assert (r.e_ave, r.e_wc) == (Fraction(1, 6), Fraction(1, 6))
        assert _walked(caplog) == "(node, state) pairs"

    def test_node_walk(self, const0, caplog):
        # With the generator among the candidates the walk is over nodes and
        # the ensemble lives on: the two copies of the model outweigh it at
        # the second step, then drop out and weigh nothing.
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        p = EnsemblePredictor([self.MODEL, self.MODEL, const0])
        assert evaluate_exhaustive(const0, p, self.T, per_step=True).per_step_errors == self.DIES
        assert _walked(caplog) == "nodes"

    @pytest.mark.parametrize("make, path", [
        # the model's counts close in three (node, state) pairs, the last dead
        (ConsistencyPredictor, "product machine"),
        (lambda m: EnsemblePredictor([m]), "product machine"),
        (_SubConsistency, "online protocol"),
        (lambda m: _SubEnsemble([m]), "online protocol"),
    ], ids=["consistency", "ensemble", "sub-consistency", "sub-ensemble"])
    def test_monte_carlo(self, const0, caplog, make, path):
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        r = evaluate_monte_carlo(const0, make(self.MODEL), self.T, 20, seed=4, per_step=True)
        assert r.per_step_errors == self.DIES
        assert caplog.records[-1].getMessage().startswith(path)

    @pytest.mark.parametrize("make", [ConsistencyPredictor, lambda m: EnsemblePredictor([m])],
                             ids=["consistency", "ensemble"])
    def test_count_kernel(self, const0, make):
        # the kernel on the bits Monte Carlo samples above: a dead column is
        # all zero and guesses 0
        p = make(self.MODEL)
        p.reset()
        bits = np.random.default_rng(4).integers(0, 2, size=(20, self.T), dtype=np.uint8)
        _sweep_consistency(const0, p, bits)
        assert tuple(c / 20 for c in bits.sum(axis=0).tolist()) == self.DIES

    def test_batch_training(self, const0):
        # dead in training at the second bit, so the continuation is all right
        predictors = (ConsistencyPredictor(self.MODEL), EnsemblePredictor([self.MODEL]),
                      _SubConsistency(self.MODEL))
        sel = batch_select(BatchProblem((const0,), Bits.from_string("000"), 6, predictors))
        assert [(s.training_errors, s.model_died_in_training, s.score) for s in sel.scores] == [(1, True, 0)] * 3


class TestDominance:
    def test_consistency_beats_constants_and_coin(self):
        rng = random.Random(10)
        for _ in range(25):
            m = random_machine(rng.randint(1, 3), rng)
            t = 10
            e = evaluate_exhaustive(m, ConsistencyPredictor(m), t).e_ave
            for c in (0, 1):
                assert e <= evaluate_exhaustive(m, ConstantPredictor(c), t).e_ave
            assert e <= Fraction(1, 2)  # a fair coin averages 1/2

    def test_known_state_floor(self):
        rng = random.Random(12)
        for _ in range(25):
            m = random_machine(rng.randint(1, 3), rng)
            t = 10
            informed = evaluate_exhaustive(m, KnownStatePredictor(m), t).e_ave
            blind = evaluate_exhaustive(m, ConsistencyPredictor(m), t).e_ave
            assert informed <= blind


class TestBatchSelect:
    def test_toy_selects_always_zero(self, const0, const1):
        machines = (const0, const1)
        problem = BatchProblem(
            machines=machines,
            training=Bits.from_string("0000"),
            horizon=8,
            predictors=default_batch_predictors(machines),
        )
        sel = batch_select(problem)
        assert sel.best_label == "always-0"
        assert sel.pair_counts == (16, 0)
        assert sel.scores[sel.best_index].score == 0

    def test_pairs_score_is_the_mean_per_pair(self, const0, const1, echo):
        # 16 inputs of const0 and none of const1 produce 0000; with the
        # coin-flip echo machine in place of const1 one input does, and
        # always-1 errs on half of its continuation bits: (16 + 1/2) / 17
        for other, counts, always1 in ((const1, (16, 0), 1), (echo, (16, 1), Fraction(33, 34))):
            machines = (const0, other)
            problem = BatchProblem(machines, Bits.from_string("0000"), 8,
                                   default_batch_predictors(machines))
            sel = batch_select(problem)
            assert sel.pair_counts == counts
            assert sel.scores[1].label == "always-1" and sel.scores[1].score == always1
        with pytest.raises(ValueError, match="score out of range"):
            PredictorScore("always-1", 1, Fraction(33, 2), 0, False)

    def test_long_horizon_scores_exact(self, const0, const1):
        # 199 continuation bits: the walk's totals are far past 2**63
        machines = (const0, const1)
        problem = BatchProblem(machines, Bits.from_string("0"), 200, default_batch_predictors(machines))
        for weighting in ("pairs", "machines"):
            scores = batch_select(problem, weighting=weighting).scores
            assert [(s.label, s.score) for s in scores[:2]] == [("always-0", 0), ("always-1", 1)]

    def test_inconsistent_training_data(self, const0):
        problem = BatchProblem(
            machines=(const0,),
            training=Bits.from_string("01"),
            horizon=6,
            predictors=default_batch_predictors((const0,)),
        )
        with pytest.raises(InconsistentTrainingData):
            batch_select(problem)

    def test_inconsistent_candidate_contributes_nothing(self, const0, alt_ring):
        training = Bits.from_string("0101")
        predictors = default_batch_predictors((const0, alt_ring))
        for weighting in ("pairs", "machines"):
            both = batch_select(
                BatchProblem((const0, alt_ring), training, 7, predictors), weighting=weighting
            )
            ring = batch_select(
                BatchProblem((alt_ring,), training, 7, predictors), weighting=weighting
            )
            assert both.pair_counts[0] == 0
            assert [s.score for s in both.scores] == [s.score for s in ring.scores]

    @pytest.mark.parametrize("weighting", ["pairs", "machines"])
    def test_scores_match_explicit_pair_enumeration(self, weighting):
        # independent route: enumerate consistent (input, machine) pairs one
        # by one and average each predictor's continuation errors directly.
        # "pairs" is the mean of these averages over every pair; "machines"
        # is the mean, over the machines with a pair, of each machine's
        # average over its pairs
        rng = random.Random(14)
        t, drawn = 3, []
        while len(drawn) < 6:
            machines = (random_machine(2, rng), random_machine(2, rng))
            training_value = rng.randrange(1 << t)
            training = Bits(training_value, t)
            if any(any(training_pool((m,), training).consistency_vector) for m in machines):
                drawn.append((machines, training))
        # continuations of 4 and of 1, which is the horizon step alone
        for (machines, training), horizon in itertools.product(drawn, (7, 4)):
            problem = BatchProblem(
                machines=machines,
                training=training,
                horizon=horizon,
                predictors=default_batch_predictors(machines),
            )
            sel = batch_select(problem, weighting=weighting)
            delta = horizon - t
            for score in sel.scores:
                p = problem.predictors[score.index]
                per_machine = []
                for m in machines:
                    total, pairs = Fraction(0), 0
                    for g in range(1 << t):
                        outs, path = oracles.simulate(m, g, t)
                        if outs != list(training):
                            continue
                        pairs += 1
                        # continuation: machine resumes at the pair's end state
                        for h in range(1 << delta):
                            p.reset()
                            for bit in training:
                                p.observe(bit)
                            s = path[-1]
                            errs = 0
                            for i in range(delta):
                                b = (h >> i) & 1
                                o = m.output[s][b]
                                errs += int(p.predict() != o)
                                p.observe(o)
                                s = m.transition[s][b]
                            total += Fraction(errs, delta * (1 << delta))
                    if pairs:
                        per_machine.append((total, pairs))
                if weighting == "pairs":
                    expected = sum(total for total, _ in per_machine) / sum(n for _, n in per_machine)
                else:
                    expected = sum(total / n for total, n in per_machine) / len(per_machine)
                assert score.score == expected

    def test_machine_uniform_weighting(self, const0):
        noisy = random_machine(2, random.Random(99))
        machines = (const0, noisy)
        training = Bits.from_string("00")
        if not any(training_pool((noisy,), training).consistency_vector):
            pytest.skip("unlucky machine draw")
        problem = BatchProblem(
            machines=machines,
            training=training,
            horizon=6,
            predictors=default_batch_predictors(machines),
        )
        pairs = batch_select(problem, weighting="pairs")
        uniform = batch_select(problem, weighting="machines")
        assert pairs.weighting == "pairs" and uniform.weighting == "machines"
        for s in uniform.scores:
            assert 0 <= s.score <= 1

    def test_frontier_budget_refused(self, const0, const1, monkeypatch):
        # two machines x 2**26 continuations: one walk per predictor over a
        # frontier of one (node, state) pair
        machines = (const0, const1)
        long = BatchProblem(machines, Bits.from_string("0"), 27, default_batch_predictors(machines))
        sel = batch_select(long)
        assert (sel.best_label, sel.continuation, sel.pair_counts) == ("always-0", 26, (2, 0))
        # the consistency predictor of eight_state_example walks the union of
        # it and the ring to 23 pairs at depth 7
        machines = (eight_state_example(), alternating_ring())
        wide = BatchProblem(machines, Bits.from_string("0"), 12, default_batch_predictors(machines))
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 20)
        with pytest.raises(CapExceeded, match=r"^exact walk frontier reached 23 \(node, state\) "
                                              r"pairs at depth 7, over the budget of 20$"):
            batch_select(wide)

    def test_known_state_rejected(self, const0):
        problem = BatchProblem(
            machines=(const0,),
            training=Bits.from_string("00"),
            horizon=6,
            predictors=(KnownStatePredictor(const0),),
        )
        with pytest.raises(TypeError):
            batch_select(problem)

    def test_foreign_state_informed_rejected(self, const0):
        # the walk runs over the candidates' union, whose state numbers are
        # no machine's own, so any predictor that reads states is refused
        class _Informed(_FlipFlopPredictor):
            def inform_state(self, state):
                self._next = state % 2

        problem = BatchProblem((const0,), Bits.from_string("00"), 6, (_Informed(),))
        with pytest.raises(TypeError, match="state-informed predictors cannot be scored"):
            batch_select(problem)

    def test_selection_ignores_training_error(self):
        # frozen instance (first hit of the witness scan): the selected
        # predictor makes a training error while zero-error predictors exist
        from mealypred import MealyMachine

        m1 = MealyMachine(2, ((0, 1), (1, 1)), ((0, 0), (1, 1)))
        m2 = MealyMachine(2, ((0, 1), (0, 0)), ((1, 0), (1, 1)))
        problem = BatchProblem(
            machines=(m1, m2),
            training=Bits.from_string("0"),
            horizon=5,
            predictors=default_batch_predictors((m1, m2)),
        )
        sel = batch_select(problem)
        chosen = sel.scores[sel.best_index]
        assert chosen.label == "always-1"
        assert chosen.training_errors == 1
        zero_error = [s for s in sel.scores if s.training_errors == 0]
        assert zero_error and all(chosen.score < s.score for s in zero_error)
