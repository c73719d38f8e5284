"""Error metrics (exact and sampled) and batch-mode predictor selection."""

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
    consistency_profile,
    default_batch_predictors,
    evaluate_exhaustive,
    evaluate_monte_carlo,
)
from mealypred.evaluation import _generic_totals, _lenient
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
        rng = random.Random(4)
        for _ in range(25):
            m = random_machine(rng.randint(1, 4), rng)
            t = rng.randint(1, 7)
            predictors = [
                ConsistencyPredictor(m),
                ConsistencyPredictor(random_machine(2, rng)),
                KnownStatePredictor(m),
                ConstantPredictor(rng.randint(0, 1)),
                EnsemblePredictor([m, random_machine(2, rng)]),
            ]
            for p in predictors:
                fast = evaluate_exhaustive(m, p, t, per_step=True)
                with _lenient(p):
                    total, wc, step = _generic_totals(m, p, t, range(1 << t))
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

    def test_known_state_of_smaller_machine_refused(self):
        rng = random.Random(44)
        generator, small = random_machine(4, rng), random_machine(2, rng)
        with pytest.raises(ValueError, match="has 2 states, fewer than the generator's 4"):
            evaluate_exhaustive(generator, KnownStatePredictor(small), 6)


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
    per-sequence loop, for the predictors whose nodes are gcd-keyed."""

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
            with _lenient(p):
                total, wc, step = _generic_totals(m, p, t, range(1 << t))
            assert r.e_ave == Fraction(total, t * (1 << t))
            assert r.e_wc == Fraction(wc, t)
            assert r.per_step_errors == tuple(Fraction(c, 1 << t) for c in step)

    def test_nodes_are_the_distinct_normalised_vectors(self, caplog):
        # A machine's own consistency walk reaches exactly the realisable
        # prefixes of length 0..t, so its nodes are their count vectors over
        # their gcd, which the oracle's level tables list independently.
        caplog.set_level("DEBUG", logger="mealypred.evaluation")
        merged = 0
        rng = random.Random(12)
        for m in [eight_state_example()] + [random_machine(k, rng) for k in (3, 5, 6, 8)]:
            t = 12
            evaluate_exhaustive(m, ConsistencyPredictor(m), t)
            levels = oracles.level_tables(m, t)
            raw = {v for level in levels for v in level.values()}
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
        """The vectorised sweep against the per-sequence loop on the same bits."""
        bits = np.random.default_rng(seed).integers(0, 2, size=(samples, t), dtype=np.uint8)
        packed = [sum(int(b) << i for i, b in enumerate(row)) for row in bits]
        fast = evaluate_monte_carlo(m, p, t, samples, seed, per_step=True)
        with _lenient(p):
            total, wc, step = _generic_totals(m, p, t, packed)
        assert fast.e_ave == total / (t * samples)
        assert fast.e_wc == wc / t
        assert fast.per_step_errors == tuple(c / samples for c in step)

    def test_generic_and_vector_paths_agree(self):
        # The count kernel and the product sweep against the per-sequence
        # loop. At t = 70 the kernel's rows reach its int64 bound and are
        # divided by their gcd; the constant machine's counts double every
        # step, so its rows fall back to 1 there and never widen. The
        # consistency predictors of ``other`` and ``a`` track a machine that
        # is not the generator, so the kernel must read the predictor's.
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
                ):
                    self._assert_matches_loop(m, p, t)

    @pytest.mark.parametrize("machine, predictor, t", [
        # gcd-normalised rows still pass 2**62 near depth 62, so the
        # counts widen to Python integers
        (eight_state_example(), ConsistencyPredictor(eight_state_example()), 70),
        # normalised rows stay small: three normalisations, all on int64
        (biased_unbiased_ring(), ConsistencyPredictor(biased_unbiased_ring()), 200),
        (delay_machine(), EnsemblePredictor([alternating_ring(), echo_machine(), delay_machine()]), 200),
    ], ids=["widens", "stays-int64", "ensemble-stays-int64"])
    def test_count_kernel_past_the_int64_bound(self, machine, predictor, t):
        self._assert_matches_loop(machine, predictor, t)

    def test_negative_seed_refused(self, echo):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            evaluate_monte_carlo(echo, ConsistencyPredictor(echo), 8, 10, seed=-1)

    def test_known_state_of_smaller_machine_refused(self):
        rng = random.Random(44)
        generator, small = random_machine(4, rng), random_machine(2, rng)
        with pytest.raises(ValueError, match="has 2 states, fewer than the generator's 4"):
            evaluate_monte_carlo(generator, KnownStatePredictor(small), 6, 50)


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
                q = ConsistencyPredictor(_m, strict=False)
                q.reset()
                for bit in prefix:
                    q.observe(bit)
                return q.predict()

            lhs = evaluate_exhaustive(target, p, t).e_ave
            assert lhs == oracles.predictor_error_double_sum(target, oracle_rule, t)


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

    def test_scores_match_explicit_pair_enumeration(self):
        # independent route: enumerate consistent (input, machine) pairs one
        # by one and average each predictor's continuation errors directly
        rng = random.Random(14)
        checked = 0
        while checked < 6:
            machines = (random_machine(2, rng), random_machine(2, rng))
            t, horizon = 3, 7
            training_value = rng.randrange(1 << t)
            training = Bits(training_value, t)
            if not any(any(consistency_profile(m, training)) for m in machines):
                continue
            problem = BatchProblem(
                machines=machines,
                training=training,
                horizon=horizon,
                predictors=default_batch_predictors(machines),
            )
            sel = batch_select(problem)
            delta = horizon - t
            for score in sel.scores:
                p = problem.predictors[score.index]
                expected = Fraction(0)
                for m in machines:
                    for g in range(1 << t):
                        outs, path = oracles.simulate(m, g, t)
                        if outs != list(training):
                            continue
                        # continuation: machine resumes at the pair's end state
                        for h in range(1 << delta):
                            with _lenient(p):
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
                            expected += Fraction(errs, delta * (1 << delta))
                assert score.score == expected
            checked += 1

    def test_machine_uniform_weighting(self, const0):
        noisy = random_machine(2, random.Random(99))
        machines = (const0, noisy)
        training = Bits.from_string("00")
        if not any(consistency_profile(noisy, training)):
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

    def test_pair_budget_refused(self, const0, const1):
        machines = (const0, const1)
        over = BatchProblem(machines, Bits.from_string("0"), 27, default_batch_predictors(machines))
        with pytest.raises(CapExceeded, match=r"2 machines x 2\*\*26 continuations exceeds "
                                              r"the pair budget of 2\*\*26"):
            batch_select(over)
        # exactly 2**26 pairs is within the budget
        within = BatchProblem((const0,), Bits.from_string("0"), 27, default_batch_predictors((const0,)))
        assert batch_select(within).continuation == 26

    def test_known_state_rejected(self, const0):
        problem = BatchProblem(
            machines=(const0,),
            training=Bits.from_string("00"),
            horizon=6,
            predictors=(KnownStatePredictor(const0),),
        )
        with pytest.raises(TypeError):
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
