"""Online predictors: state-informed, consistency tracking, and ensembles."""

import logging
import random
from fractions import Fraction

import pytest

from mealypred import (
    AutomatonPredictor,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    InconsistentObservation,
    KnownStatePredictor,
    MealyMachine,
    evaluate_exhaustive,
    machine_id,
    run_beside,
    trace_predictor,
)
from mealypred.enumeration import enumerate_machines
from mealypred.machines import constant_machine, random_machine

import oracles


class TestKnownState:
    def test_constant_zero_never_errs(self, const0):
        trace = trace_predictor(const0, KnownStatePredictor(const0), "10110101")
        assert trace.total_errors == 0

    def test_echo_error_half_at_every_horizon(self, echo):
        for t in (4, 7, 10):
            r = evaluate_exhaustive(echo, KnownStatePredictor(echo), t)
            assert r.e_ave == Fraction(1, 2)

    def test_forced_state_predicts_one(self):
        m = MealyMachine(2, ((1, 1), (0, 0)), ((1, 1), (0, 1)))
        p = KnownStatePredictor(m)
        p.reset()
        p.inform_state(0)  # both outputs 1: certain
        assert p.predict() == 1
        p.inform_state(1)  # unbiased: falls back to 0
        assert p.predict() == 0


class TestConsistency:
    def test_alternating_ring_is_perfect(self, alt_ring):
        r = evaluate_exhaustive(alt_ring, ConsistencyPredictor(alt_ring), 10)
        assert r.e_ave == 0
        assert r.e_wc == 0

    def test_tie_predicts_zero(self, echo):
        p = ConsistencyPredictor(echo)
        p.reset()
        for bit in (1, 1, 0, 1):
            np_, nq = p.pending_counts()
            assert np_ == nq
            assert p.predict() == 0
            p.observe(bit)

    def test_counts_match_enumeration(self):
        rng = random.Random(3)
        for _ in range(40):
            m = random_machine(rng.randint(1, 3), rng)
            t = rng.randint(0, 8)
            # drive along a realizable observation path
            g = rng.randrange(1 << t) if t else 0
            observed = oracles.simulate(m, g, t)[0]
            p = ConsistencyPredictor(m)
            p.reset()
            for i, bit in enumerate(observed):
                expect = oracles.consistency_counts(m, observed[: i + 1])
                before_p, before_q = p.pending_counts()
                p.observe(bit)
                assert list(p.consistency_vector) == expect
                # conservation: the new total equals the count backing the branch
                assert sum(expect) == (before_p if bit == 0 else before_q)

    def test_inconsistent_observation_raises(self, const0, const1):
        # observing never raises; a trace refuses the prefix that kills the model
        with pytest.raises(InconsistentObservation, match=(
                f"^observed bit 1 is impossible for machine {machine_id(const0)[:12]} "
                "given the prefix so far$")):
            trace_predictor(const1, ConsistencyPredictor(const0), "0")

    def test_impossible_observation_goes_dead_and_predicts_tie(self, const0):
        p = ConsistencyPredictor(const0)
        p.reset()
        p.observe(1)
        assert not p.consistent
        assert p.pending_counts() == (0, 0)
        assert p.predict() == 0
        p.observe(0)  # a dead model stays dead
        assert p.consistency_vector == (0,)
        assert p.predict() == 0

    def test_step_errors_equal_min_rule(self):
        # summed class errors at each step land on the smaller branch count
        rng = random.Random(7)
        for _ in range(20):
            m = random_machine(rng.randint(1, 3), rng)
            t = 6
            levels = oracles.level_tables(m, t)
            p = ConsistencyPredictor(m)

            def walk(key, depth):
                if depth == t:
                    return
                n0 = sum(levels[depth + 1].get(key * 2, (0,)))
                n1 = sum(levels[depth + 1].get(key * 2 + 1, (0,)))
                pred = p.predict()
                errors = n1 if pred == 0 else n0
                assert errors == min(n0, n1)
                for bit, n in ((0, n0), (1, n1)):
                    if n:
                        snap = p.snapshot()
                        p.observe(bit)
                        walk(key * 2 + bit, depth + 1)
                        p.restore(snap)

            p.reset()
            walk(0, 0)

    def test_per_step_optimality(self):
        # exhaust both possible predictions per class: the implemented rule's
        # class error never exceeds either alternative's
        rng = random.Random(9)
        for _ in range(15):
            m = random_machine(rng.randint(1, 3), rng)
            t = 6
            levels = oracles.level_tables(m, t)
            p = ConsistencyPredictor(m)

            def walk(key, depth):
                if depth == t:
                    return
                n0 = sum(levels[depth + 1].get(key * 2, (0,)))
                n1 = sum(levels[depth + 1].get(key * 2 + 1, (0,)))
                achieved = n1 if p.predict() == 0 else n0
                errors_if_zero, errors_if_one = n1, n0
                assert achieved <= errors_if_zero
                assert achieved <= errors_if_one
                for bit, n in ((0, n0), (1, n1)):
                    if n:
                        snap = p.snapshot()
                        p.observe(bit)
                        walk(key * 2 + bit, depth + 1)
                        p.restore(snap)

            p.reset()
            walk(0, 0)


class TestEnsemble:
    def test_singleton_matches_consistency_on_every_prefix(self):
        rng = random.Random(13)
        for _ in range(10):
            m = random_machine(rng.randint(1, 3), rng)
            single = ConsistencyPredictor(m)
            ens = EnsemblePredictor([m])
            single.reset()
            ens.reset()

            def walk(depth):
                assert ens.predict() == single.predict()
                assert ens.pending_counts() == single.pending_counts()
                if depth == 8:
                    return
                p, q = single.pending_counts()
                for bit, n in ((0, p), (1, q)):
                    if n:
                        s1, s2 = single.snapshot(), ens.snapshot()
                        single.observe(bit)
                        ens.observe(bit)
                        walk(depth + 1)
                        single.restore(s1)
                        ens.restore(s2)

            walk(0)

    def test_elimination_then_constant_zero(self, const0, const1, echo, caplog):
        ens = EnsemblePredictor([const0, const1])
        ens.reset()
        assert ens.predict() == 0  # tie between the two candidates
        ens.observe(0)
        assert ens.alive() == (0,)
        for _ in range(4):
            assert ens.predict() == 0
            ens.observe(0)
        # the middle candidate dies first; alive() keeps candidate order
        ens = EnsemblePredictor([const0, const1, echo])
        with caplog.at_level(logging.DEBUG, logger="mealypred"):
            ens.observe(0)
        assert ens.alive() == (0, 2)
        assert [r.getMessage() for r in caplog.records] == [
            f"ensemble: candidate 1 (consistency:{machine_id(const1)[:12]}) eliminated"
        ]
        ens.observe(1)
        assert ens.alive() == (2,)

    def test_all_eliminated_raises(self, const0, const1):
        ens = EnsemblePredictor([const0, const1])
        ens.reset()
        ens.observe(0)
        # next_counts tests a bit without observing it
        before = ens.snapshot()
        assert ens.next_counts(before, 1) == (0, 0)
        assert (ens.alive(), ens.snapshot()) == ((0,), before)
        ens.observe(1)
        assert (ens.alive(), ens.snapshot(), ens.predict()) == ((), (0, 0), 0)
        with pytest.raises(InconsistentObservation,
                           match="^observed prefix is impossible for every machine in the ensemble$"):
            trace_predictor(const1, EnsemblePredictor([const0]), "0")

    def test_aggregate_tie_predicts_zero(self):
        # brute-force hunt for a cross-machine tie reached along a real prefix
        machines = list(enumerate_machines(2, "canonical"))
        rng = random.Random(17)
        found = 0
        for _ in range(400):
            a, b = rng.choice(machines), rng.choice(machines)
            ens = EnsemblePredictor([a, b])
            ens.reset()
            g = rng.randrange(1 << 4)
            observed = oracles.simulate(a, g, 4)[0]  # a produces it, so the ensemble lives
            for bit in observed:
                p, q = ens.pending_counts()
                if p == q and p > 0:
                    assert ens.predict() == 0
                    found += 1
                ens.observe(bit)
        assert found > 0


class TestAutomatonPredictor:
    def test_constant_machine_predicts_constantly(self, const0):
        p = AutomatonPredictor(const0)
        p.reset()
        for bit in (1, 0, 1, 1):
            assert p.predict() == 0
            p.observe(bit)

    def test_constant_is_the_one_state_automaton(self, const1):
        p = ConstantPredictor(1)
        assert isinstance(p, AutomatonPredictor) and p.machine == const1
        assert (p.bit, p.label) == (1, "always-1")
        with pytest.raises(ValueError, match="^bit must be 0 or 1$"):
            ConstantPredictor(2)

    def test_echo_predictor_repeats_last_observation(self):
        echo_pred = AutomatonPredictor(MealyMachine(1, ((0, 0),), ((0, 1),)))
        echo_pred.reset()
        assert echo_pred.predict() == 0  # primed with a virtual 0
        for bit in (1, 1, 0, 1, 0):
            echo_pred.observe(bit)
            assert echo_pred.predict() == bit


class TestTraces:
    def test_trace_records_everything(self, alt_ring):
        trace = trace_predictor(alt_ring, ConstantPredictor(0), "1100")
        assert trace.observed == (0, 1, 0, 1)
        assert trace.predictions == (0, 0, 0, 0)
        assert trace.cumulative_errors == (0, 1, 1, 2)
        assert trace.total_errors == 2
        assert trace.error_rate == 0.5

    def test_run_beside_yields_guess_and_emitted_bit(self, echo):
        # the echo machine emits its input; the automaton echo predictor
        # guesses the last observed bit, 0 first, and is reset per run
        p = AutomatonPredictor(echo)
        for _ in range(2):
            assert list(run_beside(echo, p, [1, 1, 0, 1])) == [(0, 1), (1, 1), (1, 0), (0, 1)]

    @pytest.mark.parametrize("kind", ["consistency", "subclass", "ensemble"])
    def test_trace_raises_at_the_dying_step(self, const1, kind, caplog):
        # the model emits 1, then 0 forever: the constant-1 generator's
        # second bit rules it out, and the trace stops there
        m = MealyMachine(2, ((1, 1), (1, 1)), ((1, 1), (0, 0)))
        p = {"consistency": ConsistencyPredictor(m),
             "subclass": type("Sub", (ConsistencyPredictor,), {})(m),
             "ensemble": EnsemblePredictor([m])}[kind]
        trace = trace_predictor(const1, p, "1")
        assert (trace.predictions, trace.observed, trace.consistent) == ((1,), (1,), True)
        message = (f"observed bit 1 is impossible for machine {machine_id(m)[:12]} given the prefix so far"
                   if kind != "ensemble" else "observed prefix is impossible for every machine in the ensemble")
        with caplog.at_level(logging.DEBUG, logger="mealypred"), \
                pytest.raises(InconsistentObservation) as refused:
            trace_predictor(const1, p, "1111")
        assert str(refused.value) == message
        # one "ruled out" line: nothing is observed past the dying step
        assert [r.getMessage() for r in caplog.records] == [f"{p.label}: model ruled out by observation"] + (
            [f"ensemble: candidate 0 (consistency:{machine_id(m)[:12]}) eliminated"] if kind == "ensemble" else [])

    def test_foreign_consistent_attribute_is_only_reported(self, const1):
        # a predictor outside the consistency family is never refused
        foreign = type("Foreign", (ConstantPredictor,), {"consistent": False})(0)
        trace = trace_predictor(const1, foreign, "11")
        assert (trace.total_errors, trace.consistent) == (2, False)

    def test_reset_restores_initial_knowledge(self, alt_ring):
        p = ConsistencyPredictor(alt_ring)
        t1 = trace_predictor(alt_ring, p, "0011")
        t2 = trace_predictor(alt_ring, p, "0011")
        assert t1 == t2
