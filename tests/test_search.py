"""Exhaustive search over bounded-state predicting automata."""

import random
from fractions import Fraction

import pytest

import mealypred.predictors
from mealypred import (
    AutomatonPredictor,
    Bits,
    ConsistencyPredictor,
    InconsistentTrainingData,
    MealyMachine,
    evaluate_exhaustive,
    machine_id,
    search_after_training,
    search_best_predictor,
)
from mealypred.enumeration import enumerate_machines
from mealypred.evaluation import _frontier_totals
from mealypred.machines import constant_machine, echo_machine, random_machine
from mealypred.search import _behaviour

import oracles


def _primed(machine):
    return machine.step(machine.initial_state, 0)


def _guesses(machine, snap, depth=5):
    """Guess after every observed prefix of length <= ``depth``, level by level."""
    guesses = []
    level = [snap]
    for _ in range(depth + 1):
        guesses.extend(pending for _, pending in level)
        level = [machine.step(state, b) for state, _ in level for b in (0, 1)]
    return tuple(guesses)


def _guess_function(machine):
    def predict(seen):
        state, pending = _primed(machine)
        for bit in seen:
            state, pending = machine.step(state, bit)
        return pending
    return predict


class TestAsPredictor:
    def test_constant_target_found_exactly(self, const1):
        res = search_best_predictor([const1], 1, 10)
        assert res.best_score == 0
        assert res.best.output == ((1, 1),)
        assert res.search_space_size == 4 == res.evaluated

    def test_echo_predictor_vs_alternating_ring(self, alt_ring):
        echo_pred = MealyMachine(1, ((0, 0),), ((0, 1),))
        r = evaluate_exhaustive(alt_ring, AutomatonPredictor(echo_pred), 10)
        # first step is primed correctly; every repeat of the last bit misses
        assert r.e_ave == Fraction(9, 10)

    def test_label_is_hashed_only_when_read(self, alt_ring, monkeypatch):
        expected = search_best_predictor([alt_ring], 2, 8)

        def refuse(machine):
            raise AssertionError("machine_id computed")

        monkeypatch.setattr(mealypred.predictors, "machine_id", refuse)
        assert search_best_predictor([alt_ring], 2, 8) == expected
        predictor = AutomatonPredictor(expected.best)
        with pytest.raises(AssertionError, match="machine_id computed"):
            predictor.label
        monkeypatch.undo()
        assert predictor.label == f"automaton:{machine_id(expected.best)[:12]}"


class TestSearch:
    def test_alternating_ring_k2(self, alt_ring):
        res = search_best_predictor([alt_ring], 2, 10)
        assert res.best_score <= Fraction(1, 10)
        # confirm the winner's score independently
        again = evaluate_exhaustive(alt_ring, AutomatonPredictor(res.best), 10)
        assert again.e_ave == res.best_score

    def test_echo_resists_all_small_predictors(self, echo):
        for k in (1, 2):
            res = search_best_predictor([echo], k, 12)
            assert res.best_score == Fraction(1, 2)
            assert all(score == Fraction(1, 2) for _, score in res.leaderboard)

    def test_budget_monotonicity(self):
        rng = random.Random(19)
        for _ in range(8):
            target = random_machine(rng.randint(1, 3), rng)
            b1 = search_best_predictor([target], 1, 8).best_score
            b2 = search_best_predictor([target], 2, 8).best_score
            assert b2 <= b1

    def test_padding_preserves_behavior(self):
        # a one-state machine padded with an unreachable state predicts identically
        rng = random.Random(29)
        for m in enumerate_machines(1, "canonical"):
            padded = MealyMachine(
                2,
                ((m.transition[0][0], m.transition[0][1]), (1, 1)),
                (m.output[0], (0, 0)),
            )
            for _ in range(5):
                t = 8
                target = random_machine(2, rng)
                a = evaluate_exhaustive(target, AutomatonPredictor(m), t).e_ave
                b = evaluate_exhaustive(target, AutomatonPredictor(padded), t).e_ave
                assert a == b

    def test_consistency_predictor_floors_all_automata(self):
        targets = list(enumerate_machines(2, "canonical"))
        rng = random.Random(37)
        rng.shuffle(targets)
        predictors = list(enumerate_machines(2, "canonical"))
        for target in targets[:12]:
            floor = evaluate_exhaustive(target, ConsistencyPredictor(target), 8).e_ave
            for cand in predictors[:: max(1, len(predictors) // 40)]:
                score = evaluate_exhaustive(target, AutomatonPredictor(cand), 8).e_ave
                assert floor <= score

    def test_deterministic_results(self, alt_ring, echo):
        a = search_best_predictor([alt_ring, echo], 2, 8)
        b = search_best_predictor([alt_ring, echo], 2, 8)
        assert a == b

    def test_leaderboard_sorted_and_headed_by_best(self, alt_ring):
        res = search_best_predictor([alt_ring], 2, 8, top_n=5)
        assert res.leaderboard[0] == (res.best, res.best_score)
        scores = [s for _, s in res.leaderboard]
        assert scores == sorted(scores)

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            search_best_predictor([], 1, 8)


class TestAfterTraining:
    def test_continuation_scoring(self, alt_ring):
        # after watching 0101, a two-state alternator continues perfectly
        res = search_after_training([alt_ring], 2, Bits.from_string("0101"), 6)
        assert res.best_score == 0

    def test_inconsistent_target_contributes_nothing(self, alt_ring):
        # the constant machine cannot emit 0101, so only the ring's pairs count
        training = Bits.from_string("0101")
        res = search_after_training([constant_machine(0), alt_ring], 2, training, 3)
        alone = search_after_training([alt_ring], 2, training, 3)
        assert res.best_score == 0
        assert res.leaderboard == alone.leaderboard

    def test_inconsistent_training_refused(self, const0):
        with pytest.raises(InconsistentTrainingData):
            search_after_training([const0], 1, Bits.from_string("01"), 4)

    def test_scores_match_manual_pair_average(self, const1):
        res = search_after_training([const1], 1, Bits.from_string("11"), 3)
        assert res.best_score == 0
        perfect = {m.output for m, s in res.leaderboard if s == 0}
        # the constant-1 automaton and the repeat-last-bit automaton both
        # continue an all-ones stream without error
        assert perfect == {((1, 1),), ((0, 1),)}


class TestBehaviourKey:
    def test_equal_keys_exactly_when_guesses_agree_small(self):
        cands = [m for k in (1, 2) for m in enumerate_machines(k, "canonical")]
        keys = [_behaviour(m, *_primed(m)) for m in cands]
        sigs = [_guesses(m, _primed(m)) for m in cands]
        for i in range(len(cands)):
            for j in range(i + 1, len(cands)):
                assert (keys[i] == keys[j]) == (sigs[i] == sigs[j]), (cands[i], cands[j])
        assert len(set(keys[4:])) == 120  # distinct behaviours of the 256 2-state candidates

    def test_equal_keys_exactly_when_guesses_agree_k3_sample(self):
        # within the sample, key equality and guess equality give one partition,
        # which is the pairwise statement for every pair in it; 4-state machines
        # can need a second refinement round, and prefixes of up to 4 + 4 - 1
        # bits tell any two inequivalent ones apart
        rng = random.Random(41)
        pool = [m for k in (1, 2) for m in enumerate_machines(k, "canonical")]
        pool += rng.sample(list(enumerate_machines(3, "canonical")), 1500)
        pool += [random_machine(4, rng) for _ in range(300)]
        keys, sigs = [], []
        for m in pool:
            snap = _primed(m)
            if rng.random() < 0.5:  # resume after a few training bits
                for _ in range(rng.randint(1, 4)):
                    snap = m.step(snap[0], rng.randint(0, 1))
            keys.append(_behaviour(m, *snap))
            sigs.append(_guesses(m, snap, depth=7))
        assert len(set(keys)) < len(keys)
        assert len(set(keys)) == len(set(sigs)) == len(set(zip(keys, sigs)))


class TestPruning:
    def test_bound_stops_only_when_exceeded(self, alt_ring):
        pred = AutomatonPredictor(MealyMachine(1, ((0, 0),), ((0, 1),)))
        start = {alt_ring.initial_state: 1}
        total = _frontier_totals(alt_ring, pred, 8, start)[0]
        assert _frontier_totals(alt_ring, pred, 8, start, total)[0] == total
        assert _frontier_totals(alt_ring, pred, 8, start, total - 1) is None
        assert pred.snapshot() == _primed(pred.machine)

    def test_full_leaderboard_matches_double_sum(self):
        rng = random.Random(43)
        for _ in range(4):
            targets = [random_machine(rng.randint(1, 3), rng)
                       for _ in range(rng.randint(1, 2))]
            t = rng.randint(3, 6)
            res = search_best_predictor(targets, 2, t, top_n=256)
            assert len(res.leaderboard) == res.evaluated == 256
            for machine, score in res.leaderboard:
                predict = _guess_function(machine)
                expected = sum(
                    oracles.predictor_error_double_sum(target, predict, t)
                    for target in targets
                ) / len(targets)
                assert score == expected, machine

    @pytest.mark.parametrize("case", ["echo", "two_targets", "after_training"])
    def test_short_leaderboard_is_prefix_of_full(self, case, alt_ring):
        rng = random.Random(47)
        if case == "echo":
            run = lambda n: search_best_predictor([echo_machine()], 2, 7, top_n=n)
        elif case == "two_targets":
            targets = [alt_ring, random_machine(3, rng)]
            run = lambda n: search_best_predictor(targets, 2, 7, top_n=n)
        else:
            targets = [random_machine(3, rng), random_machine(2, rng)]
            training = targets[0].run(Bits.from_string("0110"))
            run = lambda n: search_after_training(targets, 2, training, 4, top_n=n)
        full = run(256)
        if case == "echo":
            assert {score for _, score in full.leaderboard} == {Fraction(1, 2)}
        for n in (1, 3, 5):
            res = run(n)
            assert res.leaderboard == full.leaderboard[:n]
            assert (res.best, res.best_score) == full.leaderboard[0]
            assert res.search_space_size == res.evaluated == full.evaluated == 256
