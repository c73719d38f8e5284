"""Exhaustive search over bounded-state predicting automata."""

import random
from fractions import Fraction

import pytest

from mealypred import (
    AutomatonPredictor,
    Bits,
    ConsistencyPredictor,
    InconsistentTrainingData,
    MealyMachine,
    evaluate_exhaustive,
    search_after_training,
    search_best_predictor,
)
from mealypred.enumeration import enumerate_machines
from mealypred.machines import constant_machine, random_machine


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
