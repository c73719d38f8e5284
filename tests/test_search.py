"""Exhaustive search over bounded-state predicting automata."""

import random
from fractions import Fraction
from functools import cache

import pytest

import mealypred.predictors
from mealypred import (
    AutomatonPredictor,
    Bits,
    CapExceeded,
    ConsistencyPredictor,
    InconsistentTrainingData,
    MealyMachine,
    evaluate_exhaustive,
    machine_id,
    search_after_training,
    search_best_predictor,
    serialize_machine,
)
from mealypred.enumeration import enumerate_machines
from mealypred.machines import constant_machine, echo_machine, random_machine

import oracles


def _primed(machine):
    return machine.step(machine.initial_state, 0)


def _guess_function(machine):
    @cache
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

    @pytest.mark.parametrize("t, error, message", [
        (0, ValueError, "horizon must be at least 1"),
        (9, CapExceeded, "horizon 9 exceeds the exhaustive cap of 8"),
    ])
    def test_rejects_bad_horizon(self, alt_ring, t, error, message):
        with pytest.raises(error, match=message):
            search_best_predictor([alt_ring], 1, t, cap=8)


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

    @pytest.mark.parametrize("no_targets, continuation, top_n, message", [
        (True, 3, 10, "at least one target machine is required"),
        (False, 0, 10, "continuation length must be at least 1"),
        (False, 3, 0, "leaderboard size must be at least 1"),
    ])
    def test_rejects_bad_arguments(self, alt_ring, no_targets, continuation, top_n, message):
        targets = [] if no_targets else [alt_ring]
        with pytest.raises(ValueError, match=message):
            search_after_training(targets, 1, Bits.from_string("01"), continuation, top_n=top_n)

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

    def test_full_leaderboard_matches_continuation_double_sum(self):
        rng = random.Random(53)
        for case in range(4):
            targets = [random_machine(rng.randint(1, 3), rng)
                       for _ in range(rng.randint(1, 2))]
            training = targets[0].run(Bits(rng.getrandbits(3), 3))
            if case < 2:  # a target that cannot emit the training bits
                targets.append(constant_machine(0 if 1 in training else 1))
            c = rng.randint(2, 3)
            res = search_after_training(targets, 2, training, c, top_n=256)
            assert len(res.leaderboard) == res.evaluated == 256
            for machine, score in res.leaderboard:
                predict = _guess_function(machine)
                sums = [oracles.continuation_error_double_sum(m, tuple(training), predict, c)
                        for m in targets]
                if case < 2:
                    assert sums[-1] == (0, 0)
                misses = sum(x for x, _ in sums)
                kept = sum(n for _, n in sums)
                assert score == Fraction(misses, c * kept), machine

    def test_digit_rows_agree_with_one_row(self):
        # 2**100 consistent pairs take the totals past int64, so the start
        # vector enters the final dot product as Python integers; 4 pairs
        # keep it in int64. All pairs of a constant target are alike, and
        # 2-state candidates end up in the same state after 2 or 100 zeros.
        target = constant_machine(0)
        long = search_after_training([target], 2, Bits(0, 100), 5, top_n=256)
        short = search_after_training([target], 2, Bits(0, 2), 5, top_n=256)
        assert len({score for _, score in short.leaderboard}) > 1
        assert long.leaderboard == short.leaderboard

    def test_python_int_counts_at_long_continuation(self):
        # at continuation 60 the backward values outgrow int64 and are
        # Python integers. A constant-0 target emits 0 whatever its input,
        # so a candidate's score is the share of 1-guesses it makes while
        # reading zeros.
        _check_scores_while_reading_zeros(60)

    @pytest.mark.parametrize("c", [55, 56, 57, 58])
    def test_counts_exact_across_the_int64_bound(self, c):
        # the backward values reach c * 2**c, which int64 holds up to
        # continuation 57; from 58 on they are Python integers
        _check_scores_while_reading_zeros(c)


def _check_scores_while_reading_zeros(c):
    res = search_after_training([constant_machine(0)], 2, Bits(0, 3), c, top_n=256)
    assert len({score for _, score in res.leaderboard}) > 2
    for machine, score in res.leaderboard:
        predict = _guess_function(machine)
        assert score == Fraction(sum(predict((0,) * (3 + i)) for i in range(c)), c)


class TestPruning:
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

    @pytest.mark.parametrize("states", [2, 40])
    def test_k3_leaderboard_crosses_chunks_in_order(self, states, alt_ring):
        # k=3 candidates span several table chunks, and against 40 target
        # states each chunk is scored in several batches; the carried
        # leaderboard must equal one stable sort of every candidate in
        # serialization order
        target = alt_ring if states == 2 else random_machine(states, random.Random(61))
        full = search_best_predictor([target], 3, 3, top_n=30000)
        assert len(full.leaderboard) == full.evaluated == 23400
        keyed = [(score, serialize_machine(m)) for m, score in full.leaderboard]
        assert keyed == sorted(keyed)
        assert {m for m, _ in full.leaderboard} == set(enumerate_machines(3, "canonical"))
        for machine, score in random.Random(59).sample(full.leaderboard, 20):
            assert evaluate_exhaustive(target, AutomatonPredictor(machine), 3).e_ave == score
        for n in (1, 7):
            assert search_best_predictor([target], 3, 3, top_n=n).leaderboard == full.leaderboard[:n]

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
