"""Stationary frequencies and the perfect-knowledge error floor."""

import random
import time
from fractions import Fraction

import pytest

from mealypred import (
    KnownStatePredictor,
    MealyMachine,
    StationaryVector,
    adjacency,
    enumerate_machines,
    evaluate_exhaustive,
    normalized_matrix,
    perfect_knowledge_error_bound,
    stationary_frequencies,
)
from mealypred.enumeration import is_strongly_connected
from mealypred.machines import random_machine, ring_machine
from mealypred.spectral import _components

import oracles


class TestAdjacency:
    def test_ring_rows(self):
        m = ring_machine("0010")
        adj = adjacency(m)
        for i in range(4):
            assert adj[i][(i + 1) % 4] == 2
            assert sum(adj[i]) == 2

    def test_self_loop_and_exit(self):
        m = MealyMachine(2, ((0, 1), (1, 1)), ((0, 0), (0, 0)))
        assert adjacency(m)[0] == (1, 1)

    def test_demo8_first_row(self, demo8):
        row = adjacency(demo8)[0]
        assert row[1] == 1 and row[2] == 1 and sum(row) == 2

    def test_rows_stochastic_exact(self):
        rng = random.Random(0)
        for _ in range(20):
            m = random_machine(rng.randint(1, 6), rng)
            for row in normalized_matrix(m):
                assert sum(row) == Fraction(1)


class TestComponents:
    def test_mutual_reachability_in_topological_order(self):
        # edges biased forward, so most machines have many components
        rng = random.Random(3)
        for _ in range(400):
            k = rng.randint(1, 12)
            transition = tuple(tuple(rng.randrange(k) if rng.random() < 0.3 else rng.randrange(s, k)
                                     for _ in (0, 1)) for s in range(k))
            m = MealyMachine(k, transition, ((0, 1),) * k, rng.randrange(k))
            reach = [m.reachable_states(s) for s in range(k)]
            comps = _components(m)
            assert sorted(s for c in comps for s in c) == sorted(reach[m.initial_state])
            assert m.initial_state in comps[0]
            place = {s: i for i, c in enumerate(comps) for s in c}
            for c in comps:
                assert {j for j in reach[c[0]] if c[0] in reach[j]} == set(c)
                assert all(place[n] >= place[s] for s in c for n in m.transition[s])


class TestStationary:
    def test_ring_uniform_despite_periodicity(self):
        for k in range(1, 7):
            sv = stationary_frequencies(ring_machine("0" * k))
            assert sv.weights == (Fraction(1, k),) * k
            assert (sv.method, sv.residual, sv.iterations) == ("exact", 0, 0)

    def test_echo_half_half_vs_enumeration(self, echo):
        sv = stationary_frequencies(echo)
        emp = oracles.visit_frequencies(echo, 16)
        assert [float(w) for w in sv.weights] == pytest.approx(list(emp), abs=1e-12)
        assert sv.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_absorbing_state_takes_all(self, absorbing_machine):
        sv = stationary_frequencies(absorbing_machine)
        assert sv.weights == (0, 0, 1)

    def test_branch_into_two_absorbing_states_splits_evenly(self):
        m = MealyMachine(3, ((1, 2), (1, 1), (2, 2)), ((0, 1), (0, 0), (1, 1)))
        assert stationary_frequencies(m).weights == (0, Fraction(1, 2), Fraction(1, 2))
        # one more branch on the way makes the split uneven
        m = MealyMachine(4, ((2, 1), (2, 3), (2, 2), (3, 3)), ((0, 1),) * 4)
        assert stationary_frequencies(m).weights == (0, 0, Fraction(3, 4), Fraction(1, 4))

    def test_unreachable_states_get_zero(self):
        m = MealyMachine(3, ((0, 1), (0, 1), (2, 2)), ((0, 1), (1, 0), (0, 0)))
        sv = stationary_frequencies(m)
        assert sv.weights[2] == 0

    def test_fixed_point_for_irreducible_aperiodic(self):
        # exact, so periodic irreducible chains are held to it as well
        rng = random.Random(5)
        n_checked = 0
        while n_checked < 25:
            m = random_machine(rng.randint(2, 6), rng)
            if not is_strongly_connected(m):
                continue
            w = stationary_frequencies(m).weights
            p = normalized_matrix(m)
            k = m.num_states
            assert tuple(sum(w[i] * p[i][j] for i in range(k)) for j in range(k)) == w
            assert all(x > 0 for x in w)
            n_checked += 1

    def test_matched_horizon_average_equals_enumeration(self):
        # h visit(h) = h w + delta_s0 (P - P^(h+1)) Z, exactly, reducible chains included
        rng = random.Random(11)
        machines = [ring_machine("0" * k) for k in (2, 3, 5)]
        machines += [random_machine(rng.randint(2, 6), rng) for _ in range(10)]
        for m in machines:
            w = stationary_frequencies(m).weights
            counts = oracles.visit_counts(m, 14)
            term = oracles.visit_transient_term(m, 14)
            for s in range(m.num_states):
                assert Fraction(counts[s], 1 << 14) == 14 * w[s] + term[s]

    def test_matches_cesaro_oracle(self):
        machines = [m for k in (1, 2) for m in enumerate_machines(k, "canonical")]
        rng = random.Random(17)
        machines += [random_machine(rng.randint(1, 8), rng) for _ in range(150)]
        # uniform random machines rarely reach two closed classes; these end
        # in an absorbing state and a period-2 ring
        for _ in range(50):
            k = rng.randint(4, 8)
            free = [(rng.randrange(k), rng.randrange(k)) for _ in range(k - 3)]
            transition = tuple(free) + ((k - 2, k - 2), (k - 3, k - 3), (k - 1, k - 1))
            output = tuple((rng.randrange(2), rng.randrange(2)) for _ in range(k))
            machines.append(MealyMachine(k, transition, output))
        for m in machines:
            w = stationary_frequencies(m).weights
            pi, _ = oracles.cesaro_limit_and_fundamental(m)
            assert list(w) == pi[m.initial_state]
            p = normalized_matrix(m)
            k = m.num_states
            assert tuple(sum(w[i] * p[i][j] for i in range(k)) for j in range(k)) == w

    def test_matches_cesaro_oracle_with_several_classes(self):
        # ring blocks: transient ones first, each edge out of them to a later
        # block, then closed ones; singleton transient blocks form chains
        def blocks_machine(rng, transient, closed):
            sizes = transient + closed
            starts = [sum(sizes[:b]) for b in range(len(sizes))]
            transition = []
            for b, (start, size) in enumerate(zip(starts, sizes)):
                for i in range(size):
                    inside = (start + (i + 1) % size, rng.randrange(start, start + size))
                    if b >= len(transient):
                        transition.append(inside)
                        continue
                    out = [starts[c] + rng.randrange(sizes[c])
                           for c in rng.sample(range(b + 1, len(sizes)), 2)]
                    if size == 1:
                        transition.append(tuple(out))
                    else:
                        exits = i == size - 1 or rng.random() < 0.3
                        transition.append((inside[0], out[0] if exits else inside[1]))
            k = sum(sizes)
            output = tuple((rng.randrange(2), rng.randrange(2)) for _ in range(k))
            return MealyMachine(k, tuple(transition), output)

        rng = random.Random(23)
        layouts = [([1, 1, 6, 1, 1, 9, 2], [7, 1, 12, 4]),
                   ([3, 1, 1, 1, 14, 1, 2, 5], [9, 2, 13]),
                   ([1] * 12 + [10, 4], [16, 1, 8, 6])]
        checked = 0
        while checked < 6:
            transient, closed = layouts[checked % 3]
            m = blocks_machine(rng, transient, closed)
            pi, _ = oracles.cesaro_limit_and_fundamental(m)
            ends = [sum(transient + closed[:i + 1]) for i in range(len(closed))]
            if sum(any(pi[0][end - size:end]) for end, size in zip(ends, closed)) < 2:
                continue  # fewer than two closed classes reached
            assert list(stationary_frequencies(m).weights) == pi[0]
            checked += 1

    @pytest.mark.parametrize("k", [128, 256])
    def test_balance_at_hundreds_of_states(self, k):
        # from the transition table alone, in O(k^2): w P == w, sum(w) == 1,
        # and w > 0 exactly on the recurrent states reachable from s0
        m = random_machine(k, random.Random(k))
        w = stationary_frequencies(m).weights
        flow = [Fraction(0)] * k
        for i in range(k):
            for j in m.transition[i]:
                flow[j] += w[i] / 2
        assert flow == list(w) and sum(w) == 1
        reach = []
        for s in range(k):
            seen, todo = {s}, [s]
            while todo:
                for n in m.transition[todo.pop()]:
                    if n not in seen:
                        seen.add(n)
                        todo.append(n)
            reach.append(seen)
        recurrent = {s for s in reach[m.initial_state] if all(s in reach[j] for j in reach[s])}
        assert {s for s in range(k) if w[s]} == recurrent

    def test_long_path_without_recursion(self):
        # i -> i + 1 on both inputs, the last state absorbing: 4,999 transient
        # components, each solved alone
        k = 5000
        m = MealyMachine(k, tuple((min(i + 1, k - 1),) * 2 for i in range(k)), ((0, 1),) * k)
        start = time.perf_counter()
        w = stationary_frequencies(m).weights
        assert time.perf_counter() - start < 1
        assert w == (0,) * (k - 1) + (1,)

    def test_rejects_bad_arguments(self):
        half = Fraction(1, 2)
        assert StationaryVector((half, half)).method == "exact"
        with pytest.raises(ValueError, match="negative"):
            StationaryVector((Fraction(3, 2), -half))
        with pytest.raises(ValueError, match="sum to 1"):
            StationaryVector((half, half, half))
        with pytest.raises(ValueError, match="sum to 1"):
            StationaryVector((half, Fraction(1, 3)), "exact", 0, 0)


class TestBound:
    def test_all_biased_machine_bound_zero(self, alt_ring):
        sv = stationary_frequencies(alt_ring)
        assert perfect_knowledge_error_bound(alt_ring, sv) == Fraction(0)

    def test_echo_bound_half_matches_enumeration(self, echo):
        sv = stationary_frequencies(echo)
        bound = perfect_knowledge_error_bound(echo, sv)
        assert type(bound) is Fraction and bound == Fraction(1, 2)
        e = evaluate_exhaustive(echo, KnownStatePredictor(echo), 12).e_ave
        assert e == Fraction(1, 2)

    def test_half_biased_ring_bound_quarter(self, half_biased_ring):
        sv = stationary_frequencies(half_biased_ring)
        bound = perfect_knowledge_error_bound(half_biased_ring, sv)
        assert bound == Fraction(1, 4)
        e = evaluate_exhaustive(half_biased_ring, KnownStatePredictor(half_biased_ring), 12).e_ave
        assert e == Fraction(1, 4)

    def test_known_state_error_equals_exact_chain_law(self):
        # dual route: enumeration engine vs exact distribution recursion
        rng = random.Random(23)
        for _ in range(25):
            m = random_machine(rng.randint(1, 4), rng)
            t = rng.randint(1, 9)
            lhs = evaluate_exhaustive(m, KnownStatePredictor(m), t).e_ave
            assert lhs == oracles.dp_known_state_error(m, t)
