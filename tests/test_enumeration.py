"""Machine enumeration, canonical forms, and connectivity."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mealypred import (
    Bits,
    CapExceeded,
    MealyMachine,
    canonicalize,
    count_machines,
    enumerate_machines,
    is_strongly_connected,
    machine_id,
    orbit_size,
    raw_machine_count,
    relabel,
    serialize_machine,
)
from mealypred.enumeration import machine_tables
from mealypred.machines import random_machine, ring_machine

import oracles


class TestCounts:
    def test_raw_k1_is_four(self):
        machines = list(enumerate_machines(1, "raw"))
        assert len(machines) == 4 == raw_machine_count(1)
        outputs = {m.output for m in machines}
        assert outputs == {((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),)}

    def test_raw_k2_is_256(self):
        assert count_machines(2, "raw") == 256 == raw_machine_count(2)

    def test_canonical_k2_count(self):
        # only relabelings fixing the initial state apply; with two states
        # that group is trivial, so every machine is its own class
        assert count_machines(2, "canonical") == 256
        assert count_machines(2, "canonical") >= 256 // 2

    def test_orbit_partition_small(self):
        for k in (1, 2):
            total = sum(orbit_size(m) for m in enumerate_machines(k, "canonical"))
            assert total == raw_machine_count(k)

    def test_caps_refused_with_estimate(self):
        with pytest.raises(CapExceeded, match="raw"):
            list(enumerate_machines(4, "raw"))
        with pytest.raises(CapExceeded):
            list(enumerate_machines(5, "canonical"))
        with pytest.raises(CapExceeded):
            list(enumerate_machines(5, "strongly_connected"))

    @pytest.mark.parametrize("k, mode, error", [
        (9, "canonical", CapExceeded), (2**64, "raw", CapExceeded), (-1, "raw", ValueError),
        (0, "canonical", ValueError), (2, "bogus", ValueError),
    ])
    def test_arguments_checked_at_the_call(self, k, mode, error):
        # not at the first chunk: a caller can size nothing by k before it is checked
        for listing in (machine_tables, enumerate_machines):
            with pytest.raises(error):
                listing(k, mode)

    def test_unknown_mode_lists_the_three(self):
        for listing in (machine_tables, enumerate_machines):
            with pytest.raises(ValueError, match="'raw', 'canonical', 'strongly_connected'"):
                next(listing(2, "bogus"))


class TestOrder:
    def test_deterministic_and_sorted(self):
        # search breaks score ties by this order with a stable sort
        for mode in ("raw", "canonical", "strongly_connected"):
            for k in (1, 2, 3):
                machines = list(enumerate_machines(k, mode))
                ser = [serialize_machine(m) for m in machines]
                assert ser == sorted(ser), (mode, k)
                assert len(set(ser)) == len(ser), (mode, k)
                assert list(enumerate_machines(k, mode)) == machines, (mode, k)

    def test_every_machine_starts_at_zero(self):
        assert all(m.initial_state == 0 for m in enumerate_machines(2, "canonical"))


class TestCanonicalize:
    def test_idempotent_on_canonical_enumeration(self):
        for m in enumerate_machines(2, "canonical"):
            assert canonicalize(m) == m

    def test_orbit_members_share_canonical_form(self):
        rng = random.Random(21)
        for _ in range(25):
            k = rng.randint(2, 4)
            m = random_machine(k, rng)
            perm = list(range(k))
            tail = perm[1:]
            rng.shuffle(tail)
            perm = tuple([0] + tail)
            assert canonicalize(relabel(m, perm)) == canonicalize(m)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_idempotent_random_k4(self, seed):
        m = random_machine(4, random.Random(seed))
        c = canonicalize(m)
        assert canonicalize(c) == c

    def test_behavior_preserved(self):
        rng = random.Random(31)
        for _ in range(20):
            m = random_machine(rng.randint(2, 4), rng)
            c = canonicalize(m)
            for _ in range(8):
                bits = Bits(rng.randrange(1 << 8), 8)
                assert m.run(bits) == c.run(bits)

    def test_nonzero_initial_state_moves_to_zero(self):
        m = MealyMachine(2, ((1, 0), (0, 1)), ((0, 1), (1, 0)), initial_state=1)
        c = canonicalize(m)
        assert c.initial_state == 0
        assert machine_id(canonicalize(relabel(m, (1, 0)))) == machine_id(c)
        assert orbit_size(relabel(m, (1, 0))) == orbit_size(m) == orbit_size(c)

    def test_canonical_forms_of_raw_k3_are_the_canonical_list(self):
        # the first k with a non-identity relabeling, where the table filter
        # and canonicalize could disagree
        canon = {canonicalize(m) for m in enumerate_machines(3, "raw")}
        assert canon == set(enumerate_machines(3, "canonical"))


class TestStrongConnectivity:
    def test_ring_connected(self):
        assert is_strongly_connected(ring_machine("0101"))

    def test_unreachable_state(self):
        m = MealyMachine(2, ((0, 0), (0, 1)), ((0, 0), (0, 0)))
        assert not is_strongly_connected(m)

    def test_no_way_back(self):
        m = MealyMachine(2, ((1, 1), (1, 1)), ((0, 0), (0, 0)))
        assert not is_strongly_connected(m)

    def test_mode_filters(self):
        sc = list(enumerate_machines(2, "strongly_connected"))
        assert all(is_strongly_connected(m) for m in sc)
        assert 0 < len(sc) < 256

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tables_keep_the_canonical_rows_the_oracle_accepts(self, k):
        # the table filter against a depth-first search sharing no code with it
        nxt, out = (np.concatenate(a) for a in zip(*machine_tables(k, "canonical")))
        keep = np.array([oracles.strongly_connected(MealyMachine(k, trans, outs, 0))
                         for trans, outs in zip(nxt.tolist(), out.tolist())])
        sc_nxt, sc_out = (np.concatenate(a) for a in zip(*machine_tables(k, "strongly_connected")))
        assert np.array_equal(sc_nxt, nxt[keep]) and np.array_equal(sc_out, out[keep])

    def test_matches_the_oracle_on_random_machines(self):
        # 1-8 states, initial state anywhere; about two in five are connected
        rng = random.Random(21)
        for _ in range(2000):
            k = rng.randint(1, 8)
            m = random_machine(k, rng)
            m = MealyMachine(k, m.transition, m.output, rng.randrange(k))
            assert is_strongly_connected(m) == oracles.strongly_connected(m)


class TestSpotCheckK3:
    def test_canonical_representatives_cover_samples(self):
        rng = random.Random(41)
        canon = None
        for _ in range(60):
            m = random_machine(3, rng)
            c = canonicalize(m)
            assert canonicalize(c) == c
            if canon is None:
                canon = c
        # orbit sizes divide the admissible group order (here 2)
        sizes = Counter(orbit_size(random_machine(3, rng)) for _ in range(60))
        assert set(sizes) <= {1, 2}
