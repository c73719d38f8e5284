"""Machine semantics and the text format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mealypred import (
    Bits,
    InvalidStateError,
    MachineFormatError,
    MealyMachine,
    StateClass,
    machine_id,
    parse_machine,
    serialize_machine,
)
from mealypred.machines import constant_machine, delay_machine, ring_machine

import oracles


def machines_strategy(max_states=8):
    def build(draw):
        k = draw(st.integers(1, max_states))
        trans = tuple(
            (draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)))
            for _ in range(k)
        )
        out = tuple(
            (draw(st.integers(0, 1)), draw(st.integers(0, 1))) for _ in range(k)
        )
        return MealyMachine(k, trans, out, draw(st.integers(0, k - 1)))

    return st.composite(build)()


class TestBits:
    def test_round_trip_string(self):
        assert str(Bits.from_string("001101")) == "001101"

    def test_packing_order(self):
        b = Bits.from_string("011")
        assert b.value == 0b110 and len(b) == 3
        assert list(b) == [0, 1, 1]
        assert b[0] == 0 and b[2] == 1

    def test_append_and_prefix(self):
        b = Bits.from_string("01")
        assert str(b.append(1)) == "011"
        assert str(Bits.from_string("0110").prefix(2)) == "01"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Bits.from_string("01x")
        with pytest.raises(ValueError):
            Bits(4, 2)


class TestStep:
    def test_demo8_trace(self, demo8):
        out, path = demo8.run_with_states("001111")
        assert str(out) == "000100"
        assert path == (0, 1, 4, 5, 7, 0, 2)

    def test_constant_machine_step(self):
        m = constant_machine(0)
        assert m.step(0, 0) == (0, 0)
        assert m.step(0, 1) == (0, 0)

    def test_delay_machine_step(self, delay):
        # state stores the last input; the emitted bit is the stored one
        assert delay.step(0, 1) == (1, 0)
        assert delay.step(1, 0) == (0, 1)

    def test_invalid_state(self, delay):
        with pytest.raises(InvalidStateError):
            delay.step(5, 0)


class TestRun:
    def test_delay_shifts_input(self, delay):
        assert str(delay.run("010111")) == "001011"

    def test_ring_ignores_input(self):
        m = ring_machine("0110")
        assert m.run("000000") == m.run("111111") == m.run("010101")

    def test_empty_input(self, delay):
        out, path = delay.run_with_states("")
        assert len(out) == 0
        assert path == (0,)

    @given(machines_strategy(), st.integers(0, 255), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_stepwise_oracle(self, machine, value, length):
        bits = Bits(value & ((1 << length) - 1), length)
        outs, path = oracles.simulate(machine, bits.value, length)
        got, got_path = machine.run_with_states(bits)
        assert list(got) == outs
        assert list(got_path) == path

    @given(machines_strategy(), st.integers(0, 1023))
    @settings(max_examples=40, deadline=None)
    def test_prefix_property(self, machine, value):
        bits = Bits(value, 10)
        full = machine.run(bits)
        for j in (0, 3, 7, 10):
            assert machine.run(bits.prefix(j)) == full.prefix(j)


class TestClassify:
    def test_all_zero_state_is_biased(self):
        m = constant_machine(0)
        assert m.classify(0) is StateClass.L00
        assert m.classify(0).biased

    def test_echo_state_unbiased(self, echo):
        assert echo.classify(0) is StateClass.L01
        assert not echo.classify(0).biased

    def test_constant_one(self):
        assert constant_machine(1).classify(0) is StateClass.L11

    @given(machines_strategy())
    @settings(max_examples=40, deadline=None)
    def test_partition(self, machine):
        for s in range(machine.num_states):
            c = machine.classify(s)
            assert c.value == machine.output[s]
            assert c.biased == (c in (StateClass.L00, StateClass.L11))


class TestFormat:
    def test_round_trip_demo8(self, demo8):
        assert parse_machine(serialize_machine(demo8)) == demo8

    def test_missing_entry_names_pair(self):
        text = serialize_machine(delay_machine())
        lines = [l for l in text.splitlines() if not l.startswith("1 1")]
        with pytest.raises(MachineFormatError, match="state 1 input 1"):
            parse_machine("\n".join(lines))

    def test_duplicate_entry(self):
        text = serialize_machine(delay_machine()) + "0 0 -> 1 1\n"
        with pytest.raises(MachineFormatError, match="duplicate"):
            parse_machine(text)

    def test_out_of_range_target(self):
        text = "mealy 3\ninitial 0\n" + "\n".join(
            f"{s} {b} -> {0 if (s, b) != (2, 1) else 9} 0"
            for s in range(3)
            for b in (0, 1)
        )
        with pytest.raises(MachineFormatError, match="out of range") as err:
            parse_machine(text)
        assert err.value.line == 8

    def test_comments_blanks_and_order(self):
        text = "# header\n\nmealy 1\ninitial 0\n0 1 -> 0 1\n# mid\n0 0 -> 0 0\n"
        m = parse_machine(text)
        assert m == MealyMachine(1, ((0, 0),), ((0, 1),))

    def test_comment_needs_no_space_after_hash(self):
        text = "#header\nmealy 1\n\t#!note\ninitial 0\n0 0 -> 0 0\n0 1 -> 0 1\n"
        assert parse_machine(text) == MealyMachine(1, ((0, 0),), ((0, 1),))

    def test_error_carries_line_number(self):
        with pytest.raises(MachineFormatError) as err:
            parse_machine("mealy 2\ninitial 0\n0 0 -> 1\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("text, message, line", [
        ("  mealy 2 x \t\n", "expected 'mealy <k>', got 'mealy 2 x'", 1),
        ("# c\n\nstates 2\n", "expected 'mealy <k>', got 'states 2'", 3),
        ("mealy two\n", "state count 'two' is not an integer", 1),
        ("mealy 0\n", "state count must be positive", 1),
        ("mealy 2\n   # c\ninit 0\n", "expected 'initial <i>', got 'init 0'", 3),
        ("mealy 2\ninitial\n", "expected 'initial <i>', got 'initial'", 2),
        ("mealy 2\ninitial s0\n", "initial state 's0' is not an integer", 2),
        ("mealy 2\ninitial 2\n", "initial state 2 out of range for 2 states", 2),
        ("mealy 2\ninitial 0\n0 0 -> 1 1 # c\n", "expected '<state> <input> -> <next> <output>', got '0 0 -> 1 1 # c'", 3),
        ("mealy 2\ninitial 0\n\t0 0 => 1 1 \n", "expected '<state> <input> -> <next> <output>', got '0 0 => 1 1'", 3),
        ("mealy 2\ninitial 0\n 0 0 -> 1 x\n", "non-integer field in entry '0 0 -> 1 x'", 3),
        ("mealy 2\ninitial 0\n2 0 -> 1 1\n", "state 2 out of range for 2 states", 3),
        ("mealy 2\ninitial 0\n0 2 -> 1 1\n", "input bit must be 0 or 1, got 2", 3),
        ("mealy 2\ninitial 0\n0 1 -> -1 1\n", "target state -1 out of range for 2 states", 3),
        ("mealy 2\ninitial 0\n0 1 -> 1 2\n", "output bit must be 0 or 1, got 2", 3),
        ("mealy 2\ninitial 0\n1 1 -> 1 1\n#\n1 1 -> 0 0\n",
         "duplicate entry for state 1 input 1 (first at line 3)", 5),
        ("", "empty document: missing 'mealy <k>' header", None),
        ("# only\n  \n", "empty document: missing 'mealy <k>' header", None),
        ("mealy 1\n", "missing 'initial <i>' line", None),
        ("mealy 2\ninitial 1\n0 0 -> 1 1\n0 1 -> 1 1\n1 1 -> 1 1\n", "missing entry for state 1 input 0", None),
    ])
    def test_each_error_names_its_line(self, text, message, line):
        with pytest.raises(MachineFormatError) as err:
            parse_machine(text)
        assert err.value.line == line
        assert str(err.value) == (message if line is None else f"line {line}: {message}")

    @pytest.mark.parametrize("args, message", [
        ((0, (), ()), "a machine needs at least one state"),
        ((2, ((0, 1),), ((0, 1), (1, 0))), "transition/output tables must have one row per state"),
        ((1, ((0, 0, 0),), ((0, 1),)), "state 0 needs exactly two entries"),
        ((2, ((0, 1), (1, 2)), ((0, 1), (1, 0))), "transition (1,1) targets state 2 out of range"),
        ((1, ((0, 0),), ((0, 2),)), "output (0,1) must be a bit"),
        ((1, ((0, 0),), ((0, 1),), 1), "initial state 1 out of range"),
    ])
    def test_constructor_errors(self, args, message):
        with pytest.raises(ValueError) as err:
            MealyMachine(*args)
        assert str(err.value) == message

    def test_tables_become_int_tuples(self):
        m = MealyMachine(2, [[1, True], [0, 1]], [(False, 1), [1, 0]])
        assert (m.transition, m.output) == (((1, 1), (0, 1)), ((0, 1), (1, 0)))
        assert all(type(x) is int for row in m.transition + m.output for x in row)

    @given(machines_strategy())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_random(self, machine):
        assert parse_machine(serialize_machine(machine)) == machine

    def test_machine_id_tracks_structure(self, echo, delay):
        assert machine_id(echo) != machine_id(delay)
        assert machine_id(echo) == machine_id(parse_machine(serialize_machine(echo)))
