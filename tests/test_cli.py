"""Command-line behavior: formats, exit codes, reproducibility."""

import json
import logging
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mealypred.automaton
from mealypred import MealyMachine, relabel, serialize_machine
from mealypred.cli import _FIELDS, _write_json, main
from mealypred.machines import (
    alternating_ring,
    constant_machine,
    echo_machine,
    eight_state_example,
    random_machine,
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, machine in [
        ("demo8", eight_state_example()),
        ("echo", echo_machine()),
        ("const0", constant_machine(0)),
        ("const1", constant_machine(1)),
        ("altring", alternating_ring()),
    ]:
        p = tmp_path / f"{name}.mealy"
        p.write_text(serialize_machine(machine))
        paths[name] = str(p)
    return paths


def run_json(runner, args):
    result = runner.invoke(main, args + ["--format", "json"])
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


# continuations of 10**30 bits, past any integer 2**continuation
_HUGE_CONFIGS = [
    {"command": "batch-select", "candidates": ["{const0}", "{const1}"], "training": "0",
     "horizon": 10**30, "weighting": "pairs"},
    {"command": "search", "targets": ["{const0}"], "k": 1, "t": 10, "top_n": 10, "cap_t": 24,
     "after_training": "0", "continuation": 10**30},
]


class TestRun:
    def test_demo8_trace(self, runner, files):
        report = run_json(runner, ["run", "-m", files["demo8"], "--input", "001111"])
        assert report["result"]["output"] == "000100"
        assert report["result"]["state_path"] == [0, 1, 4, 5, 7, 0, 2]

    def test_constant_zero(self, runner, files):
        report = run_json(runner, ["run", "-m", files["const0"], "--input", "11111111"])
        assert report["result"]["output"] == "00000000"

    def test_empty_input(self, runner, files):
        report = run_json(runner, ["run", "-m", files["const0"], "--input", ""])
        assert report["result"]["output"] == ""
        assert report["result"]["state_path"] == [0]

    def test_stdin_machine(self, runner):
        result = runner.invoke(
            main,
            ["run", "-m", "-", "--input", "01"],
            input=serialize_machine(constant_machine(1)),
        )
        assert result.exit_code == 0
        assert "11" in result.output


class TestAnalyze:
    def test_alternating_ring_all_biased(self, runner, files):
        report = run_json(runner, ["analyze", "-m", files["altring"]])
        assert report["result"]["unbiased_states"] == []
        assert report["result"]["perfect_knowledge_bound"] == 0.0

    def test_echo(self, runner, files):
        report = run_json(runner, ["analyze", "-m", files["echo"]])
        assert report["result"]["unbiased_states"] == [0, 1]
        assert report["result"]["stationary"] == {
            "weights": [0.5, 0.5], "exact": ["1/2", "1/2"]
        }
        assert report["result"]["perfect_knowledge_bound"] == 0.5
        assert report["result"]["perfect_knowledge_bound_exact"] == "1/2"

    def test_solver_knobs_are_gone(self, runner, files):
        result = runner.invoke(main, ["analyze", "-m", files["echo"], "--tolerance", "1e-9"])
        assert result.exit_code == 2
        assert "--tolerance" in result.output

    def test_replay_of_config_with_old_solver_knobs(self, runner, files, tmp_path):
        report = run_json(runner, ["analyze", "-m", files["echo"]])
        report["config"].update(tolerance=1e-10, max_iterations=1000000)
        path = tmp_path / "old-analyze.json"
        path.write_text(json.dumps(report))
        replayed = run_json(runner, ["replay", str(path)])
        assert replayed["result"] == report["result"]

    def test_unreachable_flagged(self, runner, tmp_path):
        text = "mealy 2\ninitial 0\n0 0 -> 0 0\n0 1 -> 0 0\n1 0 -> 1 0\n1 1 -> 1 1\n"
        p = tmp_path / "u.mealy"
        p.write_text(text)
        report = run_json(runner, ["analyze", "-m", str(p)])
        states = report["result"]["states"]
        assert states[1]["reachable"] is False
        assert states[1]["frequency"] == 0.0


class TestEvaluate:
    def test_exhaustive_echo(self, runner, files):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        assert report["result"]["e_ave"] == "1/2"
        assert report["result"]["method"] == "exhaustive"

    def test_monte_carlo_embeds_seed(self, runner, files):
        report = run_json(
            runner,
            ["evaluate", "-m", files["echo"], "-t", "16", "--method", "monte-carlo",
             "--samples", "200", "--seed", "5"],
        )
        assert report["result"]["samples"] == 200
        assert report["result"]["seed"] == 5
        assert report["config"]["seed"] == 5

    def test_negative_seed_exit_code(self, runner, files):
        result = runner.invoke(
            main,
            ["evaluate", "-m", files["echo"], "-t", "8", "--method", "monte-carlo",
             "--samples", "10", "--seed", "-1"],
        )
        assert result.exit_code == 2
        assert "seed" in result.output

    @pytest.mark.parametrize("predictor, distinct", [
        (["--predictor", "known-state"], 1),
        (["--predictor", "automaton", "--predictor-machine", "{altring}"], 2),
    ])
    def test_serializes_each_machine_once(self, runner, files, monkeypatch, predictor, distinct):
        # the report names each machine's id up to three times: its entry,
        # the error report and the predictor label
        serialized = []

        def counting(machine):
            serialized.append(machine)
            return serialize_machine(machine)

        monkeypatch.setattr(mealypred.automaton, "serialize_machine", counting)
        args = ["evaluate", "-m", files["demo8"], "-t", "6"] + predictor
        report = run_json(runner, [a.format(**files) for a in args])
        assert len(serialized) == len(set(serialized)) == distinct
        assert report["machines"][0]["id"] == report["result"]["machine_id"]

    def test_cap_exit_code(self, runner, files):
        result = runner.invoke(main, ["evaluate", "-m", files["echo"], "-t", "25"])
        assert result.exit_code == 3

    def test_cap_raise_needs_acknowledgment(self, runner, files):
        result = runner.invoke(
            main, ["evaluate", "-m", files["echo"], "-t", "25", "--cap-t", "26"]
        )
        assert result.exit_code == 2


class TestExitCodes:
    def test_parse_error(self, runner, tmp_path):
        p = tmp_path / "bad.mealy"
        p.write_text("mealy 2\ninitial 0\n0 0 -> 9 0\n")
        result = runner.invoke(main, ["run", "-m", str(p), "--input", "0"])
        assert result.exit_code == 2

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["run", "-m", "/nonexistent", "--input", "0"])
        assert result.exit_code == 2

    def test_inconsistent_observation(self, runner, files):
        result = runner.invoke(
            main,
            ["predict", "-m", files["const1"], "--predictor-machine",
             files["const0"], "--input", "111"],
        )
        assert result.exit_code == 4

    @pytest.mark.parametrize("predictor, lines", [
        (["--predictor-machine", "{const0}"], [
            "mealypred.predictors: consistency:45f0183de2a5: model ruled out by observation",
            "inconsistent data: observed bit 1 is impossible for machine 45f0183de2a5 given the prefix so far",
        ]),
        (["--predictor", "ensemble", "--candidates", "{const0}"], [
            "mealypred.predictors: ensemble-1: model ruled out by observation",
            "mealypred.predictors: ensemble: candidate 0 (consistency:45f0183de2a5) eliminated",
            "inconsistent data: observed prefix is impossible for every machine in the ensemble",
        ]),
    ], ids=["consistency", "ensemble"])
    def test_impossible_prediction_lines(self, runner, files, predictor, lines):
        # the refusal is the only line; -v logs the model's death before it
        args = ["predict", "-m", files["const1"], "--input", "01"] + [a.format(**files) for a in predictor]
        for verbose, expected in (([], lines[-1:]), (["-v"], lines)):
            result = runner.invoke(main, verbose + args)
            assert (result.exit_code, result.stdout) == (4, "")
            assert result.stderr.splitlines() == expected

    @pytest.mark.parametrize("source", ["argv", "replay"])
    @pytest.mark.parametrize("config", _HUGE_CONFIGS, ids=["batch-select", "search"])
    def test_huge_continuation_refused(self, runner, files, tmp_path, source, config):
        # 2**(10**30) has too many digits to hold: refused, not a traceback
        config = _fuzz_filled(config, files)
        if source == "argv":
            args = _fuzz_argv(config)
        else:
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(config))
            args = ["replay", str(path)]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout) == (3, ""), result.output
        assert result.stderr.startswith("refused: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("source", ["argv", "replay"])
    @pytest.mark.parametrize("k, code, line", [
        (2**64, 3, "refused: enumeration of 18446744073709551616-state machines in canonical "
                   "mode exceeds the cap of 4 (roughly 10^7.22e+20 raw machines)"),
        (-1, 2, "error: state count must be positive"),
    ], ids=["huge", "negative"])
    def test_search_state_count_checked_first(self, runner, files, tmp_path, source, k, code, line):
        # the state count is checked before the leaderboard arrays are sized by it
        config = {"command": "search", "targets": [files["const0"]], "k": k, "t": 10, "top_n": 10,
                  "cap_t": 24}
        if source == "argv":
            args = _fuzz_argv(config)
        else:
            path = tmp_path / "search.json"
            path.write_text(json.dumps(config))
            args = ["replay", str(path)]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout) == (code, ""), result.output
        assert result.stderr.splitlines() == [line]

    @pytest.mark.parametrize("samples, t", [(2**64, 5), (2, 2**64), (2**62, 4)])
    def test_monte_carlo_too_large_to_index_refused(self, runner, files, samples, t):
        # more bits than one array can index: refused before numpy is asked
        args = ["evaluate", "-m", files["const0"], "--method", "monte-carlo",
                "--samples", str(samples), "-t", str(t)]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout) == (3, ""), result.output
        assert result.stderr.splitlines() == [
            f"refused: {samples} samples of {t} steps are more bits than one array can "
            f"index ({np.iinfo(np.intp).max})"
        ]

    def test_inconsistent_training(self, runner, files):
        result = runner.invoke(
            main,
            ["batch-select", "--candidates", files["const0"], "--training", "01",
             "--horizon", "6"],
        )
        assert result.exit_code == 4

    def test_bad_bits(self, runner, files):
        result = runner.invoke(main, ["run", "-m", files["const0"], "--input", "01x"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, code", [
        (["enumerate", "-k", "0"], 2),
        (["run", "-m", "{echo}", "--input", "@{tmp}/missing"], 2),
        (["search", "--target", "{echo}", "-k", "1", "--after-training", "@{tmp}/missing"], 2),
        (["replay", "{tmp}/missing.json"], 2),
        (["analyze", "-m", "{echo}", "--out", "{tmp}/no/dir.json"], 2),
        (["enumerate", "-k", "1", "--out", "{tmp}/no/dir.txt"], 2),
        (["evaluate", "-m", "{echo}", "-t", "1000", "--method", "monte-carlo",
          "--samples", "1000000000"], 3),
        (["search", "--target", "{echo}", "-k", "1", "--top", "0"], 2),
        (["search", "--target", "{echo}", "-k", "1", "--top", "-3"], 2),
    ])
    def test_failure_exits_with_its_code(self, runner, files, tmp_path, monkeypatch, args, code):
        def too_big(*_args, **_kwargs):
            raise MemoryError("Unable to allocate 931. GiB for an array")

        # a request too large to allocate, without allocating it
        monkeypatch.setattr("mealypred.cli.evaluate_monte_carlo", too_big)
        result = runner.invoke(main, [a.format(tmp=tmp_path, **files) for a in args])
        assert result.exit_code == code, result.output
        assert "Traceback" not in result.output


class TestPredictorOptions:
    CANDIDATES = "--candidates applies only to --predictor ensemble"

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("options, message", [
        (["consistency", "--candidates", "{echo}"], CANDIDATES),
        (["known-state", "--candidates", "{echo}"], CANDIDATES),
        (["always-0", "--candidates", "{echo}"], CANDIDATES),
        (["always-1", "--candidates", "{echo}"], CANDIDATES),
        (["automaton", "--predictor-machine", "{echo}", "--candidates", "{echo}"], CANDIDATES),
        (["always-0", "--predictor-machine", "{echo}"], "--predictor always-0 takes no --predictor-machine"),
        (["always-1", "--predictor-machine", "{echo}"], "--predictor always-1 takes no --predictor-machine"),
        (["ensemble", "--candidates", "{echo}", "--predictor-machine", "{echo}"],
         "--predictor ensemble takes no --predictor-machine"),
        (["always-0", "--predictor-machine", "{echo}", "--candidates", "{echo}"], CANDIDATES),
    ])
    def test_ignored_option_refused(self, runner, files, command, options, message):
        args = [command, "-m", files["echo"], "--predictor"] + [a.format(**files) for a in options]
        args += ["-t", "6"] if command == "evaluate" else ["--input", "0110"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("options, line", [
        (["known-state", "--predictor-machine", "{altring}"],
         "error: known-state prediction is tied to the generator machine"),
        (["automaton"], "error: --predictor automaton requires --predictor-machine"),
    ], ids=["known-state-other", "automaton-alone"])
    def test_predictor_machine_refused(self, runner, files, command, options, line):
        args = [command, "-m", files["echo"], "--predictor"] + [a.format(**files) for a in options]
        args += ["-t", "6"] if command == "evaluate" else ["--input", "0110"]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines() == [line]

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    @pytest.mark.parametrize("options", [
        # known-state with the generator itself as its machine
        ["known-state", "--predictor-machine", "{echo}"],
        ["consistency", "--predictor-machine", "{echo}"],
        ["automaton", "--predictor-machine", "{altring}"],
        ["ensemble", "--candidates", "{echo}", "--candidates", "{altring}"],
        ["always-1"],
    ])
    def test_valid_options_kept(self, runner, files, command, options):
        args = [command, "-m", files["echo"], "--predictor"] + [a.format(**files) for a in options]
        args += ["-t", "6"] if command == "evaluate" else ["--input", "0110"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output


class TestPredict:
    def test_consistency_trace(self, runner, files):
        report = run_json(
            runner, ["predict", "-m", files["altring"], "--input", "1100"]
        )
        assert report["result"]["observed"] == "0101"
        assert report["result"]["total_errors"] == 0

    def test_ensemble(self, runner, files):
        report = run_json(
            runner,
            ["predict", "-m", files["const0"], "--input", "111", "--predictor",
             "ensemble", "--candidates", files["const0"], "--candidates",
             files["const1"]],
        )
        assert report["result"]["consistent"] is True
        assert report["result"]["predictions"] == "000"


class TestEnumerateCmd:
    def test_count_only_raw(self, runner):
        report = run_json(runner, ["enumerate", "-k", "2", "--mode", "raw", "--count-only"])
        assert report["result"]["count"] == 256

    def test_count_only_human_is_bare(self, runner):
        result = runner.invoke(main, ["enumerate", "-k", "2", "--mode", "raw", "--count-only"])
        assert result.output == "256\n"

    def test_human_streams_records(self, runner):
        result = runner.invoke(main, ["enumerate", "-k", "1", "--mode", "raw"])
        records = [r for r in result.output.split("\n\n") if r.strip()]
        assert len(records) == 4
        assert all(r.startswith("mealy 1") for r in records)

    def test_stream_machines(self, runner):
        report = run_json(runner, ["enumerate", "-k", "1", "--mode", "canonical"])
        assert report["result"]["count"] == 4
        assert len(report["result"]["machines"]) == 4

    def test_human_replay_of_json_report(self, runner, tmp_path):
        # the machines, a list of multiline strings, print one block each
        path = tmp_path / "enumerate.json"
        made = runner.invoke(main, ["enumerate", "-k", "1", "--format", "json", "--out", str(path)])
        assert made.exit_code == 0, made.output
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0].endswith(" :: enumerate")
        assert lines[1:11] == ["", "mode: canonical", "k: 1", "count: 4", "machines[0]:",
                               "mealy 1", "initial 0", "0 0 -> 0 0", "0 1 -> 0 0", ""]
        assert [line for line in lines if line.startswith("machines[")] == [
            f"machines[{i}]:" for i in range(4)
        ]

    def test_cap_refusal(self, runner):
        result = runner.invoke(main, ["enumerate", "-k", "6", "--count-only"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("count_only", [[], ["--count-only"]], ids=["records", "count"])
    def test_cap_refusal_leaves_out_file_intact(self, runner, tmp_path, count_only):
        # the enumeration is refused before the file is opened for writing
        path = tmp_path / "kept.txt"
        path.write_bytes(b"kept\n")
        result = runner.invoke(main, ["enumerate", "-k", "9", "--out", str(path)] + count_only)
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr.startswith("refused: enumeration of 9-state machines")
        assert path.read_bytes() == b"kept\n"

    def test_cap_refusal_names_the_mode(self, runner):
        result = runner.invoke(main, ["enumerate", "-k", "5", "--mode", "strongly-connected"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "refused: enumeration of 5-state machines in strongly-connected mode exceeds "
            "the cap of 4 (roughly 1e+10 raw machines)"
        ]

    def test_cap_refusal_of_a_huge_count(self, runner):
        # (2k)**(2k) at k = 10**30 has too many digits to compute; its size is given instead
        result = runner.invoke(main, ["enumerate", "-k", str(10**30), "--count-only"])
        assert (result.exit_code, result.stdout) == (3, "")
        assert result.stderr.endswith("exceeds the cap of 4 (roughly 10^6.06e+31 raw machines)\n")

    def test_cap_k_help_lists_every_default(self, runner):
        result = runner.invoke(main, ["enumerate", "--help"])
        assert result.exit_code == 0
        assert "(default: raw 3, canonical 4, strongly-connected 4)" in " ".join(result.stdout.split())

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("mode", ["raw", "canonical", "strongly-connected"])
    def test_cap_k_sets_the_cap_of_every_mode(self, runner, mode, fmt):
        args = ["enumerate", "-k", "2", "--mode", mode, "--count-only", "--format", fmt]
        assert runner.invoke(main, args + ["--cap-k", "2"]).exit_code == 0
        result = runner.invoke(main, args + ["--cap-k", "1"])
        assert result.exit_code == 3
        assert "exceeds the cap of 1" in result.stderr


class TestBatchSelectCmd:
    def test_toy_selects_always_zero(self, runner, files):
        report = run_json(
            runner,
            ["batch-select", "--candidates", files["const0"], "--candidates",
             files["const1"], "--training", "0000", "--horizon", "8"],
        )
        assert report["result"]["best_label"] == "always-0"

    @pytest.mark.parametrize("uniform", [[], ["--machine-uniform"]], ids=["pairs", "machines"])
    def test_long_continuation_selects(self, runner, files, uniform):
        report = run_json(
            runner,
            ["batch-select", "--candidates", files["const0"], "--candidates",
             files["const1"], "--training", "0", "--horizon", "40"] + uniform,
        )
        assert report["result"]["best_label"] == "always-0"
        assert report["result"]["continuation"] == 39

    def test_frontier_budget_refused(self, runner, files, monkeypatch):
        monkeypatch.setattr("mealypred.evaluation.FRONTIER_BUDGET", 20)
        result = runner.invoke(
            main,
            ["batch-select", "--candidates", files["demo8"], "--candidates",
             files["altring"], "--training", "0", "--horizon", "12"],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "refused: exact walk frontier reached 23 (node, state) pairs at depth 7, "
            "over the budget of 20"
        ]


class TestSearchCmd:
    def test_search_report(self, runner, files):
        report = run_json(
            runner, ["search", "--target", files["altring"], "-k", "2", "-t", "8"]
        )
        assert report["result"]["best_score_float"] <= 0.125
        assert "mealy 2" in report["result"]["best_machine"]

    def test_human_report(self, runner, files):
        result = runner.invoke(
            main, ["search", "--target", files["altring"], "-k", "1", "-t", "4", "--top", "2"]
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert "best_score: 1/4" in lines and "leaderboard[1].score: 1/2" in lines
        # a multiline string follows its key on lines of its own
        at = lines.index("best_machine:")
        assert lines[at + 1:at + 6] == ["mealy 1", "initial 0", "0 0 -> 0 1", "0 1 -> 0 0", ""]
        # and so does one inside a list of dicts
        for i in range(2):
            at = lines.index(f"leaderboard[{i}].machine:")
            assert lines[at + 1] == "mealy 1" and lines[at + 5] == ""
        assert lines[lines.index("leaderboard[0].machine:") + 6].startswith("leaderboard[1].score: ")

    @pytest.mark.parametrize("training", ["", "@{tmp}/empty.txt"])
    def test_empty_training_scores_continuations(self, runner, files, tmp_path, training):
        # no training bits leave every target at its initial state, so the
        # continuations are a plain search at their length
        (tmp_path / "empty.txt").write_text("")
        args = ["search", "--target", files["demo8"], "-k", "2", "-t", "5",
                "--after-training", training.format(tmp=tmp_path), "--continuation", "3"]
        first = runner.invoke(main, args + ["--format", "json"])
        assert first.exit_code == 0, first.output
        report = json.loads(first.output)
        plain = run_json(runner, ["search", "--target", files["demo8"], "-k", "2", "-t", "3"])
        assert report["config"]["after_training"] == ""
        assert report["result"] == plain["result"]
        path = tmp_path / "report.json"
        path.write_text(first.output)
        replayed = runner.invoke(main, ["replay", str(path), "--format", "json"])
        assert replayed.output == first.output


class TestReproducibility:
    def test_json_byte_identical_across_runs(self, runner, files):
        args = ["evaluate", "-m", files["echo"], "-t", "12", "--format", "json"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.output == b.output

    def test_workers_do_not_change_output(self, runner, files):
        base = ["evaluate", "-m", files["echo"], "--predictor", "known-state",
                "-t", "12", "--format", "json"]
        a = runner.invoke(main, base + ["--workers", "1"])
        b = runner.invoke(main, base + ["--workers", "8"])
        assert a.output == b.output

    def test_replay_round_trips(self, runner, files, tmp_path):
        args = ["evaluate", "-m", files["echo"], "-t", "10", "--format", "json"]
        first = runner.invoke(main, args)
        report_path = tmp_path / "report.json"
        report_path.write_text(first.output)
        replayed = runner.invoke(main, ["replay", str(report_path), "--format", "json"])
        assert replayed.exit_code == 0
        assert replayed.output == first.output

    def test_replay_workers_do_not_change_output(self, runner, files, tmp_path):
        report_path = tmp_path / "report.json"
        report_path.write_text(
            runner.invoke(main, ["evaluate", "-m", files["echo"], "-t", "10",
                                 "--format", "json"]).output
        )
        base = ["replay", str(report_path), "--format", "json"]
        a = runner.invoke(main, base + ["--workers", "1"])
        b = runner.invoke(main, base + ["--workers", "8"])
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output

    def test_replay_missing_field_is_usage_error(self, runner, files, tmp_path):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        del report["config"]["method"]
        path = tmp_path / "no-method.json"
        path.write_text(json.dumps(report))
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 2
        assert f"error: {path}: config lacks 'method'" in result.output

    def test_replay_big_cap_needs_acknowledgment(self, runner, files, tmp_path):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        report["config"]["cap_t"] = 100000
        path = tmp_path / "big-cap.json"
        path.write_text(json.dumps(report))
        refused = runner.invoke(main, ["replay", str(path)])
        assert refused.exit_code == 2
        assert "--i-know-this-is-big" in refused.output
        allowed = runner.invoke(main, ["replay", str(path), "--i-know-this-is-big"])
        assert allowed.exit_code == 0

    @pytest.mark.parametrize("field, value", [("t", "10"), ("cap_t", "30")])
    def test_replay_wrong_typed_integer_is_usage_error(
        self, runner, files, tmp_path, field, value
    ):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        report["config"][field] = value
        path = tmp_path / "string-int.json"
        path.write_text(json.dumps(report))
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 2
        assert f"error: {path}: '{field}' must be an integer" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("field, value, kind", [
        ("machine", 0, "a string"),
        ("candidates", ["a", 1], "a list of strings"),
        ("per_step", "no", "a boolean"),
    ])
    def test_replay_wrong_typed_field_is_usage_error(
        self, runner, files, tmp_path, field, value, kind
    ):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        report["config"][field] = value
        path = tmp_path / "wrong-type.json"
        path.write_text(json.dumps(report))
        result = runner.invoke(main, ["replay", str(path)], input="")
        assert result.exit_code == 2
        assert f"error: {path}: '{field}' must be {kind}, not {value!r}" in result.output
        assert "per_step_errors" not in result.output

    def test_replay_non_object_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 2
        assert f"error: {path}: not a JSON object" in result.output

    @pytest.mark.parametrize("text, problem", [
        ('{"command": "replay"}', "not a replayable config"),
        ('{"command": 3}', "not a replayable config"),
        ("mealy 1", "Expecting value: line 1 column 1 (char 0)"),
        ('{"command": "evaluate", "machine": "-", "predictor": "bogus", "t": 2}',
         "unknown predictor 'bogus'; expected one of ('consistency', 'known-state', "
         "'always-0', 'always-1', 'automaton', 'ensemble')"),
    ], ids=["replay", "not-a-name", "not-json", "unknown-predictor"])
    def test_replay_refusal_line(self, runner, tmp_path, text, problem):
        path = tmp_path / "config.json"
        path.write_text(text)
        result = runner.invoke(main, ["replay", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines() == [f"error: {path}: {problem}"]

    def test_replay_unknown_method_is_usage_error(self, runner, files, tmp_path):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        report["config"]["method"] = "x"
        path = tmp_path / "bad-method.json"
        path.write_text(json.dumps(report))
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 2
        assert f"error: {path}: unknown method 'x'" in result.output
        assert "samples" not in result.output

    def test_verbose_logs_search_counters_and_keeps_report(self, runner, files, tmp_path):
        args = ["search", "--target", files["altring"], "-k", "2", "-t", "8",
                "--format", "json", "--out"]
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        plain = runner.invoke(main, args + [str(quiet)])
        verbose = runner.invoke(main, ["-v"] + args + [str(loud)])
        assert plain.exit_code == verbose.exit_code == 0
        assert quiet.read_bytes() == loud.read_bytes()
        assert plain.stderr == ""
        assert verbose.stderr.splitlines() == [
            "mealypred.search: 256 candidates scored, batches: 1"
        ]
        assert not logging.getLogger("mealypred").handlers

    def test_verbose_logs_a_models_death_once(self, runner, files):
        # consistency:const1 dies on the first training bit and is shown six more
        args = ["-v", "batch-select", "--candidates", files["const0"], "--candidates",
                files["const1"], "--training", "0000000", "--horizon", "9"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert [line for line in result.stderr.splitlines() if "ruled out" in line] == [
            "mealypred.predictors: consistency:784f9a060594: model ruled out by observation"
        ]

    @staticmethod
    def _exact_walk_line(runner, tmp_path, args, e_ave):
        """Run ``args`` with and without -v; both reports must be equal and
        give ``e_ave``. Returns what -v logs."""
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        plain = runner.invoke(main, args + ["--format", "json", "--out", str(quiet)])
        verbose = runner.invoke(main, ["-v"] + args + ["--format", "json", "--out", str(loud)])
        assert plain.exit_code == verbose.exit_code == 0
        assert quiet.read_bytes() == loud.read_bytes()
        assert json.loads(quiet.read_text())["result"]["e_ave"] == e_ave
        assert plain.stderr == ""
        assert not logging.getLogger("mealypred").handlers
        return verbose.stderr.splitlines()

    def test_verbose_logs_walk_counters_and_keeps_report(self, runner, files, tmp_path):
        # consistency over a relabeled copy is not over the generator
        # itself, so it walks (node, state) pairs; the walk holds the
        # frontiers of depths 0..t-1 and expands every item on them but
        # those of the last
        path = tmp_path / "relabeled.mealy"
        path.write_text(serialize_machine(relabel(eight_state_example(), (0, 7, 6, 5, 4, 3, 2, 1))))
        args = ["evaluate", "-m", files["demo8"], "--predictor-machine", str(path), "-t"]
        assert self._exact_walk_line(runner, tmp_path, args + ["12"], "719/16384") == [
            "mealypred.evaluation: exact walk, t=12: 20 nodes interned, "
            "68 pairs expanded, peak frontier 40 (node, state) pairs"
        ]
        assert self._exact_walk_line(runner, tmp_path, args + ["13"], "4579/106496") == [
            "mealypred.evaluation: exact walk, t=13: 22 nodes interned, "
            "78 pairs expanded, peak frontier 46 (node, state) pairs"
        ]

    def test_verbose_logs_node_walk(self, runner, files, tmp_path):
        # over the generator itself, consistency walks nodes alone
        args = ["evaluate", "-m", files["demo8"], "-t"]
        assert self._exact_walk_line(runner, tmp_path, args + ["12"], "719/16384") == [
            "mealypred.evaluation: exact walk, t=12: 20 nodes interned, "
            "18 nodes expanded, peak frontier 9 nodes"
        ]
        assert self._exact_walk_line(runner, tmp_path, args + ["13"], "4579/106496") == [
            "mealypred.evaluation: exact walk, t=13: 22 nodes interned, "
            "20 nodes expanded, peak frontier 10 nodes"
        ]

    def test_verbose_logs_stationary_law_and_keeps_report(self, runner, tmp_path):
        # s0 and state 1 are transient; {2} and {3, 4, 5} are closed
        machine = MealyMachine(6, ((1, 2), (1, 3), (2, 2), (4, 4), (5, 5), (4, 3)), ((0, 1),) * 6)
        path = tmp_path / "two-classes.mealy"
        path.write_text(serialize_machine(machine))
        args = ["analyze", "-m", str(path), "--format", "json", "--out"]
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        plain = runner.invoke(main, args + [str(quiet)])
        verbose = runner.invoke(main, ["-v"] + args + [str(loud)])
        assert plain.exit_code == verbose.exit_code == 0
        assert quiet.read_bytes() == loud.read_bytes()
        assert json.loads(quiet.read_text())["result"]["stationary"]["exact"] == [
            "0/1", "0/1", "1/2", "1/10", "1/5", "1/5"]
        assert plain.stderr == ""
        assert verbose.stderr.splitlines() == [
            "mealypred.spectral: stationary law: 6 reachable states, closed classes "
            "of sizes [1, 3], 2 transient components, largest system 3"
        ]
        assert not logging.getLogger("mealypred").handlers

    def test_verbose_logs_count_kernel_and_keeps_report(self, runner, files, tmp_path):
        args = ["evaluate", "-m", files["demo8"], "-t", "70", "--method", "monte-carlo",
                "--samples", "100", "--seed", "3", "--format", "json", "--out"]
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        plain = runner.invoke(main, args + [str(quiet)])
        verbose = runner.invoke(main, ["-v"] + args + [str(loud)])
        assert plain.exit_code == verbose.exit_code == 0
        assert quiet.read_bytes() == loud.read_bytes()
        assert plain.stderr == ""
        assert verbose.stderr.splitlines() == [
            "mealypred.evaluation: count kernel, 100 samples, t=70: "
            "columns normalised at depths [52, 53, 63], ended on object"
        ]

    def test_config_round_trips(self, runner, files):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "10"])
        assert json.loads(json.dumps(report["config"])) == report["config"]

    def test_human_format_has_no_timestamp_by_default(self, runner, files):
        result = runner.invoke(main, ["run", "-m", files["const0"], "--input", "01"])
        assert "time:" not in result.output
        stamped = runner.invoke(
            main, ["run", "-m", files["const0"], "--input", "01", "--timestamps"]
        )
        assert "time:" in stamped.output

    def test_report_schema_is_fixed(self, runner, files):
        report = run_json(runner, ["evaluate", "-m", files["echo"], "-t", "8"])
        assert list(report) == ["tool", "version", "command", "config", "machines", "result"]
        assert list(report["machines"][0]) == ["path", "id", "states"]
        assert "workers" not in json.dumps(report)


class TestParser:
    """Each command line and the config it embeds, key order included."""

    @pytest.mark.parametrize("args, stdin, config", [
        (["run", "-m", "{echo}", "--input", "0110"], None,
         {"machine": "{echo}", "input": "0110"}),
        (["run", "--machine={echo}", "--input=@{tmp}/bits.txt"], None,
         {"machine": "{echo}", "input": "0110"}),
        (["run", "-m", "-", "--input", "01"], "machine",
         {"machine": "-", "input": "01"}),
        (["analyze", "--machine", "{echo}"], None, {"machine": "{echo}"}),
        (["predict", "-m", "{const0}", "--input", "111", "--predictor", "ensemble",
          "--candidates", "{const1}", "--candidates={const0}"], None,
         {"machine": "{const0}", "input": "111", "predictor": "ensemble",
          "candidates": ["{const1}", "{const0}"]}),
        (["predict", "-m", "{echo}", "--input", "-", "--predictor-machine", "{echo}"], "0110",
         {"machine": "{echo}", "input": "0110", "predictor": "consistency",
          "predictor_machine": "{echo}"}),
        (["evaluate", "-m", "{echo}", "-t", "6"], None,
         {"machine": "{echo}", "predictor": "consistency", "t": 6, "method": "exhaustive",
          "cap_t": 24, "per_step": False}),
        (["evaluate", "--machine", "{echo}", "--horizon=6", "--method", "monte-carlo",
          "--samples", "10", "--seed", "3", "--per-step", "--predictor", "known-state",
          "--cap-t=20", "--workers", "4"], None,
         {"machine": "{echo}", "predictor": "known-state", "t": 6, "method": "monte_carlo",
          "cap_t": 20, "per_step": True, "samples": 10, "seed": 3}),
        # a repeated option keeps its last value
        (["evaluate", "-m", "{altring}", "-t", "9", "--seed", "1", "--machine={echo}", "-t", "6",
          "--horizon=5", "--format", "human"], None,
         {"machine": "{echo}", "predictor": "consistency", "t": 5, "method": "exhaustive",
          "cap_t": 24, "per_step": False}),
        (["evaluate", "-m", "{echo}", "-t", "4", "--predictor", "automaton",
          "--predictor-machine", "{altring}"], None,
         {"machine": "{echo}", "predictor": "automaton", "t": 4, "method": "exhaustive",
          "cap_t": 24, "per_step": False, "predictor_machine": "{altring}"}),
        (["batch-select", "--candidates", "{const1}", "--candidates", "{const0}",
          "--training", "00", "--horizon", "4"], None,
         {"candidates": ["{const1}", "{const0}"], "training": "00", "horizon": 4,
          "weighting": "pairs"}),
        (["batch-select", "--candidates={echo}", "--training", "@{tmp}/bits.txt",
          "--horizon=6", "--machine-uniform"], None,
         {"candidates": ["{echo}"], "training": "0110", "horizon": 6,
          "weighting": "machines"}),
        (["enumerate", "-k", "1"], None, {"k": 1, "mode": "canonical", "count_only": False}),
        (["enumerate", "--states=2", "--mode", "strongly-connected", "--count-only",
          "--cap-k", "2"], None,
         {"k": 2, "mode": "strongly_connected", "count_only": True, "cap_k": 2}),
        (["search", "--target", "{altring}", "--target={echo}", "-k", "1", "-t", "4"], None,
         {"targets": ["{altring}", "{echo}"], "k": 1, "t": 4, "top_n": 10, "cap_t": 24}),
        (["search", "--target", "{echo}", "--states", "1", "--after-training",
          "@{tmp}/bits.txt", "--continuation", "2", "--top", "3"], None,
         {"targets": ["{echo}"], "k": 1, "t": 10, "top_n": 3, "cap_t": 24,
          "after_training": "0110", "continuation": 2}),
        (["search", "--target", "{echo}", "-k", "1", "--continuation", "2"], None,
         {"targets": ["{echo}"], "k": 1, "t": 10, "top_n": 10, "cap_t": 24}),
    ])
    def test_config_of_command_line(self, runner, files, tmp_path, args, stdin, config):
        (tmp_path / "bits.txt").write_text("0110\n")
        fill = {**files, "tmp": tmp_path}
        stdin = serialize_machine(constant_machine(1)) if stdin == "machine" else stdin
        result = runner.invoke(main, [a.format(**fill) for a in args] + ["--format", "json"],
                               input=stdin)
        assert result.exit_code == 0, result.output
        expected = {"command": args[0]}
        for key, value in config.items():
            expected[key] = ([v.format(**fill) for v in value] if isinstance(value, list)
                             else value.format(**fill) if isinstance(value, str) else value)
        assert list(json.loads(result.stdout)["config"].items()) == list(expected.items())

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_replay_embeds_the_config_it_reads(self, runner, files, tmp_path, source):
        config = {"command": "evaluate", "machine": files["echo"], "predictor": "always-1",
                  "t": 5, "method": "exhaustive", "cap_t": 24, "per_step": True}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args = ["replay", str(path) if source == "file" else "-", "--format", "json"]
        result = runner.invoke(main, args, input=json.dumps(config))
        assert result.exit_code == 0, result.output
        assert list(json.loads(result.stdout)["config"].items()) == list(config.items())

    @pytest.mark.parametrize("config", [
        {"command": "enumerate", "k": 1, "mode": "raw-ish", "count_only": True},
        {"command": "evaluate", "machine": "-", "predictor": "oracle", "t": 2},
        {"command": "batch-select", "candidates": ["-"], "training": "0", "horizon": 2,
         "weighting": "uniform"},
    ])
    def test_replay_unknown_choice_is_usage_error(self, runner, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        result = runner.invoke(main, ["replay", str(path)])
        assert result.exit_code == 2
        field = next(k for k in ("mode", "predictor", "weighting") if k in config)
        assert result.stderr.startswith(f"error: {path}: unknown {field} {config[field]!r}")

    @pytest.mark.parametrize("args, named", [
        (["analyze", "-m", "{echo}", "--tolerance", "1e-9"], "'--tolerance'"),
        # an unknown option is named before the missing -t/--horizon
        (["evaluate", "-m", "{echo}", "--hor", "12"], "'--hor'"),
        (["evaluate", "-m", "{echo}", "--hor=12"], "'--hor=12'"),
        (["evaluate", "-m", "{echo}"], "-t/--horizon"),
        (["batch-select", "--training", "0", "--horizon", "3"], "--candidates"),
        (["evaluate", "-m", "{echo}", "-t", "6", "--predictor", "oracle"], "'oracle'"),
        (["evaluate", "-m", "{echo}", "-t", "x"], "'x'"),
        # a value option given last
        (["evaluate", "-m", "{echo}", "-t"], "option -t expects a value"),
        (["evaluate", "-m", "{echo}", "-t", "6", "--out"], "option --out expects a value"),
        # a short spelling takes its value as the next argument only
        (["evaluate", "-m", "{echo}", "-t12"], "'-t12'"),
        (["evaluate", "-m", "{echo}", "-t=12"], "'-t=12'"),
        # -v and --version come before the command
        (["analyze", "-m", "{echo}", "-v"], "'-v'"),
        (["evaluate", "-m", "{echo}", "-t", "6", "--version"], "'--version'"),
        (["analyze", "-m", "{echo}", "--format", "yaml"], "'yaml'"),
        (["evaluate", "-m", "{echo}", "-t", "6", "--per-step=yes"], "'--per-step=yes'"),
        (["analyze", "-m", "{echo}", "extra"], "'extra'"),
        (["replay"], "CONFIG_FILE"),
        (["frobnicate"], "'frobnicate'"),
        ([], "COMMAND"),
    ])
    def test_usage_error(self, runner, files, args, named):
        # one line, naming the command and the argument at fault
        result = runner.invoke(main, [a.format(**files) for a in args])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        prog = " ".join(["mealypred"] + args[:1]) if args[:1] != ["frobnicate"] else "mealypred"
        [line] = result.stderr.splitlines()
        assert line.startswith(f"{prog}: error: ")
        assert named in line
        assert "Traceback" not in result.output

    def test_negative_value_reaches_the_library(self, runner, files):
        # a value may start with '-': -3 is the horizon, refused by evaluation itself
        result = runner.invoke(main, ["evaluate", "-m", files["echo"], "-t", "-3"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.splitlines() == ["error: horizon must be at least 1"]

    @pytest.mark.parametrize("command", sorted({c for f in _FIELDS for c in f.defaults}))
    def test_help_lists_every_option(self, runner, command):
        # one row per field, led by all its spellings, with its default when it has one
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        rows = result.stdout.splitlines()
        for f in (f for f in _FIELDS if command in f.defaults):
            [row] = [r for r in rows if r.startswith(f"  {', '.join(f.flags)} ")]
            default = f.defaults[command]
            if type(default) in (int, str):
                assert row.endswith(f" (default: {default})"), row

    @pytest.mark.parametrize("command", [[], ["run"], ["analyze"], ["predict"], ["evaluate"],
                                         ["batch-select"], ["enumerate"], ["search"], ["replay"]])
    def test_help(self, runner, command):
        result = runner.invoke(main, command + ["--help"])
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith(f"usage: {' '.join(['mealypred'] + command)} ")

    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.stdout == "mealypred, version 0.1.0\n"

    def test_main_ends_in_system_exit(self, tmp_path):
        out = tmp_path / "count.txt"
        with pytest.raises(SystemExit) as done:
            main.main(args=["enumerate", "-k", "1", "--count-only", "--out", str(out)],
                      prog_name="mealypred", standalone_mode=True)
        assert done.value.code == 0
        assert out.read_text() == "4\n"

    def test_import_leaves_click_out(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = "import sys, mealypred.cli; assert 'click' not in sys.modules, 'click imported'"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestCaps:
    """A cap past its default needs --i-know-this-is-big, on the command line
    and in a replayed config alike."""

    BIG_RAW = {"command": "enumerate", "k": 5, "mode": "raw", "cap_k": 5, "count_only": True}

    def _refused(self, runner, args):
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2, result.output
        assert "--i-know-this-is-big" in result.stderr
        assert result.stdout == ""

    def test_cap_k_past_the_raw_default_is_refused(self, runner):
        self._refused(runner, ["enumerate", "-k", "4", "--mode", "raw", "--cap-k", "4",
                               "--count-only"])

    def test_replayed_cap_k_past_the_raw_default_is_refused(self, runner, tmp_path):
        path = tmp_path / "big-raw.json"
        path.write_text(json.dumps(self.BIG_RAW))
        self._refused(runner, ["replay", str(path)])

    def test_acknowledged_cap_k_runs(self, runner, tmp_path):
        args = ["enumerate", "-k", "4", "--mode", "raw", "--cap-k", "4", "--count-only"]
        result = runner.invoke(main, args + ["--i-know-this-is-big"])
        assert result.exit_code == 0, result.output
        assert result.output == f"{8 ** 8}\n"
        path = tmp_path / "raw4.json"
        path.write_text(json.dumps({**self.BIG_RAW, "k": 4, "cap_k": 4}))
        replayed = run_json(runner, ["replay", str(path), "--i-know-this-is-big"])
        assert replayed["result"]["count"] == 8 ** 8

    def test_cap_k_within_the_canonical_default_needs_nothing(self, runner):
        args = ["enumerate", "-k", "2", "--cap-k", "4", "--count-only"]
        assert runner.invoke(main, args).exit_code == 0


# A config is drawn sound, then one or two of its fields are flawed or left
# out. Integers come from -3..40 or from 2**64 up, never between: a shift by
# about 2**32 allocates gigabytes before anything can refuse it. A sound state
# count skips 4, which every cap admits and which enumerates millions of
# machines.
_FUZZ_SOUND = {
    "int": st.integers(1, 40),
    "k": st.integers(1, 3),
    "machine": st.sampled_from(["{const0}", "{const1}", "{echo}", "{altring}"]),
    "bits": st.text("01", max_size=6),
}
_FUZZ_FLAWED = {
    "int": st.integers(-3, 40) | st.integers(2**64, 2**128),
    "k": st.integers(-3, 0) | st.integers(5, 40) | st.integers(2**64, 2**128),
    "machine": st.sampled_from(["{bad}", "{tmp}/missing.mealy", "-"]),
    "bits": st.sampled_from(["01x", "@{tmp}/missing", "-"]),
}
_FUZZ_JUNK = st.sampled_from(["7", None, [1], 2.5])  # of the wrong JSON type for any field
_FUZZ_COMMANDS = ("evaluate", "predict", "search", "batch-select", "enumerate")


def _fuzz_value(f, pool):
    """Values of config field ``f``, as a config holds them, from ``pool``."""
    if f.type is bool:
        return st.booleans()
    if f.choices:
        return st.sampled_from(list(f.choices.values()))
    kind = "k" if f.key == "k" else "int" if f.type is int else "bits" if f.bits else "machine"
    if f.type is list:
        return st.lists(pool[kind], min_size=int(pool is _FUZZ_SOUND), max_size=3)
    return pool[kind]


@st.composite
def _fuzz_config(draw, junk=False):
    """A command and its fields, one or two flawed (with ``junk``, perhaps
    of the wrong type) or left out."""
    command = draw(st.sampled_from(_FUZZ_COMMANDS))
    fields = [f for f in _FIELDS if command in f.defaults]
    flawed = draw(st.sets(st.sampled_from([f.key for f in fields]), max_size=2))
    config = {"command": command}
    for f in fields:
        if f.cap and f.key not in flawed:  # a sound cap is the default
            config.update({f.key: f.defaults[command]} if f.defaults[command] else {})
        elif f.key not in flawed:
            config[f.key] = draw(_fuzz_value(f, _FUZZ_SOUND))
        elif draw(st.booleans()):
            config[f.key] = draw(_fuzz_value(f, _FUZZ_FLAWED) | _FUZZ_JUNK if junk else _fuzz_value(f, _FUZZ_FLAWED))
    if command in ("evaluate", "predict"):  # sound predictor options go together
        predictor = config.get("predictor", "consistency")
        if "candidates" not in flawed and predictor != "ensemble":
            del config["candidates"]
        if "predictor_machine" not in flawed and (predictor not in ("consistency", "automaton")
                                                 or predictor == "consistency" and draw(st.booleans())):
            del config["predictor_machine"]
    return config


def _fuzz_argv(config) -> list[str]:
    """The command line that sets the fields of ``config``."""
    argv = [config["command"]]
    for f in _FIELDS:
        value = config.get(f.key)
        if f.key not in config or value is False:
            continue
        if f.choices:  # a choice whose option is a boolean is a flag
            option = next(o for o, v in f.choices.items() if v == value)
            argv += [] if option is False else [f.flags[-1]] if option is True else [f.flags[-1], option]
        elif value is True:
            argv.append(f.flags[-1])
        else:
            argv += [x for item in (value if f.type is list else [value]) for x in (f.flags[-1], str(item))]
    return argv


def _fuzz_filled(value, where):
    """``value`` with the paths of ``where`` filled in."""
    if isinstance(value, dict):
        return {k: _fuzz_filled(v, where) for k, v in value.items()}
    if isinstance(value, list):
        return [_fuzz_filled(v, where) for v in value]
    return value.format(**where) if isinstance(value, str) else value


class TestContractFuzz:
    """Whatever the command line or the replayed config, a command exits
    0, 2, 3 or 4 with no traceback. ``--i-know-this-is-big`` is never given:
    past the caps a horizon runs as long as it is asked to."""

    @pytest.fixture(scope="class")
    def where(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        for name, machine in [("const0", constant_machine(0)), ("const1", constant_machine(1)),
                              ("echo", echo_machine()), ("altring", alternating_ring())]:
            (d / f"{name}.mealy").write_text(serialize_machine(machine))
        (d / "bad.mealy").write_text("mealy 2\n")
        return {"tmp": str(d), "bad": str(d / "bad.mealy"),
                **{n: str(d / f"{n}.mealy") for n in ("const0", "const1", "echo", "altring")}}

    @staticmethod
    def _check(argv):
        result = CliRunner().invoke(main, argv)
        assert result.exit_code in (0, 2, 3, 4), (argv, result.exception, result.output)
        assert "Traceback" not in result.output

    @given(config=_fuzz_config(), verbose=st.booleans(), fmt=st.booleans())
    @example(config=_HUGE_CONFIGS[0], verbose=False, fmt=False)
    @example(config=_HUGE_CONFIGS[1], verbose=False, fmt=False)
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_command_line(self, where, config, verbose, fmt):
        argv = [a.format(**where) for a in _fuzz_argv(config)]
        self._check(["-v"] * verbose + argv + ["--format", "json"] * fmt)

    @given(config=_fuzz_config(junk=True))
    @example(config=_HUGE_CONFIGS[0])
    @example(config=_HUGE_CONFIGS[1])
    @settings(max_examples=250, derandomize=True, deadline=None)
    def test_replayed_config(self, where, config):
        path = f"{where['tmp']}/replayed.json"
        with open(path, "w") as fh:
            json.dump(_fuzz_filled(config, where), fh)
        self._check(["replay", path])


def _seeded(seed):
    rng = random.Random(seed)
    return random_machine(rng.randint(3, 8), rng)


GOLDEN_MONTE_CARLO = json.loads((Path(__file__).parent / "golden" / "monte_carlo.json").read_text())


class TestGoldenMonteCarlo:
    """Monte Carlo result blocks captured from the int64 count kernel that
    preceded the float64 one: each must come out as the same JSON text."""

    @pytest.fixture(scope="class")
    def machine_files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("golden")
        machines = {
            "eight_state_example": eight_state_example(),
            "seeded-141": _seeded(141),
            "seeded-154": _seeded(154),
            "alternating_ring": alternating_ring(),
            "echo_machine": echo_machine(),
        }
        for name, machine in machines.items():
            (d / f"{name}.mealy").write_text(serialize_machine(machine))
        return {name: str(d / f"{name}.mealy") for name in machines}

    @pytest.mark.parametrize("case", GOLDEN_MONTE_CARLO,
                             ids=[f"{c['machine']}-{c['predictor']}-t{c['t']}" for c in GOLDEN_MONTE_CARLO])
    def test_report_is_unchanged(self, runner, machine_files, case):
        args = ["evaluate", "-m", machine_files[case["machine"]], "--predictor", case["predictor"],
                "-t", str(case["t"]), "--method", "monte-carlo", "--samples", "200", "--seed", "11",
                "--per-step"]
        if case["predictor"] == "ensemble":
            for name in (case["machine"], "alternating_ring", "echo_machine"):
                args += ["--candidates", machine_files[name]]
        result = run_json(runner, args)["result"]
        assert json.dumps(result, indent=2) == json.dumps(case["result"], indent=2)


GOLDEN_HUMAN = json.loads((Path(__file__).parent / "golden" / "human.json").read_text())


class TestGoldenHuman:
    """Human-format output, one command line per report shape: each must print
    the same text and exit with the same code. Machine files are named by
    relative paths, so the text does not depend on where the test runs."""

    @pytest.fixture
    def workdir(self, runner, tmp_path, monkeypatch):
        for name, machine in [("demo8", eight_state_example()), ("echo", echo_machine()),
                              ("const0", constant_machine(0))]:
            (tmp_path / f"{name}.mealy").write_text(serialize_machine(machine))
        monkeypatch.chdir(tmp_path)
        for args in (["enumerate", "-k", "1", "--out", "enumerate.json"],
                     ["search", "-k", "1", "-t", "4", "--target", "demo8.mealy", "--out", "search.json"]):
            assert runner.invoke(main, args + ["--format", "json"]).exit_code == 0

    @pytest.mark.parametrize("case", GOLDEN_HUMAN, ids=[c["name"] for c in GOLDEN_HUMAN])
    def test_output_is_unchanged(self, runner, workdir, case):
        result = runner.invoke(main, case["argv"])
        assert (result.exit_code, result.stdout) == (case["exit_code"], case["stdout"])


def _written(value) -> str:
    parts = []
    _write_json(value, parts)
    return "".join(parts)


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
            | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"),
                               "\u00e9\u2603\U0001f600", "\x00\x1f\x7f\"\\"]))


def _containers(inner):
    return (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
            | st.dictionaries(st.text(), inner, max_size=5))


_JSON_VALUES = st.recursive(_SCALARS, _containers, max_leaves=40)


class TestReportWriter:
    """The one-pass report writer gives the bytes of json.dumps(indent=2)."""

    @given(_JSON_VALUES)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matches_json_dumps(self, value):
        assert _written(value) == json.dumps(value, indent=2)

    def test_empty_and_nested_containers(self):
        for value in ([], {}, (), [[]], {"a": {}}, [(), [{}]], {"x": [1, {"y": ()}]}, [-0.0, 1e300, 10**40]):
            assert _written(value) == json.dumps(value, indent=2)

    def test_float_subclasses_as_floats(self):
        # numpy's float64 is a float subclass, which json.dumps writes by float.__repr__
        value = {"a": np.float64(0.1), "b": [np.float64("nan"), np.float64(-np.inf), 2], "c": [np.float64(1e-7)]}
        assert _written(value) == json.dumps(value, indent=2)
        assert _written(np.float64(0.5)) == "0.5"

    @pytest.mark.parametrize("name", ["human.json", "monte_carlo.json"])
    def test_matches_json_dumps_on_golden_files(self, name):
        cases = json.loads((Path(__file__).parent / "golden" / name).read_text())
        for value in [cases] + cases + [c["result"] for c in cases if "result" in c]:
            assert _written(value) == json.dumps(value, indent=2)

    def test_refuses_what_json_refuses(self):
        for value in ({1, 2}, [b"x"], {"a": object()}):
            with pytest.raises(TypeError):
                json.dumps(value, indent=2)
            with pytest.raises(TypeError):
                _written(value)

    def test_report_file_is_json_dumps_text(self, runner, tmp_path):
        path = tmp_path / "demo8.mealy"
        path.write_text(serialize_machine(eight_state_example()))
        out = tmp_path / "report.json"
        args = ["evaluate", "-m", str(path), "-t", "8", "--per-step", "--format", "json", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        text = out.read_bytes().decode("ascii")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
