"""Command-line behavior: formats, exit codes, reproducibility."""

import json
import logging

import pytest
from click.testing import CliRunner

from mealypred import serialize_machine
from mealypred.cli import main
from mealypred.machines import (
    alternating_ring,
    constant_machine,
    echo_machine,
    eight_state_example,
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

    def test_cap_refusal(self, runner):
        result = runner.invoke(main, ["enumerate", "-k", "6", "--count-only"])
        assert result.exit_code == 3

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

    def test_pair_budget_refused(self, runner, files):
        result = runner.invoke(
            main,
            ["batch-select", "--candidates", files["const0"], "--candidates",
             files["const1"], "--training", "0", "--horizon", "27"],
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "refused: 2 machines x 2**26 continuations exceeds the pair budget of 2**26"
        ]


class TestSearchCmd:
    def test_search_report(self, runner, files):
        report = run_json(
            runner, ["search", "--target", files["altring"], "-k", "2", "-t", "8"]
        )
        assert report["result"]["best_score_float"] <= 0.125
        assert "mealy 2" in report["result"]["best_machine"]

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

    def test_verbose_logs_walk_counters_and_keeps_report(self, runner, files, tmp_path):
        args = ["evaluate", "-m", files["demo8"], "-t", "12", "--format", "json", "--out"]
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        plain = runner.invoke(main, args + [str(quiet)])
        verbose = runner.invoke(main, ["-v"] + args + [str(loud)])
        assert plain.exit_code == verbose.exit_code == 0
        assert quiet.read_bytes() == loud.read_bytes()
        assert plain.stderr == ""
        assert verbose.stderr.splitlines() == [
            "mealypred.evaluation: exact walk, t=12: 22 nodes interned, "
            "peak frontier 46 (node, state) pairs"
        ]
        assert not logging.getLogger("mealypred").handlers

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
