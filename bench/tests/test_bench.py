"""Tests of the benchmark itself (not of mealypred).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from tracer import Tracer  # noqa: E402

import mealypred.cli  # noqa: E402
import mealypred.spectral  # noqa: E402


def _sample(workload: workloads.Workload, count: int) -> list[workloads.Op]:
    """The first ``count`` ops of each kind of check, replays of them included."""
    taken: dict[str, int] = {}
    chosen = []
    for op in workload.ops:
        if op.check == "replay":
            continue
        if taken.get(op.check, 0) < count:
            taken[op.check] = taken.get(op.check, 0) + 1
            chosen.append(op)
    ids = {op.op_id for op in chosen}
    chosen += [op for op in workload.ops
               if op.check == "replay" and op.params["source"] in ids]
    return chosen


def _digests(result: harness.Pass) -> dict[str, str]:
    return {k: hashlib.sha256(v).hexdigest() for k, v in result.reports.items()}


def _run(name: str, seed: int, ops=None, tracer=None):
    setup = harness.Setup(name, seed)
    try:
        ops = ops if ops is not None else _sample(workloads.build(name, seed), 2)
        return ops, harness.run_pass(ops, tracer), setup.workload
    finally:
        setup.close()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_ops_and_digests(name):
    a = workloads.build(name, 7)
    b = workloads.build(name, 7)
    assert a.ops == b.ops
    assert a.machines == b.machines
    ops, first, _ = _run(name, 7)
    _, second, _ = _run(name, 7, ops)
    assert all(code == 0 for code in first.codes + second.codes)
    assert _digests(first) == _digests(second)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_other_ops(name):
    a = workloads.build(name, 1)
    b = workloads.build(name, 2)
    assert a.machines != b.machines  # the seed draws the inputs...
    assert len(a.ops) == len(b.ops)  # ...but not the op mix


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_gate_accepts_seed_results(name):
    ops, result, workload = _run(name, 3)
    failed, problems = harness.failures(ops, [result], Gate(workload))
    assert failed == 0, problems


def test_traced_counts_repeat_exactly():
    spec = harness.load_spec()
    counted = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    seen = []
    for name in workloads.WORKLOADS:
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                _run(name, 5, tracer=tracer)
            finally:
                tracer.uninstall()
            values = harness.layer_metrics(tracer, counted)
            seen.append((name, values))
    for (n1, v1), (n2, v2) in zip(seen[::2], seen[1::2]):
        assert v1 == v2, n1
    census = seen[0][1]
    assert census["spectral.stationary_frequencies.calls"] > 0
    assert census["evaluation.evaluate_monte_carlo.sample_steps"] > 0
    search = seen[4][1]
    assert search["enumeration.enumerate_machines.yielded"] > 0
    assert search["automaton.serialize_machine.calls"] > 0


def test_tracer_restores_the_library():
    before = mealypred.cli.evaluate_exhaustive
    tracer = Tracer()
    tracer.install()
    assert mealypred.cli.evaluate_exhaustive is not before
    tracer.uninstall()
    assert mealypred.cli.evaluate_exhaustive is before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["cli", 0.0, 10.0, -1, "op", 1], ["a", 1.0, 5.0, 0, "op", 1],
                    ["b", 2.0, 3.0, 1, "op", 1]]
    assert tracer.self_times() == {"cli": 6.0, "a": 3.0, "b": 1.0}


def test_corrupted_result_is_a_failed_op(monkeypatch):
    real = mealypred.spectral.stationary_frequencies

    def skewed(machine, *args):
        result = real(machine, *args)
        weights = list(result.weights)
        if len(weights) > 1:
            weights[0], weights[-1] = weights[-1], weights[0]
        return type(result)(tuple(weights), result.method, result.residual, result.iterations)

    ops = [op for op in workloads.build("census", 4).ops if op.check == "analyze"]
    _, clean, workload = _run("census", 4, ops)
    monkeypatch.setattr(mealypred.cli, "stationary_frequencies", skewed)
    _, bad, _ = _run("census", 4, ops)
    gate = Gate(workload)
    assert harness.failures(ops, [clean], gate)[0] == 0
    failed, problems = harness.failures(ops, [bad], gate)
    assert failed > 0
    assert any("fixed point" in " ".join(p) for p in problems.values())
    # a report that changes between passes fails too
    bad.same = [clean.reports[op.op_id] == bad.reports[op.op_id] for op in ops]
    bad.reports = {}
    assert harness.failures(ops, [clean, bad], gate)[0] == bad.same.count(False)


def test_corrupted_exact_error_is_caught():
    ops, result, workload = _run("deep-eval", 2, [
        op for op in workloads.build("deep-eval", 2).ops if op.op_id == "g4.known-state"])
    report = json.loads(result.reports["g4.known-state"])
    num, den = report["result"]["e_ave"].split("/")
    report["result"]["e_ave"] = f"{int(num) + 1}/{den}"
    bad = json.dumps(report).encode()
    assert Gate(workload).check(ops[0], bad, {}) != []


def test_benchmark_json_matches_the_harness():
    spec = harness.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
