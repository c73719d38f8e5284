"""End-to-end acceptance suite.

One test per acceptance check, each printing a single PASS/FAIL line (run
with ``pytest tests/test_acceptance.py -v -s`` to watch them). Several checks
sweep every canonical machine with up to three states, so the module takes a
few minutes.

Check 05 pins the known-state error to its floor exactly. The floor from
``stationary_frequencies`` must match the exact Cesàro floor of
``oracles.cesaro_limit_and_fundamental`` within the solver's fixed-point
slack (1e-9). At t = 8, 10, 12 the engine's exact error must satisfy the
fundamental-matrix identity t (e(t) - floor) = (Z u)[s0] - (delta_s0 P^t) Z u
as an equality of rationals, so its gap to the floor is at most
2 max|Z u| / t. No fixed gap at one horizon and no monotone approach is
asserted: transient unbiased states keep the gap near ((Z u)[s0] - floor) / t
(0.23 at t = 12 for the worst 3-state machine), and periodic chains make it
oscillate. The check prints how many machines show either, as the transient
term predicts.
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

import oracles
from mealypred import (
    Bits,
    ConsistencyPredictor,
    KnownStatePredictor,
    AutomatonPredictor,
    enumerate_machines,
    evaluate_exhaustive,
    find_selection_witness,
    orbit_size,
    perfect_knowledge_error_bound,
    raw_machine_count,
    search_best_predictor,
    serialize_machine,
    stationary_frequencies,
)
from mealypred.cli import main as cli_main
from mealypred.enumeration import is_strongly_connected
from mealypred.machines import (
    alternating_ring,
    echo_machine,
    eight_state_example,
    random_machine,
    ring_machine,
)
from mealypred.spectral import DEFAULT_TOLERANCE, _FIXED_POINT_SLACK


def _report(name: str, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def canonical_small():
    machines = []
    for k in (1, 2, 3):
        machines.extend(enumerate_machines(k, "canonical"))
    return machines


@dataclass
class SweepStats:
    machines: int = 0
    prefixes: int = 0
    vector_mismatches: int = 0
    count_mismatches: int = 0
    prediction_mismatches: int = 0
    min_rule_positions: int = 0
    min_rule_violations: int = 0
    examples: list = field(default_factory=list)


@pytest.fixture(scope="module")
def consistency_sweep(canonical_small):
    """Drive the real consistency predictor over every realizable output
    prefix (inputs up to length 10) of every canonical machine with at most
    three states, comparing against plain input enumeration at each node."""
    t_max, t_min_rule = 10, 8
    stats = SweepStats()
    for machine in canonical_small:
        levels = oracles.level_tables(machine, t_max)
        sums = [
            {key: sum(row) for key, row in level.items()} for level in levels
        ]
        predictor = ConsistencyPredictor(machine)
        predictor.reset()
        stack = [(0, 0, None)]  # (key, depth, snapshot-to-restore-after)

        def check(key, depth):
            stats.prefixes += 1
            if predictor.consistency_vector != levels[depth][key]:
                stats.vector_mismatches += 1
                stats.examples.append(("vector", machine, depth, key))
            if depth >= t_max:
                return
            n0 = sums[depth + 1].get(key * 2, 0)
            n1 = sums[depth + 1].get(key * 2 + 1, 0)
            if predictor.pending_counts() != (n0, n1):
                stats.count_mismatches += 1
                stats.examples.append(("counts", machine, depth, key))
            pred = predictor.predict()
            if pred != (0 if n0 >= n1 else 1):
                stats.prediction_mismatches += 1
                stats.examples.append(("prediction", machine, depth, key))
            if depth < t_min_rule:
                stats.min_rule_positions += 1
                class_errors = n1 if pred == 0 else n0
                if class_errors != min(n0, n1):
                    stats.min_rule_violations += 1
                    stats.examples.append(("min-rule", machine, depth, key))

        def walk(key, depth):
            check(key, depth)
            if depth >= t_max:
                return
            for bit in (0, 1):
                child = key * 2 + bit
                if child in levels[depth + 1]:
                    snap = predictor.snapshot()
                    predictor.observe(bit)
                    walk(child, depth + 1)
                    predictor.restore(snap)

        walk(0, 0)
        stats.machines += 1
    return stats


def test_a01_fixed_machine_trace():
    machine = eight_state_example()
    t0 = time.perf_counter()
    out, path = machine.run_with_states("001111")
    elapsed_ms = (time.perf_counter() - t0) * 1000
    ok = str(out) == "000100" and path == (0, 1, 4, 5, 7, 0, 2)
    runner = CliRunner()
    result = runner.invoke(
        cli_main, ["run", "-m", "-", "--input", "001111", "--format", "json"],
        input=serialize_machine(machine),
    )
    report = json.loads(result.output)
    ok = ok and report["result"]["output"] == "000100"
    ok = ok and report["result"]["state_path"] == [0, 1, 4, 5, 7, 0, 2]
    _report("01 fixed-machine trace", ok, f"({elapsed_ms:.3f} ms)")


def test_a02_consistency_matches_enumeration(consistency_sweep):
    s = consistency_sweep
    bad = s.vector_mismatches + s.count_mismatches + s.prediction_mismatches
    _report(
        "02 consistency counts vs enumeration",
        bad == 0,
        f"({s.machines} machines, {s.prefixes} prefixes checked; "
        f"vector/count/prediction mismatches: {s.vector_mismatches}/"
        f"{s.count_mismatches}/{s.prediction_mismatches})",
    )


def test_a03_min_rule_identity(consistency_sweep):
    s = consistency_sweep
    _report(
        "03 class errors equal min(#p,#q)",
        s.min_rule_violations == 0,
        f"({s.min_rule_positions} class positions checked)",
    )


def test_a04_stationary_matches_enumeration():
    horizon = 14
    rng = random.Random(2024)
    machines = [ring_machine("0" * k) for k in range(1, 7)]
    while len(machines) < 56:
        m = random_machine(rng.randint(2, 6), rng)
        if is_strongly_connected(m):
            machines.append(m)
    worst = 0.0
    for m in machines:
        sv = stationary_frequencies(m, tolerance=0.0, max_iterations=horizon)
        emp = oracles.visit_frequencies(m, horizon)
        worst = max(worst, float(np.max(np.abs(np.asarray(sv.weights) - emp))))
    _report(
        "04 stationary vs visit enumeration",
        worst <= 1e-3,
        f"({len(machines)} machines incl. rings 1..6, worst entry dev {worst:.2e})",
    )


def test_a05_known_state_error_approaches_bound(canonical_small):
    horizons = (8, 10, 12)
    slack = _FIXED_POINT_SLACK * DEFAULT_TOLERANCE
    floor_violations = identity_violations = approach_violations = 0
    above_002 = non_monotone = 0
    worst_floor_dev = 0.0
    worst = (Fraction(0), None)  # largest gap at t=12 and its machine
    laws = {}  # the law depends on transitions, start and unbiased states alone
    for m in canonical_small:
        key = (m.transition, m.initial_state, tuple(a != b for a, b in m.output))
        if key not in laws:
            laws[key] = oracles.known_state_transient_law(m, horizons)
        floor, transient, cap = laws[key]
        bound = perfect_knowledge_error_bound(m, stationary_frequencies(m))
        floor_dev = abs(Fraction(bound) - floor)
        worst_floor_dev = max(worst_floor_dev, float(floor_dev))
        floor_violations += floor_dev > slack
        gaps = []
        for t in horizons:
            error = t * evaluate_exhaustive(m, KnownStatePredictor(m), t).e_ave
            excess = error - t * floor
            identity_violations += excess != transient[t]
            approach_violations += abs(excess) > cap
            gaps.append(abs(excess) / t)
        above_002 += gaps[-1] > Fraction(1, 50)
        if gaps[-1] > worst[0]:
            worst = (gaps[-1], m)
        non_monotone += not (gaps[0] >= gaps[1] >= gaps[2])
    detail = (
        f"({len(canonical_small)} machines at t={horizons}; floors off by more "
        f"than {slack:.0e}: {floor_violations}, worst {worst_floor_dev:.1e}; "
        f"transient-term identity mismatches {identity_violations}, gaps above "
        f"2max|Zu|/t {approach_violations}; explained by the transient term: "
        f"{above_002} above 0.02 at t=12, {non_monotone} non-monotone, largest "
        f"gap {float(worst[0]):.3f}"
    )
    if worst[1] is not None:
        detail += f" at transition={worst[1].transition} output={worst[1].output}"
    detail += ")"
    _report(
        "05 known-state error approaches bound",
        floor_violations == 0 and identity_violations == 0 and approach_violations == 0,
        detail,
    )


def test_a06_unpredictable_source_floor():
    echo = echo_machine()
    t = 12
    scores = {
        "consistency": evaluate_exhaustive(echo, ConsistencyPredictor(echo), t).e_ave,
        "known-state": evaluate_exhaustive(echo, KnownStatePredictor(echo), t).e_ave,
    }
    for k in (1, 2):
        for i, m in enumerate(enumerate_machines(k, "canonical")):
            scores[f"automaton-k{k}-{i:03d}"] = evaluate_exhaustive(
                echo, AutomatonPredictor(m), t
            ).e_ave
    off = {name: float(s) for name, s in scores.items() if abs(s - Fraction(1, 2)) > Fraction(1, 50)}
    _report(
        "06 unpredictable source pins every predictor at 1/2",
        not off,
        f"({len(scores)} predictors at t={t}; outliers: {off or 'none'})",
    )


def test_a07_enumeration_counts():
    ok = True
    details = []
    for k in (1, 2):
        raw = sum(1 for _ in enumerate_machines(k, "raw"))
        ok = ok and raw == raw_machine_count(k)
        details.append(f"raw k={k}: {raw}")
        orbit_total = sum(orbit_size(m) for m in enumerate_machines(k, "canonical"))
        ok = ok and orbit_total == raw_machine_count(k)
    canon3 = list(enumerate_machines(3, "canonical"))
    orbit3 = sum(orbit_size(m) for m in canon3)
    ok = ok and orbit3 == raw_machine_count(3)
    details.append(f"canonical k=3: {len(canon3)}, orbits sum to {orbit3}")
    _report("07 enumeration counts", ok, f"({'; '.join(details)})")


def test_a08_selection_witness():
    witness = find_selection_witness(
        max_states=2, max_training_len=6, continuation=4
    )
    detail = "(none found)"
    if witness is not None:
        chosen = witness.selection.scores[witness.selection.best_index]
        detail = (
            f"(training {witness.training}, selected {chosen.label} with "
            f"{chosen.training_errors} training errors vs minimum "
            f"{witness.min_training_errors})"
        )
    _report("08 selection can ignore training error", witness is not None, detail)


def test_a09_search_sanity():
    res = search_best_predictor([alternating_ring()], 2, 10)
    ok = res.best_score <= Fraction(1, 10)
    rng = random.Random(501)
    mono_bad = 0
    for _ in range(20):
        target = random_machine(rng.randint(1, 3), rng)
        b1 = search_best_predictor([target], 1, 10).best_score
        b2 = search_best_predictor([target], 2, 10).best_score
        if b2 > b1:
            mono_bad += 1
    _report(
        "09 search finds the alternator and respects budgets",
        ok and mono_bad == 0,
        f"(alternating-ring best {res.best_score}; budget violations {mono_bad}/20)",
    )


def test_a10_report_determinism(tmp_path):
    runner = CliRunner()
    echo_path = tmp_path / "echo.mealy"
    echo_path.write_text(serialize_machine(echo_machine()))
    ring_path = tmp_path / "ring.mealy"
    ring_path.write_text(serialize_machine(alternating_ring()))
    ok = True
    checks = [
        ["evaluate", "-m", str(echo_path), "--predictor", "known-state", "-t", "12"],
        ["evaluate", "-m", str(echo_path), "--method", "monte-carlo", "-t", "16",
         "--samples", "500", "--seed", "3"],
        ["search", "--target", str(ring_path), "-k", "2", "-t", "8"],
        ["enumerate", "-k", "2", "--mode", "canonical"],
    ]
    for args in checks:
        outs = set()
        for workers in ("1", "8", "1"):
            extra = ["--workers", workers] if args[0] in ("evaluate", "search") else []
            result = runner.invoke(cli_main, args + extra + ["--format", "json"])
            assert result.exit_code == 0, result.output
            outs.add(result.output)
        ok = ok and len(outs) == 1
    _report("10 reports byte-identical across runs and workers", ok)
