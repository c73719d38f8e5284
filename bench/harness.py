"""One workload in one process: set up, run timed passes, check, report.

Run by ``run.py`` as a child process so that import cost and peak memory
belong to the workload::

    python3 bench/harness.py --workload census --seed 1 --seconds 10 --trace 0

Every op is one ``mealypred`` command run in this process through
``mealypred.cli.main``, one after another from a single thread (a closed loop
with one client). A pass runs the workload's whole op list; passes repeat
until ``--seconds`` is used up. The correctness gate runs after the timed
passes.

Output lines: ``ready <CLOCK_MONOTONIC seconds>`` when set-up ends (the first
timed op starts right after), human-readable notes, and a final JSON object.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _p in (os.path.join(ROOT, "tests"), os.path.join(ROOT, "src"), HERE):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import click  # noqa: E402,F401  (imported here so set-up time includes it)
import numpy  # noqa: E402

import mealypred.cli  # noqa: E402  (imports every library module)
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from tracer import ENGINE_PATHS, Tracer  # noqa: E402

WORK_ROOT = os.path.join(ROOT, ".bench_build")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def invoke(argv) -> int:
    """Run one CLI command exactly as the ``mealypred`` script does; return its exit code."""
    try:
        mealypred.cli.main.main(args=list(argv), prog_name="mealypred", standalone_mode=True)
    except SystemExit as e:
        if e.code is None:
            return 0
        return e.code if isinstance(e.code, int) else 1
    return 0


def _out_path(argv) -> str:
    return argv[list(argv).index("--out") + 1]


@dataclass
class Pass:
    """One run of the op list. Only the first pass keeps its reports; later
    passes keep whether each report was byte-identical to the first one, so
    memory does not grow with the number of passes."""

    latencies: list[float] = field(default_factory=list)
    codes: list[int] = field(default_factory=list)
    reports: dict[str, bytes] = field(default_factory=dict)
    same: list[bool] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(ops, tracer: Tracer | None = None, first: Pass | None = None) -> Pass:
    """Run every op once, in order. Only the CLI call itself is timed."""
    result = Pass()
    for op in ops:
        out = _out_path(op.argv)
        if os.path.exists(out):
            os.remove(out)
        if tracer is not None:
            tracer.start_op(op.op_id)
        t0 = time.perf_counter()
        code = invoke(op.argv)
        t1 = time.perf_counter()
        data = b""
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
        if tracer is not None:
            tracer.end_op(len(data), t1)
        result.latencies.append(t1 - t0)
        result.codes.append(code)
        if first is None:
            result.reports[op.op_id] = data
        result.same.append(first is None or first.reports[op.op_id] == data)
    return result


def failures(ops, passes: list[Pass], gate: Gate) -> tuple[int, dict[str, list[str]]]:
    """Failed op runs over all passes, and the problems found per op.

    An op run fails on a nonzero exit code, on a report that differs from
    the op's first report, or when the first report fails the gate.
    """
    first = passes[0]
    problems: dict[str, list[str]] = {}
    for op, code in zip(ops, first.codes):
        found = [f"exit code {code}"] if code else gate.check(op, first.reports[op.op_id],
                                                                first.reports)
        if found:
            problems[op.op_id] = found
    gate_failed = set(problems)
    failed = 0
    for p in passes:
        for op, code, same in zip(ops, p.codes, p.same):
            failed += bool(code or op.op_id in gate_failed or not same)
            if not same and "report differs from the first pass" not in problems.get(op.op_id, []):
                problems.setdefault(op.op_id, []).append("report differs from the first pass")
    return failed, problems


def op_latencies(passes: list[Pass]) -> list[float]:
    """Each op's least latency over the passes.

    The host's cores are shared, and its speed switches between fast and
    slow phases (the same op can take 60% longer in one pass than in the
    next). Noise only adds time, so an op's fastest run is the estimate that
    repeats, provided passes are short enough that every op is timed in
    some fast phase.
    """
    return [min(lat) for lat in zip(*(p.latencies for p in passes))]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile leaving at least ten of one pass's ops above it."""
    return math.floor(100 * (ops_per_pass - 10) / ops_per_pass)


def percentile(samples: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Setup:
    """Inputs generated from the seed, written to a private directory and warmed up."""

    def __init__(self, workload: str, seed: int):
        self.workload = workloads.build(workload, seed)
        self.directory = os.path.join(WORK_ROOT, f"{workload}-s{seed}-p{os.getpid()}")
        os.makedirs(self.directory)
        workloads.write_inputs(self.workload, self.directory)
        with open(os.path.join(self.directory, "warm.mealy"), "w", encoding="utf-8") as fh:
            fh.write(workloads.WARMUP_MACHINE.text())
        self._cwd = os.getcwd()
        os.chdir(self.directory)
        for op in workloads.warmup_ops():
            if invoke(op.argv) != 0:
                raise RuntimeError(f"warm-up op {op.op_id} failed")

    def close(self) -> None:
        os.chdir(self._cwd)
        shutil.rmtree(self.directory, ignore_errors=True)


def _passes_until(seconds: float, run) -> None:
    """Call ``run()`` (one pass, returning its wall time) until ``seconds`` are used."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(run())
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return


def measure(setup: Setup, seconds: float) -> dict:
    ops = setup.workload.ops
    passes: list[Pass] = []

    def one():
        passes.append(run_pass(ops, first=passes[0] if passes else None))
        return passes[-1].wall

    _passes_until(seconds, one)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed, problems = failures(ops, passes, Gate(setup.workload))
    latency = op_latencies(passes)
    tail_p = tail_percentile(len(ops))
    attempted = len(ops) * len(passes)
    notes = [
        f"passes {len(passes)} x {len(ops)} ops; pass wall times "
        + ", ".join(f"{p.wall:.4f}" for p in passes),
        f"op_tail_ms is p{tail_p} over the {len(ops)} ops' least latencies",
        f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted})",
    ]
    notes += [f"FAILED {op_id}: {'; '.join(msgs)}" for op_id, msgs in problems.items()]
    metrics = {
        "wall_s": (sum(latency), "s"),
        "op_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "op_tail_ms": (percentile(latency, tail_p) * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Value of each per-layer metric from one traced pass's spans and counts."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    values = {}
    for name in names:
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif kind == "calls" and base in calls:
            values[name] = calls[base]
        else:
            values[name] = tracer.counts.get(name, 0)
    return values


def measure_traced(setup: Setup, seconds: float, spec: dict, span_file: str) -> dict:
    """Alternate untraced and traced passes; per-layer values are per pass."""
    ops = setup.workload.ops
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    untraced: list[Pass] = []
    traced: list[Pass] = []
    tracers: list[Tracer] = []

    def one():
        untraced.append(run_pass(ops, first=untraced[0] if untraced else None))
        tracers.append(Tracer())
        tracers[-1].install()
        try:
            traced.append(run_pass(ops, tracers[-1], first=untraced[0]))
        finally:
            tracers[-1].uninstall()
        return untraced[-1].wall + traced[-1].wall

    _passes_until(seconds, one)
    tracers[-1].write(span_file)
    failed, problems = failures(ops, untraced + traced, Gate(setup.workload))
    per_pass = [layer_metrics(t, [n for n, _ in layers]) for t in tracers]
    overhead = sum(op_latencies(traced)) - sum(op_latencies(untraced))
    engines = tracers[0].counts
    notes = [
        f"passes {len(traced)} traced, {len(untraced)} untraced, {len(ops)} ops each",
        f"tracing overhead {overhead:.4f} s (traced wall_s - untraced wall_s)",
        "engine paths (ops per pass): "
        + ", ".join(f"{e} {engines.get(f'engine.{e}_ops', 0)}" for e in ENGINE_PATHS),
        f"spans of the last traced pass written to {os.path.relpath(span_file, ROOT)}",
    ]
    differ = [n for n, u in layers if u != "s" and len({p[n] for p in per_pass}) > 1]
    if differ:
        notes.append(f"WARNING counts differ between traced passes: {differ}")
    notes += [f"FAILED {op_id}: {'; '.join(msgs)}" for op_id, msgs in problems.items()]
    metrics = {}
    for name, unit in layers:
        values = [p[name] for p in per_pass]
        metrics[name] = (statistics.median(values) if unit == "s" else values[0], unit)
    attempted = 2 * len(ops) * len(traced)
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    setup = Setup(args.workload, args.seed)
    try:
        print(f"ready {time.monotonic():.9f}", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            span_dir = os.path.join(WORK_ROOT, "spans")
            os.makedirs(span_dir, exist_ok=True)
            span_file = os.path.join(span_dir, f"{args.workload}-s{args.seed}.jsonl")
            out = measure_traced(setup, args.seconds, spec, span_file)
        else:
            out = measure(setup, args.seconds)
    finally:
        setup.close()
    for note in out["notes"]:
        print(note)
    print(json.dumps({
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "click": importlib.metadata.version("click")},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
