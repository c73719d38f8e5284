"""Benchmark entry point for mealypred.

    python3 bench/run.py --workload census --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 10

With ``--workload`` it runs one workload and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``. With ``--all`` it runs every workload, untraced
and traced, and prints every metric by name with its unit.

Run it from anywhere; it works on the checkout that contains it. It uses only
the standard library and starts each measured workload in a fresh Python
process (``harness.py``), so imports and peak memory belong to the workload.
Set-up time is measured from process start to the first timed op, over
several such processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
SETUP_RUNS = 5  # processes whose set-up time is measured, the measured run included
DEADLINE_S = 170  # one workload run, set-ups and gate included
REQUIRED = ("BENCHMARK.json", "src/mealypred/cli.py", "tests/oracles.py")


class BenchError(RuntimeError):
    pass


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _child(args: list[str], timeout: float) -> tuple[float, list[str], dict | None]:
    """Run harness.py; return its set-up time, its note lines and its JSON result."""
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    cmd = [sys.executable, HARNESS] + args
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"harness did not finish within {timeout:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"harness failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    if not ready:
        raise BenchError("harness never reported the end of set-up")
    setup = float(ready[0].split()[1]) - start
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    notes = [ln for ln in lines[:-1] if not ln.startswith("ready ")]
    return setup, notes, result


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> tuple[dict, list[str]]:
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        _, notes, result = _child(base + ["--trace", "1"], deadline - time.monotonic())
        return result, notes
    setups = []
    for _ in range(SETUP_RUNS - 1):
        setup, _, _ = _child(base + ["--setup-only"], deadline - time.monotonic())
        setups.append(setup)
    setup, notes, result = _child(base + ["--trace", "0"], deadline - time.monotonic())
    setups.append(setup)
    result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    notes.append(f"setup_s is the median of {len(setups)} processes: "
                 + ", ".join(f"{s:.4f}" for s in setups))
    return result, notes


def _ordered(metrics: dict, spec: list[dict]) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics missing from the run: {missing}")
    return {m["name"]: metrics[m["name"]] for m in spec}


def environment(seed: int, versions: dict) -> str:
    return (f"seed {seed}  git {git_sha()}  nproc {os.cpu_count()}  "
            f"python {versions.get('python')}  numpy {versions.get('numpy')}  "
            f"click {versions.get('click')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mealypred benchmark")
    parser.add_argument("--workload", help="a workload named in BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload or --all")
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"error: {ROOT} is not a mealypred checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    start = time.monotonic()
    try:
        if args.all:
            return run_all(args.seed, args.seconds, spec)
        result, notes = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                     start + DEADLINE_S)
        metrics = _ordered(result["metrics"], spec["per_layer" if args.trace else "end_to_end"])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(environment(args.seed, result.get("versions", {})))
    for note in notes:
        print(f"{args.workload}: {note}")
    print(json.dumps({
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(seed: int, seconds: float, spec: dict) -> int:
    """Every workload, untraced then traced, each in fresh processes."""
    correct = True
    versions = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, notes = run_workload(workload, seed, seconds, trace,
                                         time.monotonic() + DEADLINE_S)
            versions = result.get("versions", versions)
            metrics = _ordered(result["metrics"], spec["per_layer" if trace else "end_to_end"])
            correct &= result["failed"] == 0
            print(f"== {workload} ({'traced' if trace else 'untraced'}): "
                  f"{result['attempted']} ops attempted, {result['failed']} failed")
            for note in notes:
                print(f"   {note}")
            for name, m in metrics.items():
                print(f"   {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(environment(seed, versions))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
