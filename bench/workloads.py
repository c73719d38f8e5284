"""Seeded op lists for the benchmark workloads.

A workload is a list of ``Op``: one ``mealypred`` CLI command each, with the
machine files and bit strings it reads. Everything is drawn from
``random.Random`` seeded with the workload name and the seed, so the same
seed gives the same files and the same op list on every run. The seed picks
machine tables, training bits and sampler seeds; the op mix, state counts and
horizons are fixed per workload, so the amount of work a pass does barely
moves from one seed to the next.

The program only ever sees the files written by :func:`write_inputs` and the
command lines of the ops.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import numpy as np

from mealypred import machines as catalog

WORKLOADS = ("census", "deep-eval", "search")

# Census machines are kept to chains whose non-peripheral eigenvalues have
# modulus at most this, so each stationary solve settles in a few hundred
# iterations and one unlucky draw cannot dominate a run.
CENSUS_MIX_LIMIT = 0.9


@dataclass(frozen=True)
class Machine:
    """Plain machine tables, independent of the library's own types."""

    num_states: int
    transition: tuple[tuple[int, int], ...]
    output: tuple[tuple[int, int], ...]
    initial_state: int = 0

    def text(self) -> str:
        lines = [f"mealy {self.num_states}", f"initial {self.initial_state}"]
        for s in range(self.num_states):
            for b in (0, 1):
                lines.append(f"{s} {b} -> {self.transition[s][b]} {self.output[s][b]}")
        return "\n".join(lines) + "\n"

    def run(self, bits: list[int]) -> list[int]:
        s = self.initial_state
        out = []
        for b in bits:
            out.append(self.output[s][b])
            s = self.transition[s][b]
        return out


@dataclass(frozen=True)
class Op:
    """One CLI command. ``check`` names the correctness rule in ``gate``."""

    op_id: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict, compare=False, hash=False)


@dataclass
class Workload:
    machines: dict[str, Machine]
    ops: list[Op]


def _plain(m) -> Machine:
    return Machine(m.num_states, m.transition, m.output, m.initial_state)


def _report(op_id: str) -> str:
    return os.path.join("r", f"{op_id}.json")


def _cli(op_id: str, args: list[str], check: str, workers: bool = False, **params) -> Op:
    argv = list(args)
    if workers:
        argv += ["--workers", "1"]
    argv += ["--format", "json", "--out", _report(op_id)]
    return Op(op_id, tuple(argv), check, params)


def _replay(op_id: str, source: Op) -> Op:
    return _cli(op_id, ["replay", _report(source.op_id)], "replay", workers=True,
                source=source.op_id)


def _bits(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(2) for _ in range(n)]


def _bitstr(bits: list[int]) -> str:
    return "".join(str(b) for b in bits)


# ---------------------------------------------------------------------------
# chain structure, computed here so input selection does not depend on the
# program under test

def _reachable(m: Machine) -> list[int]:
    seen = {m.initial_state}
    stack = [m.initial_state]
    while stack:
        s = stack.pop()
        for n in m.transition[s]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return sorted(seen)


def _subdominant_modulus(m: Machine) -> float:
    """Largest eigenvalue modulus below 1 of the reachable chain (0 if none)."""
    states = _reachable(m)
    index = {s: i for i, s in enumerate(states)}
    n = np.zeros((len(states), len(states)))
    for s in states:
        for b in (0, 1):
            n[index[s], index[m.transition[s][b]]] += 0.5
    mods = np.abs(np.linalg.eigvals(n))
    inner = mods[mods < 1 - 1e-9]
    return float(inner.max()) if inner.size else 0.0


def _periodic_machine(k: int, rng: random.Random) -> Machine:
    """Random machine with a deterministic ring of length 2..k reachable from 0."""
    base = catalog.random_machine(k, rng)
    trans = [list(r) for r in base.transition]
    length = rng.randint(2, k)
    ring = rng.sample(range(k), length)
    for i, s in enumerate(ring):
        nxt = ring[(i + 1) % length]
        trans[s] = [nxt, nxt]
    if 0 not in ring:
        trans[0][rng.randrange(2)] = ring[0]
    return Machine(k, tuple(map(tuple, trans)), base.output)


def _transient_unbiased_machine(k: int, rng: random.Random) -> Machine:
    """Random machine whose unbiased initial state is never re-entered."""
    base = catalog.random_machine(k, rng)
    trans = [[n if n != 0 else rng.randrange(1, k) for n in row] for row in base.transition]
    out = [list(r) for r in base.output]
    first = rng.randrange(2)
    out[0] = [first, 1 - first]
    return Machine(k, tuple(map(tuple, trans)), tuple(map(tuple, out)))


def _census_machine(kind: str, k: int, rng: random.Random) -> Machine:
    while True:
        if kind == "periodic":
            m = _periodic_machine(k, rng)
        elif kind == "transient":
            m = _transient_unbiased_machine(k, rng)
        else:
            m = _plain(catalog.random_machine(k, rng))
        if _subdominant_modulus(m) <= CENSUS_MIX_LIMIT:
            return m


# ---------------------------------------------------------------------------
# workloads

CENSUS_SIZES = (1, 2, 3, 4, 5, 6)
CENSUS_PER_SIZE = 10
CENSUS_EXACT_T = 12
CENSUS_MC = ((48, 512), (80, 96))  # (horizon, samples): vectorised, per-sequence loop
# Replays per state count: known-state reports, then analyze reports. The
# known-state ops and their replays form the band of mid-cost ops in which
# the median op falls.
CENSUS_REPLAYS = (6, 1)


def census(seed: int) -> Workload:
    rng = random.Random(f"census:{seed}")
    machines: dict[str, Machine] = {}
    ops: list[Op] = []
    for k in CENSUS_SIZES:
        kinds = ["random"] * CENSUS_PER_SIZE
        if k >= 2:
            kinds[:4] = ["periodic", "periodic", "transient", "transient"]
        for j, kind in enumerate(kinds):
            name = f"c{k}_{j}"
            machines[name] = _census_machine(kind, k, rng)
            path = f"{name}.mealy"
            ops.append(_cli(f"{name}.analyze", ["analyze", "-m", path], "analyze", machine=name))
            ops.append(_cli(
                f"{name}.known", ["evaluate", "-m", path, "--predictor", "known-state",
                                  "-t", str(CENSUS_EXACT_T)],
                "known_state", workers=True, machine=name, t=CENSUS_EXACT_T))
            t, samples = CENSUS_MC[j % 2]
            mc_seed = rng.randrange(1 << 31)
            ops.append(_cli(
                f"{name}.mc", ["evaluate", "-m", path, "--predictor", "consistency",
                               "-t", str(t), "--method", "monte-carlo",
                               "--samples", str(samples), "--seed", str(mc_seed)],
                "consistency_mc", workers=True, machine=name, t=t, samples=samples,
                seed=mc_seed))
    for k in CENSUS_SIZES:
        for suffix, count in zip(("known", "analyze"), CENSUS_REPLAYS):
            for j in rng.sample(range(CENSUS_PER_SIZE), count):
                source = next(op for op in ops if op.op_id == f"c{k}_{j}.{suffix}")
                ops.append(_replay(f"replay.{source.op_id}", source))
    return Workload(machines, ops)


DEEP_SIZES = (4, 5, 6, 7, 8)
# (predictor kind, horizon, per-step flag), run against every generator machine
DEEP_PLAN = (
    ("consistency", 15, False),
    ("known-state", 17, True),
    ("automaton", 16, False),
    ("always-0", 17, False),
    ("always-1", 15, True),
    ("ensemble", 12, False),
)


def deep_eval(seed: int) -> Workload:
    rng = random.Random(f"deep-eval:{seed}")
    machines: dict[str, Machine] = {"demo8": _plain(catalog.eight_state_example())}
    for k in DEEP_SIZES:
        machines[f"g{k}"] = _plain(catalog.random_machine(k, rng))
    generators = list(machines)
    for i in range(len(generators)):
        machines[f"p{i}"] = _plain(catalog.random_machine(rng.randint(2, 3), rng))
        machines[f"e{i}a"] = _plain(catalog.random_machine(3, rng))
        machines[f"e{i}b"] = _plain(catalog.random_machine(3, rng))
    ops: list[Op] = []
    for i, name in enumerate(generators):
        path = f"{name}.mealy"
        for kind, t, per_step in DEEP_PLAN:
            args = ["evaluate", "-m", path, "--predictor", kind, "-t", str(t)]
            params = {"machine": name, "t": t, "predictor": kind}
            if kind == "automaton":
                args += ["--predictor-machine", f"p{i}.mealy"]
            if kind == "ensemble":
                args += ["--candidates", path, "--candidates", f"e{i}a.mealy",
                         "--candidates", f"e{i}b.mealy"]
            if per_step:
                args.append("--per-step")
            check = {"consistency": "consistency_exact", "known-state": "known_state"}.get(
                kind, "exact_report")
            ops.append(_cli(f"{name}.{kind}", args, check, workers=True, **params))
    cheap = [op for op in ops if op.params["predictor"] in ("always-1", "automaton")]
    ops.append(_replay("replay0", rng.choice(cheap)))
    return Workload(machines, ops)


# Horizons of the plain k=2 searches, one op each; the last has two targets.
# Op costs rise with t in distinct steps (about 32, 43 and 62 ms). With the
# 10 cheaper ops (searches after training, batch problems, replays) below
# them, the median op (ranks 15 and 16 of 30) falls inside the t=7 group
# (ranks 11-18) and the tail op (p66, rank 20) inside the t=8 group (19-23).
SEARCH_K2_T = (7,) * 8 + (8,) * 5 + (9,) * 7
SEARCH_AFTER = 4  # k=2 searches after training
SEARCH_CONTINUATION = 3
SEARCH_BATCH = 4  # batch-select problems


def _one_biased(k: int, rng: random.Random) -> Machine:
    """Random machine in which exactly one state emits the same bit on 0 and 1."""
    base = catalog.random_machine(k, rng)
    out = []
    for _ in range(k):
        first = rng.randrange(2)
        out.append((first, 1 - first))
    biased = rng.randrange(k)
    out[biased] = (out[biased][0],) * 2
    return Machine(k, base.transition, tuple(out))


def search(seed: int) -> Workload:
    """Target sizes, training lengths and horizons are fixed per op; the
    seed draws tables, training bits and batch problems. Plain searches cost
    about the same whatever the target tables are. Searches after training
    use machines with one biased state, so their continuation trees are
    close to full and about equally large. So the seed moves tables and
    training bits but hardly the amount of work."""
    rng = random.Random(f"search:{seed}")
    machines: dict[str, Machine] = {"ring": _plain(catalog.alternating_ring())}
    ops: list[Op] = []
    for i, t in enumerate(SEARCH_K2_T):
        names = ["ring"] if i == 0 else [f"s{i}a", f"s{i}b"][: 1 + (i == len(SEARCH_K2_T) - 1)]
        for j, n in enumerate(names):
            if n not in machines:
                machines[n] = _plain(catalog.random_machine(1 + (i + j) % 3, rng))
        args = ["search", "-k", "2", "-t", str(t), "--top", "5"]
        for n in names:
            args += ["--target", f"{n}.mealy"]
        ops.append(_cli(f"k2.plain{i}", args, "search", workers=True, targets=names, t=t))
    for i in range(SEARCH_AFTER):
        name = f"a{i}"
        machines[name] = _one_biased(2 + i % 2, rng)
        training = machines[name].run(_bits(rng, 4 + i % 4))
        ops.append(_cli(
            f"k2.after{i}", ["search", "-k", "2", "--target", f"{name}.mealy", "--top", "5",
                             "--after-training", _bitstr(training),
                             "--continuation", str(SEARCH_CONTINUATION)],
            "search_after", workers=True, targets=[name], training=training,
            continuation=SEARCH_CONTINUATION))
    for i in range(SEARCH_BATCH):
        names = [f"b{i}_{j}" for j in range(3)]
        for n in names:
            machines[n] = _plain(catalog.random_machine(rng.randint(1, 3), rng))
        training = machines[names[0]].run(_bits(rng, rng.randint(3, 6)))
        horizon = len(training) + rng.randint(3, 6)
        args = ["batch-select", "--training", _bitstr(training), "--horizon", str(horizon)]
        for n in names:
            args += ["--candidates", f"{n}.mealy"]
        if i % 2:
            args.append("--machine-uniform")
        ops.append(_cli(f"batch{i}", args, "batch", machines=names))
    after = [op for op in ops if op.op_id.startswith("k2.after")]
    batch = [op for op in ops if op.op_id.startswith("batch")]
    ops.append(_replay("replay0", rng.choice(after)))
    ops.append(_replay("replay1", rng.choice(batch)))
    return Workload(machines, ops)


BUILDERS = {"census": census, "deep-eval": deep_eval, "search": search}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def write_inputs(workload: Workload, directory: str) -> None:
    """Write every machine file and create the report directory."""
    os.makedirs(os.path.join(directory, "r"), exist_ok=True)
    for name, m in workload.machines.items():
        with open(os.path.join(directory, f"{name}.mealy"), "w", encoding="utf-8") as fh:
            fh.write(m.text())


WARMUP_MACHINE = Machine(2, ((1, 0), (1, 1)), ((0, 1), (1, 1)))


def warmup_ops() -> list[Op]:
    """One small op per command path, run before timing starts; not checked."""
    w = "warm.mealy"
    return [
        _cli("warm.analyze", ["analyze", "-m", w], "none"),
        _cli("warm.known", ["evaluate", "-m", w, "--predictor", "known-state", "-t", "6"],
             "none", workers=True),
        _cli("warm.cons", ["evaluate", "-m", w, "-t", "6"], "none", workers=True),
        _cli("warm.mc", ["evaluate", "-m", w, "-t", "70", "--method", "monte-carlo",
                         "--samples", "4"], "none", workers=True),
        _cli("warm.ens", ["evaluate", "-m", w, "--predictor", "ensemble", "--candidates", w,
                          "-t", "6"], "none", workers=True),
        _cli("warm.search", ["search", "-k", "1", "-t", "4", "--target", w], "none",
             workers=True),
        _cli("warm.after", ["search", "-k", "1", "--target", w, "--after-training", "01"],
             "none", workers=True),
        _cli("warm.batch", ["batch-select", "--candidates", w, "--training", "01",
                            "--horizon", "4"], "none"),
        _cli("warm.replay", ["replay", _report("warm.analyze")], "none", workers=True),
    ]
