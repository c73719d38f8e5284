"""Command-line front end.

Every subcommand resolves its inputs into a plain config dictionary, executes
it through a shared dispatcher, and embeds the resolved config in the report,
so any report can be re-run bit-for-bit with ``mealypred replay``. Structured
output is JSON with stable field order; exact rationals appear as "num/den"
strings. Presentation details (output format, timestamps) are not part of the
config. ``evaluate``, ``search`` and ``replay`` accept ``--workers`` for
compatibility and ignore it: every command runs in one process. ``-v``
before the subcommand sends the package's debug log to stderr; reports do
not change.

Exit codes: 0 success, 2 usage, parse, file or output error, 3 cap refusal
or a request too large to allocate, 4 data inconsistent with every assumed
machine. :class:`_Main` maps failures to them for every subcommand.
"""

from __future__ import annotations

import contextlib
import datetime
import json
import logging
import sys
from fractions import Fraction

import click

from . import __version__
from .automaton import (
    Bits,
    MachineFormatError,
    MealyMachine,
    machine_id,
    parse_machine,
    serialize_machine,
)
from .enumeration import (
    CANONICAL_K_CAP,
    RAW_K_CAP,
    count_machines,
    enumerate_machines,
)
from .evaluation import (
    EXHAUSTIVE_T_CAP,
    BatchProblem,
    CapExceeded,
    InconsistentTrainingData,
    _rational_str,
    batch_select,
    default_batch_predictors,
    evaluate_exhaustive,
    evaluate_monte_carlo,
)
from .predictors import (
    AutomatonPredictor,
    ConsistencyPredictor,
    ConstantPredictor,
    EnsemblePredictor,
    InconsistentObservation,
    KnownStatePredictor,
    trace_predictor,
)
from .search import search_after_training, search_best_predictor
from .spectral import (
    adjacency,
    perfect_knowledge_error_bound,
    stationary_frequencies,
)

EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INCONSISTENT = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise MachineFormatError(f"cannot read {path}: {e.strerror}")


def _load_machine(path: str) -> MealyMachine:
    try:
        return parse_machine(_read_text(path))
    except MachineFormatError as e:
        raise MachineFormatError(f"{path}: {e}")


def _parse_bits(text: str) -> Bits:
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        text = _read_text(text[1:])
    try:
        return Bits.from_string(text)
    except ValueError as e:
        raise click.UsageError(str(e))


def _machine_entry(path: str, machine: MealyMachine) -> dict:
    return {"path": path, "id": machine_id(machine), "states": machine.num_states}


def _build_predictor(kind, machine, predictor_machine, candidates):
    if candidates and kind != "ensemble":
        raise click.UsageError(f"--candidates applies only to --predictor ensemble, not {kind}")
    if predictor_machine is not None and kind in ("always-0", "always-1", "ensemble"):
        raise click.UsageError(f"--predictor {kind} takes no --predictor-machine")
    if kind == "consistency":
        return ConsistencyPredictor(predictor_machine or machine)
    if kind == "known-state":
        if predictor_machine is not None and predictor_machine != machine:
            raise click.UsageError("known-state prediction is tied to the generator machine")
        return KnownStatePredictor(machine)
    if kind == "always-0":
        return ConstantPredictor(0)
    if kind == "always-1":
        return ConstantPredictor(1)
    if kind == "automaton":
        if predictor_machine is None:
            raise click.UsageError("--predictor automaton requires --predictor-machine")
        return AutomatonPredictor(predictor_machine)
    if kind == "ensemble":
        if not candidates:
            raise click.UsageError("--predictor ensemble requires --candidates")
        return EnsemblePredictor(candidates)
    raise click.UsageError(f"unknown predictor {kind!r}")


# ---------------------------------------------------------------------------
# executors: config dict -> report dict

def _exec_run(config: dict) -> dict:
    machine = _load_machine(config["machine"])
    bits = Bits.from_string(config["input"])
    output, path = machine.run_with_states(bits)
    return {
        "machines": [_machine_entry(config["machine"], machine)],
        "result": {"input": str(bits), "output": str(output), "state_path": list(path)},
    }


def _exec_analyze(config: dict) -> dict:
    machine = _load_machine(config["machine"])
    freqs = stationary_frequencies(machine)
    bound = perfect_knowledge_error_bound(machine, freqs)
    reachable = machine.reachable_states()
    states = [
        {
            "state": s,
            "class": machine.classify(s).name,
            "biased": machine.classify(s).biased,
            "reachable": s in reachable,
            "frequency": float(freqs.weights[s]),
        }
        for s in range(machine.num_states)
    ]
    return {
        "machines": [_machine_entry(config["machine"], machine)],
        "result": {
            "states": states,
            "biased_states": list(machine.biased_states()),
            "unbiased_states": list(machine.unbiased_states()),
            "adjacency": [list(r) for r in adjacency(machine)],
            "stationary": {
                "weights": [float(w) for w in freqs.weights],
                "exact": [_rational_str(w) for w in freqs.weights],
            },
            "perfect_knowledge_bound": float(bound),
            "perfect_knowledge_bound_exact": _rational_str(bound),
        },
    }


def _load_predictor(config: dict):
    """The generator, the predictor the config names, and (path, machine) for
    every machine loaded: the generator first, then the predictor's machine
    and the candidates when given."""
    machine = _load_machine(config["machine"])
    loaded = [(config["machine"], machine)]
    predictor_machine = None
    if config.get("predictor_machine"):
        predictor_machine = _load_machine(config["predictor_machine"])
        loaded.append((config["predictor_machine"], predictor_machine))
    candidates = [_load_machine(p) for p in config.get("candidates", [])]
    loaded.extend(zip(config.get("candidates", []), candidates))
    predictor = _build_predictor(config["predictor"], machine, predictor_machine, candidates)
    return machine, predictor, loaded


def _exec_predict(config: dict) -> dict:
    machine, predictor, loaded = _load_predictor(config)
    trace = trace_predictor(machine, predictor, Bits.from_string(config["input"]))
    return {
        "machines": [_machine_entry(p, m) for p, m in loaded],
        "result": {
            "predictor": predictor.label,
            "predictions": "".join(str(b) for b in trace.predictions),
            "observed": "".join(str(b) for b in trace.observed),
            "cumulative_errors": list(trace.cumulative_errors),
            "total_errors": trace.total_errors,
            "error_rate": trace.error_rate,
            "consistent": trace.consistent,
        },
    }


def _exec_evaluate(config: dict) -> dict:
    machine, predictor, _ = _load_predictor(config)
    if config["method"] == "exhaustive":
        report = evaluate_exhaustive(
            machine,
            predictor,
            config["t"],
            cap=config["cap_t"],
            per_step=config["per_step"],
        )
    else:
        report = evaluate_monte_carlo(
            machine,
            predictor,
            config["t"],
            config["samples"],
            config["seed"],
            per_step=config["per_step"],
        )
    return {
        "machines": [_machine_entry(config["machine"], machine)],
        "result": report.to_dict(),
    }


def _exec_batch_select(config: dict) -> dict:
    machines = [_load_machine(p) for p in config["candidates"]]
    training = Bits.from_string(config["training"])
    problem = BatchProblem(
        machines=tuple(machines),
        training=training,
        horizon=config["horizon"],
        predictors=default_batch_predictors(machines),
    )
    selection = batch_select(problem, weighting=config["weighting"])
    return {
        "machines": [
            _machine_entry(p, m) for p, m in zip(config["candidates"], machines)
        ],
        "result": selection.to_dict(),
    }


def _exec_enumerate(config: dict) -> dict:
    mode, cap = config["mode"], config.get("cap_k")
    if config["count_only"]:
        return {
            "machines": [],
            "result": {"mode": mode, "k": config["k"], "count": count_machines(config["k"], mode, cap=cap)},
        }
    serializations = [
        serialize_machine(m) for m in enumerate_machines(config["k"], mode, cap=cap)
    ]
    return {
        "machines": [],
        "result": {
            "mode": mode,
            "k": config["k"],
            "count": len(serializations),
            "machines": serializations,
        },
    }


def _exec_search(config: dict) -> dict:
    targets = [_load_machine(p) for p in config["targets"]]
    if "after_training" in config:
        result = search_after_training(
            targets,
            config["k"],
            Bits.from_string(config["after_training"]),
            config["continuation"],
            top_n=config["top_n"],
        )
    else:
        result = search_best_predictor(
            targets,
            config["k"],
            config["t"],
            top_n=config["top_n"],
            cap=config["cap_t"],
        )
    return {
        "machines": [_machine_entry(p, m) for p, m in zip(config["targets"], targets)],
        "result": result.to_dict(),
    }


_EXECUTORS = {
    "run": _exec_run,
    "analyze": _exec_analyze,
    "predict": _exec_predict,
    "evaluate": _exec_evaluate,
    "batch-select": _exec_batch_select,
    "enumerate": _exec_enumerate,
    "search": _exec_search,
}


def _execute(config: dict) -> dict:
    payload = _EXECUTORS[config["command"]](config)
    return {
        "tool": "mealypred",
        "version": __version__,
        "command": config["command"],
        "config": config,
        "machines": payload["machines"],
        "result": payload["result"],
    }


# ---------------------------------------------------------------------------
# rendering

def _render_human(report: dict, timestamps: bool) -> str:
    lines = [f"mealypred {report['version']} :: {report['command']}"]
    if timestamps:
        lines.append(f"time: {datetime.datetime.now().isoformat()}")
    for m in report["machines"]:
        lines.append(f"machine: {m['path']} ({m['states']} states, id {m['id'][:16]})")
    lines.append("")

    def emit(prefix: str, value):
        if isinstance(value, dict):
            for k, v in value.items():
                if isinstance(v, dict):
                    emit(f"{prefix}{k}.", v)
                else:
                    emit_kv(f"{prefix}{k}", v)
        else:
            emit_kv(prefix.rstrip("."), value)

    def emit_kv(key: str, value):
        if isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                for k, v in item.items():
                    lines.append(f"{key}[{i}].{k}: {v}")
        elif isinstance(value, list) and any(
            isinstance(v, str) and "\n" in v for v in value
        ):
            for i, v in enumerate(value):
                lines.append(f"{key}[{i}]:")
                lines.append(str(v).rstrip("\n"))
                lines.append("")
        elif isinstance(value, str) and "\n" in value:
            lines.append(f"{key}:")
            lines.append(value.rstrip("\n"))
            lines.append("")
        elif isinstance(value, list):
            lines.append(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{key}: {value}")

    emit("", report["result"])
    return "\n".join(lines) + "\n"


def _run_command(config: dict, fmt: str, out: str | None, timestamps: bool):
    """Execute a config and emit its report."""
    report = _execute(config)
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _render_human(report, timestamps)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _format_options(fn):
    fn = click.option(
        "--format", "fmt", type=click.Choice(["human", "json"]), default="human",
        show_default=True, help="Report format.",
    )(fn)
    fn = click.option("--out", type=str, default=None, help="Write the report to a file.")(fn)
    fn = click.option(
        "--timestamps", is_flag=True, default=False,
        help="Include a timestamp in human output.",
    )(fn)
    return fn


_workers_option = click.option(
    "--workers", type=int, default=1, show_default=True,
    help="Accepted for compatibility; ignored, every command runs in one process.",
)


def _check_cap(what: str, cap_t: int, big_ok: bool) -> None:
    if cap_t > EXHAUSTIVE_T_CAP and not big_ok:
        raise click.UsageError(
            f"{what} {cap_t} exceeds the default {EXHAUSTIVE_T_CAP}; "
            "acknowledge with --i-know-this-is-big"
        )


# Config fields by JSON type, and the evaluation methods, as every command
# writes them; a replayed config is checked against both.
_FIELD_TYPES = (
    ("an integer", lambda v: type(v) is int,
     ("t", "cap_t", "samples", "seed", "k", "top_n", "continuation", "horizon", "cap_k")),
    ("a string", lambda v: type(v) is str,
     ("machine", "input", "predictor", "predictor_machine", "training",
      "after_training", "weighting", "mode")),
    ("a boolean", lambda v: type(v) is bool, ("per_step", "count_only")),
    ("a list of strings", lambda v: type(v) is list and all(type(x) is str for x in v),
     ("candidates", "targets")),
)
_METHODS = ("exhaustive", "monte_carlo")


def _config_problem(config) -> str | None:
    """Why a replayed config cannot run, or None; missing fields are
    reported when the executor asks for them."""
    if not isinstance(config, dict):
        return "not a JSON object"
    command = config.get("command")
    if not isinstance(command, str) or command not in _EXECUTORS:
        return "not a replayable config"
    for kind, ok, fields in _FIELD_TYPES:
        for field in fields:
            if field in config and not ok(config[field]):
                return f"{field!r} must be {kind}, not {config[field]!r}"
    if "method" in config and config["method"] not in _METHODS:
        return f"unknown method {config['method']!r}; expected one of {_METHODS}"
    return None


_PREDICTOR_CHOICES = click.Choice(
    ["consistency", "known-state", "always-0", "always-1", "automaton", "ensemble"]
)


class _Main(click.Group):
    """The command group; maps the failures of argument parsing, execution
    and output to the documented exit codes, without a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InconsistentObservation, InconsistentTrainingData) as e:
            click.echo(f"inconsistent data: {e}", err=True)
            sys.exit(EXIT_INCONSISTENT)
        except (CapExceeded, MemoryError) as e:
            click.echo(f"refused: {e}", err=True)
            sys.exit(EXIT_CAP)
        except BrokenPipeError:
            raise  # click exits quietly when the reader closes the pipe
        except (MachineFormatError, ValueError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(EXIT_USAGE)


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="mealypred")
@click.option("-v", "--verbose", is_flag=True, default=False,
              help="Log debug messages (search and exact-walk counters among them) to stderr.")
@click.pass_context
def main(ctx, verbose):
    """Study prediction of bit sequences generated by finite-state machines."""
    if verbose:
        logger = logging.getLogger("mealypred")
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)

        def unhook():
            logger.removeHandler(handler)
            logger.setLevel(level)

        ctx.call_on_close(unhook)


@main.command("run")
@click.option("-m", "--machine", "machine_path", required=True, help="Machine file ('-' for stdin).")
@click.option("--input", "input_bits", required=True, help="Input bits ('-' stdin, '@FILE' from file).")
@_format_options
def cmd_run(machine_path, input_bits, fmt, out, timestamps):
    """Feed an input sequence to a machine; print outputs and the state path."""
    bits = _parse_bits(input_bits)
    config = {"command": "run", "machine": machine_path, "input": str(bits)}
    _run_command(config, fmt, out, timestamps)


@main.command("analyze")
@click.option("-m", "--machine", "machine_path", required=True)
@_format_options
def cmd_analyze(machine_path, fmt, out, timestamps):
    """State classes, adjacency, exact stationary frequencies, and the error floor."""
    config = {"command": "analyze", "machine": machine_path}
    _run_command(config, fmt, out, timestamps)


@main.command("predict")
@click.option("-m", "--machine", "machine_path", required=True, help="Generator machine file.")
@click.option("--input", "input_bits", required=True, help="Generator input bits.")
@click.option("--predictor", type=_PREDICTOR_CHOICES, default="consistency", show_default=True)
@click.option("--predictor-machine", type=str, default=None,
              help="Machine the predictor assumes (defaults to the generator).")
@click.option("--candidates", type=str, multiple=True, help="Candidate machines for ensemble prediction.")
@_format_options
def cmd_predict(machine_path, input_bits, predictor, predictor_machine, candidates, fmt, out, timestamps):
    """Run a predictor online against one generated sequence."""
    bits = _parse_bits(input_bits)
    config = {
        "command": "predict",
        "machine": machine_path,
        "input": str(bits),
        "predictor": predictor,
    }
    if predictor_machine:
        config["predictor_machine"] = predictor_machine
    if candidates:
        config["candidates"] = list(candidates)
    _run_command(config, fmt, out, timestamps)


@main.command("evaluate")
@click.option("-m", "--machine", "machine_path", required=True)
@click.option("--predictor", type=_PREDICTOR_CHOICES, default="consistency", show_default=True)
@click.option("--predictor-machine", type=str, default=None)
@click.option("--candidates", type=str, multiple=True)
@click.option("-t", "--horizon", "t", type=int, required=True, help="Sequence length.")
@click.option("--method", type=click.Choice(["exhaustive", "monte-carlo"]),
              default="exhaustive", show_default=True)
@click.option("--samples", type=int, default=10000, show_default=True, help="Monte Carlo sample count.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--cap-t", type=int, default=EXHAUSTIVE_T_CAP, show_default=True,
              help="Exhaustive horizon cap; raising it needs --i-know-this-is-big.")
@click.option("--i-know-this-is-big", "big_ok", is_flag=True, default=False)
@click.option("--per-step", is_flag=True, default=False, help="Include per-step error averages.")
@_workers_option
@_format_options
def cmd_evaluate(machine_path, predictor, predictor_machine, candidates, t, method,
                 samples, seed, cap_t, big_ok, per_step, workers, fmt, out, timestamps):
    """Average/worst-case prediction error, exact or sampled."""
    _check_cap("--cap-t", cap_t, big_ok)
    config = {
        "command": "evaluate",
        "machine": machine_path,
        "predictor": predictor,
        "t": t,
        "method": "exhaustive" if method == "exhaustive" else "monte_carlo",
        "cap_t": cap_t,
        "per_step": per_step,
    }
    if predictor_machine:
        config["predictor_machine"] = predictor_machine
    if candidates:
        config["candidates"] = list(candidates)
    if config["method"] == "monte_carlo":
        config["samples"] = samples
        config["seed"] = seed
    _run_command(config, fmt, out, timestamps)


@main.command("batch-select")
@click.option("--candidates", type=str, multiple=True, required=True,
              help="Candidate machine files (repeatable).")
@click.option("--training", required=True, help="Observed training bits.")
@click.option("--horizon", type=int, required=True, help="Total horizon T (> training length).")
@click.option("--machine-uniform", is_flag=True, default=False,
              help="Weight machines equally instead of (sequence, machine) pairs.")
@_format_options
def cmd_batch_select(candidates, training, horizon, machine_uniform, fmt, out, timestamps):
    """Choose the predictor with the least expected continuation error."""
    bits = _parse_bits(training)
    config = {
        "command": "batch-select",
        "candidates": list(candidates),
        "training": str(bits),
        "horizon": horizon,
        "weighting": "machines" if machine_uniform else "pairs",
    }
    _run_command(config, fmt, out, timestamps)


@main.command("enumerate")
@click.option("-k", "--states", "k", type=int, required=True)
@click.option("--mode", type=click.Choice(["raw", "canonical", "strongly-connected"]),
              default="canonical", show_default=True)
@click.option("--count-only", is_flag=True, default=False)
@click.option("--cap-k", type=int, default=None,
              help=f"Override the state-count caps (raw {RAW_K_CAP}, canonical {CANONICAL_K_CAP}).")
@_format_options
def cmd_enumerate(k, mode, count_only, cap_k, fmt, out, timestamps):
    """Stream machine serializations (or just count them).

    Human format streams one machine per record (blank-line separated)
    without a report wrapper; JSON wraps the full list in a report.
    """
    config = {
        "command": "enumerate",
        "k": k,
        "mode": mode.replace("-", "_"),
        "count_only": count_only,
    }
    if cap_k is not None:
        config["cap_k"] = cap_k
    if fmt == "human":
        with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as sink:
            if count_only:
                sink.write(f"{count_machines(config['k'], config['mode'], cap=cap_k)}\n")
            else:
                for machine in enumerate_machines(config["k"], config["mode"], cap=cap_k):
                    sink.write(serialize_machine(machine))
                    sink.write("\n")
        return
    _run_command(config, fmt, out, timestamps)


@main.command("search")
@click.option("--target", "targets", type=str, multiple=True, required=True,
              help="Target machine files (repeatable).")
@click.option("-k", "--states", "k", type=int, required=True, help="Predictor state budget.")
@click.option("-t", "--horizon", "t", type=int, default=10, show_default=True)
@click.option("--top", "top_n", type=int, default=10, show_default=True)
@click.option("--after-training", type=str, default=None,
              help="Observed training bits; score continuations instead.")
@click.option("--continuation", type=int, default=4, show_default=True,
              help="Continuation length used with --after-training.")
@click.option("--cap-t", type=int, default=EXHAUSTIVE_T_CAP, show_default=True)
@click.option("--i-know-this-is-big", "big_ok", is_flag=True, default=False)
@_workers_option
@_format_options
def cmd_search(targets, k, t, top_n, after_training, continuation, cap_t, big_ok,
               workers, fmt, out, timestamps):
    """Exhaustively find the best k-state predicting automaton."""
    _check_cap("--cap-t", cap_t, big_ok)
    config = {
        "command": "search",
        "targets": list(targets),
        "k": k,
        "t": t,
        "top_n": top_n,
        "cap_t": cap_t,
    }
    if after_training is not None:
        bits = _parse_bits(after_training)
        config["after_training"] = str(bits)
        config["continuation"] = continuation
    _run_command(config, fmt, out, timestamps)


@main.command("replay")
@click.argument("config_file", type=str)
@click.option("--i-know-this-is-big", "big_ok", is_flag=True, default=False,
              help="Allow a config whose cap_t exceeds the default cap.")
@_workers_option
@_format_options
def cmd_replay(config_file, big_ok, workers, fmt, out, timestamps):
    """Re-run an experiment from a config file or a previous report."""
    try:
        data = json.loads(_read_text(config_file))
    except json.JSONDecodeError as e:
        raise ValueError(f"{config_file}: {e}") from None
    config = data.get("config", data) if isinstance(data, dict) else data
    problem = _config_problem(config)
    if problem:
        raise ValueError(f"{config_file}: {problem}")
    _check_cap(f"{config_file}: cap_t", config.get("cap_t", EXHAUSTIVE_T_CAP), big_ok)
    try:
        _run_command(config, fmt, out, timestamps)
    except KeyError as e:
        raise ValueError(f"{config_file}: config lacks {e.args[0]!r}") from None


if __name__ == "__main__":
    main()
