"""Command-line front end.

Every subcommand resolves its inputs into a plain config dictionary, executes
it through a shared dispatcher, and embeds the resolved config in the report,
so any report can be re-run bit-for-bit with ``mealypred replay``. Each config
field is declared once, in ``_FIELDS``: its key, option spellings, JSON type,
default per command, and the default cap past which it needs
``--i-know-this-is-big``. The command-line parser and ``--help``, replay's
type checks and the cap checks of every command and of replay all come from
that table; ``_PRESENTATION`` declares the options outside the config
(output format and file, timestamps, ``--workers``, the cap acknowledgment).
Structured output is JSON with stable field order; exact rationals appear as
"num/den" strings. ``evaluate``, ``search`` and ``replay`` accept
``--workers`` for compatibility and ignore it: every command runs in one
process. ``-v`` before the subcommand sends the package's debug
log to stderr; reports do not change.

Exit codes: 0 success, 2 usage, parse, file or output error, 3 cap refusal
or a request too large to hold, 4 data inconsistent with every assumed
machine. :func:`_run` maps failures to them for every subcommand.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import json
import logging
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _ascii
from typing import Callable, NamedTuple

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
    CapExceeded,
    count_machines,
    default_k_cap,
    enumerate_machines,
)
from .evaluation import (
    EXHAUSTIVE_T_CAP,
    BatchProblem,
    InconsistentTrainingData,
    batch_select,
    default_batch_predictors,
    evaluate_exhaustive,
    evaluate_monte_carlo,
    rational_str,
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


def _parse_bits(text: str) -> str:
    """The bits an option names ('-' stdin, '@FILE' a file), as a config string."""
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        text = _read_text(text[1:])
    return str(Bits.from_string(text))


def _machine_entry(path: str, machine: MealyMachine) -> dict:
    return {"path": path, "id": machine_id(machine), "states": machine.num_states}


def _build_predictor(kind, machine, predictor_machine, candidates):
    if candidates and kind != "ensemble":
        raise ValueError(f"--candidates applies only to --predictor ensemble, not {kind}")
    if predictor_machine is not None and kind in ("always-0", "always-1", "ensemble"):
        raise ValueError(f"--predictor {kind} takes no --predictor-machine")
    if kind == "consistency":
        return ConsistencyPredictor(predictor_machine or machine)
    if kind == "known-state":
        if predictor_machine is not None and predictor_machine != machine:
            raise ValueError("known-state prediction is tied to the generator machine")
        return KnownStatePredictor(machine)
    if kind == "always-0":
        return ConstantPredictor(0)
    if kind == "always-1":
        return ConstantPredictor(1)
    if kind == "automaton":
        if predictor_machine is None:
            raise ValueError("--predictor automaton requires --predictor-machine")
        return AutomatonPredictor(predictor_machine)
    if kind == "ensemble":
        if not candidates:
            raise ValueError("--predictor ensemble requires --candidates")
        return EnsemblePredictor(candidates)


# ---------------------------------------------------------------------------
# executors: config dict -> the report's machines and result

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
                "exact": [rational_str(w) for w in freqs.weights],
            },
            "perfect_knowledge_bound": float(bound),
            "perfect_knowledge_bound_exact": rational_str(bound),
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


# Per command: its help text and its executor; replay has none, it runs the config it reads.
_COMMANDS = {
    "run": ("Feed an input sequence to a machine; print outputs and the state path.", _exec_run),
    "analyze": ("State classes, adjacency, exact stationary frequencies, and the error floor.", _exec_analyze),
    "predict": ("Run a predictor online against one generated sequence.", _exec_predict),
    "evaluate": ("Average/worst-case prediction error, exact or sampled.", _exec_evaluate),
    "batch-select": ("Choose the predictor with the least expected continuation error.", _exec_batch_select),
    "enumerate": ("Stream machine serializations (or just count them), one record each.", _exec_enumerate),
    "search": ("Exhaustively find the best k-state predicting automaton.", _exec_search),
    "replay": ("Re-run an experiment from a config file or a previous report.", None),
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

    def emit(key: str, value):
        """Dicts and lists holding dicts, lists or multiline strings are walked,
        one line per other value; a multiline string is a block of its own."""
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list) and any(
            isinstance(v, (dict, list)) or isinstance(v, str) and "\n" in v for v in value
        ):
            for i, v in enumerate(value):
                emit(f"{key}[{i}]", v)
        elif isinstance(value, str) and "\n" in value:
            lines.extend((f"{key}:", value.rstrip("\n"), ""))
        elif isinstance(value, list):
            lines.append(f"{key}: {' '.join(str(v) for v in value)}")
        else:
            lines.append(f"{key}: {value}")

    emit("", report["result"])
    return "\n".join(lines) + "\n"


_INFINITIES = {math.inf: "Infinity", -math.inf: "-Infinity"}
# per scalar type a report holds, its text as json.dumps writes it; bool before int for isinstance
_ATOMS = {
    str: _ascii, bool: ("false", "true").__getitem__, int: int.__repr__, type(None): lambda _: "null",
    float: lambda x: "NaN" if x != x else _INFINITIES.get(x) or float.__repr__(x),
}


def _write_json(value, parts: list[str], nl: str = "\n") -> None:
    """Append to ``parts`` the text of ``json.dumps(value, indent=2)``, ``nl``
    starting each line ``value`` opens; dicts need str keys."""
    inner = nl + "  "
    comma = "," + inner
    if isinstance(value, dict):
        heads, items, ends = [_ascii(k) + ": " for k in value], value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        atom = _ATOMS.get(kinds.pop()) if len(kinds) == 1 else None
        if atom:  # scalars of one type: one join
            parts += ("[" + inner, comma.join(map(atom, value)), nl + "]")
            return
        heads, items, ends = ("",) * len(value), value, "[]"
    else:  # a scalar; numpy's float64 is a float, as json.dumps checks
        atom = next((a for t, a in _ATOMS.items() if isinstance(value, t)), None)
        if atom is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        parts.append(atom(value))
        return
    sep = ends[0] + inner
    for head, x in zip(heads, items):  # scalar items inline
        atom = _ATOMS.get(type(x))
        parts.append(sep + head + atom(x) if atom else sep + head)
        if not atom:
            _write_json(x, parts, inner)
        sep = comma
    parts.append(nl + ends[1] if sep == comma else ends)


def _sink(out: str | None, binary: bool = False):
    """The file ``--out`` names, else stdout, to write (bytes if ``binary``) in a ``with`` block."""
    if out:
        return open(out, "wb") if binary else open(out, "w", encoding="utf-8")
    sys.stdout.flush()  # text written before the bytes goes first
    return contextlib.nullcontext(sys.stdout.buffer if binary else sys.stdout)


def _run_command(config: dict, fmt: str, out: str | None, timestamps: bool):
    """Execute a config and emit its report, JSON as ASCII bytes."""
    _, execute = _COMMANDS[config["command"]]
    report = {
        "tool": "mealypred",
        "version": __version__,
        "command": config["command"],
        "config": config,
        **execute(config),  # its machines, then its result
    }
    if fmt == "json":
        parts = []
        _write_json(report, parts)
        data = "".join(parts + ["\n"]).encode("ascii")
    else:
        data = _render_human(report, timestamps)
    with _sink(out, binary=fmt == "json") as fh:
        fh.write(data)


def _stream_enumeration(config: dict, out: str | None):
    """Human ``enumerate``: one machine per blank-line separated record, or
    the bare count, without a report wrapper."""
    k, mode, cap = config["k"], config["mode"], config.get("cap_k")
    # counted or checked before the sink opens, so a refusal leaves --out as it was
    records = ([f"{count_machines(k, mode, cap=cap)}\n"] if config["count_only"]
               else (serialize_machine(m) + "\n" for m in enumerate_machines(k, mode, cap=cap)))
    with _sink(out) as sink:
        sink.writelines(records)


# ---------------------------------------------------------------------------
# the field table: options, replay checks and caps

_REQUIRED = object()  # a default meaning "the option must be given"


def _on(*commands: str, default=_REQUIRED) -> dict:
    return dict.fromkeys(commands, default)


class _Field(NamedTuple):
    """One config field, or in ``_PRESENTATION`` an option outside the config.
    ``defaults`` maps each command that takes the option to its default; a
    default of False makes the option a flag. ``choices`` maps an option value
    to its config value. A field enters the config when ``keep(config so far,
    value)`` holds. ``cap(config)`` is the default cap a value may exceed only
    with ``--i-know-this-is-big``."""

    key: str
    flags: tuple[str, ...]
    type: type  # in the config: int, str, bool or list (of strings)
    defaults: dict
    help: str = ""
    choices: dict | None = None
    bits: bool = False  # a bit string: '-' reads stdin, '@FILE' a file
    keep: Callable[[dict, object], bool] = lambda config, value: value is not None
    cap: Callable[[dict], int] | None = None


_PREDICTORS = ("consistency", "known-state", "always-0", "always-1", "automaton", "ensemble")
_MODES = {"raw": "raw", "canonical": "canonical", "strongly-connected": "strongly_connected"}

# In config order: every command writes its fields in this order.
_FIELDS = (
    _Field("machine", ("-m", "--machine"), str, _on("run", "analyze", "predict", "evaluate"),
           "Machine file ('-' for stdin)."),
    _Field("targets", ("--target",), list, _on("search"), "Target machine files (repeatable)."),
    _Field("input", ("--input",), str, _on("run", "predict"),
           "Input bits ('-' stdin, '@FILE' from file).", bits=True),
    _Field("predictor", ("--predictor",), str, _on("predict", "evaluate", default="consistency"),
           choices=dict(zip(_PREDICTORS, _PREDICTORS))),
    _Field("k", ("-k", "--states"), int, _on("enumerate", "search"),
           "State count (in search, the predictor's budget)."),
    _Field("t", ("-t", "--horizon"), int, {"evaluate": _REQUIRED, "search": 10}, "Sequence length."),
    _Field("method", ("--method",), str, _on("evaluate", default="exhaustive"),
           choices={"exhaustive": "exhaustive", "monte-carlo": "monte_carlo"}),
    _Field("mode", ("--mode",), str, _on("enumerate", default="canonical"),
           choices=_MODES),
    _Field("top_n", ("--top",), int, _on("search", default=10), "Leaderboard length."),
    _Field("cap_t", ("--cap-t",), int, _on("evaluate", "search", default=EXHAUSTIVE_T_CAP),
           "Exhaustive horizon cap; raising it needs --i-know-this-is-big.",
           cap=lambda config: EXHAUSTIVE_T_CAP),
    _Field("per_step", ("--per-step",), bool, _on("evaluate", default=False),
           "Include per-step error averages."),
    _Field("count_only", ("--count-only",), bool, _on("enumerate", default=False),
           "Print only the count."),
    _Field("cap_k", ("--cap-k",), int, _on("enumerate", default=None),
           "State-count cap (default: "
           + ", ".join(f"{option} {default_k_cap(mode)}" for option, mode in _MODES.items())
           + "); raising it needs --i-know-this-is-big.",
           cap=lambda config: default_k_cap(config.get("mode"))),
    _Field("predictor_machine", ("--predictor-machine",), str,
           _on("predict", "evaluate", default=None),
           "Machine the predictor assumes (defaults to the generator).", keep=lambda config, value: bool(value)),
    _Field("candidates", ("--candidates",), list,
           {"predict": None, "evaluate": None, "batch-select": _REQUIRED},
           "Candidate machine files (repeatable).", keep=lambda config, value: bool(value)),
    _Field("training", ("--training",), str, _on("batch-select"),
           "Observed training bits.", bits=True),
    _Field("horizon", ("--horizon",), int, _on("batch-select"),
           "Total horizon T (> training length)."),
    _Field("weighting", ("--machine-uniform",), str, _on("batch-select", default=False),
           "Weight machines equally instead of (sequence, machine) pairs.",
           choices={False: "pairs", True: "machines"}),
    _Field("samples", ("--samples",), int, _on("evaluate", default=10000),
           "Monte Carlo sample count.",
           keep=lambda config, value: config["method"] == "monte_carlo"),
    _Field("seed", ("--seed",), int, _on("evaluate", default=0), "Monte Carlo seed.",
           keep=lambda config, value: config["method"] == "monte_carlo"),
    _Field("after_training", ("--after-training",), str, _on("search", default=None),
           "Observed training bits; score continuations instead.", bits=True),
    _Field("continuation", ("--continuation",), int, _on("search", default=4),
           "Continuation length used with --after-training.",
           keep=lambda config, value: "after_training" in config),
)

_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean", list: "a list of strings"}

_CAPPED = {c for f in _FIELDS if f.cap for c in f.defaults} | {"replay"}

# The options that are not part of the config.
_PRESENTATION = (
    _Field("big_ok", ("--i-know-this-is-big",), bool, _on(*_CAPPED, default=False),
           "Allow caps past their defaults."),
    _Field("workers", ("--workers",), int, _on("evaluate", "search", "replay", default=1),
           "Accepted for compatibility; ignored, every command runs in one process."),
    _Field("fmt", ("--format",), str, _on(*_COMMANDS, default="human"), "Report format.",
           choices=dict(human="human", json="json")),
    _Field("out", ("--out",), str, _on(*_COMMANDS, default=None), "Write the report to a file."),
    _Field("timestamps", ("--timestamps",), bool, _on(*_COMMANDS, default=False),
           "Include a timestamp in human output."),
)


def _config(command: str, options: dict) -> dict:
    """The config of a parsed command line."""
    config = {"command": command}
    for f in _FIELDS:
        if command in f.defaults:
            value = options[f.key]
            if f.choices is not None:
                value = f.choices[value]
            elif f.bits and value is not None:
                value = _parse_bits(value)
            if f.keep(config, value):
                config[f.key] = value
    return config


def _config_problem(config) -> str | None:
    """Why a replayed config cannot run, or None; missing fields are
    reported when the executor asks for them."""
    if not isinstance(config, dict):
        return "not a JSON object"
    command = config.get("command")
    if not isinstance(command, str) or _COMMANDS.get(command, (None, None))[1] is None:
        return "not a replayable config"
    for f in _FIELDS:
        if f.key not in config:
            continue
        value = config[f.key]
        if type(value) is not f.type or (f.type is list and any(type(x) is not str for x in value)):
            return f"{f.key!r} must be {_JSON_TYPES[f.type]}, not {value!r}"
        if f.choices is not None and value not in f.choices.values():
            return f"unknown {f.key} {value!r}; expected one of {tuple(f.choices.values())}"
    return None


def _check_caps(config: dict, big_ok: bool, source: str | None = None) -> None:
    """Refuse a cap past its default unless acknowledged; ``source`` names a
    replayed file, else the option is named."""
    for f in _FIELDS:
        if f.cap is not None and f.key in config and not big_ok:
            limit = f.cap(config)
            if config[f.key] > limit:
                what = f"{source}: {f.key}" if source else f.flags[-1]
                raise ValueError(f"{what} {config[f.key]} exceeds the default {limit}; "
                                 "acknowledge with --i-know-this-is-big")


def _replayed(path: str) -> dict:
    """The config of a config file or a report, type-checked."""
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: {e}") from None
    config = data.get("config", data) if isinstance(data, dict) else data
    problem = _config_problem(config)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return config


@functools.cache
def _grammar(command: str) -> tuple[list[_Field], dict[str, _Field], dict]:
    """The fields ``command`` takes, each one by its option spellings, and their defaults by key."""
    fields = [f for f in _FIELDS + _PRESENTATION if command in f.defaults]
    spellings = {flag: f for f in fields for flag in f.flags}
    return fields, spellings, {f.key: f.defaults[command] for f in fields}


def _help(command: str | None) -> str:
    """The ``--help`` text of ``command``, or of mealypred itself: a row per command or option."""
    if command is None:
        usage = "[-h] [--version] [-v] COMMAND [options]"
        doc = "Study prediction of bit sequences generated by finite-state machines."
        rows = [(name, text) for name, (text, _) in _COMMANDS.items()] + [
            ("--version", "Show the version."),
            ("-v, --verbose", "Log debug messages (search and exact-walk counters among them) to stderr.")]
    else:
        usage, doc = f"{command} [options]" + " CONFIG_FILE" * (command == "replay"), _COMMANDS[command][0]
        rows = [("CONFIG_FILE", "A config or a report ('-' for stdin).")] * (command == "replay")
        for f in _grammar(command)[0]:
            default = f.defaults[command]
            value = "" if default is False else f" {{{','.join(f.choices)}}}" if f.choices else f" {f.key.upper()}"
            shown = ("(required)" if default is _REQUIRED
                     else f"(default: {default})" if type(default) in (int, str) else "")
            rows.append((", ".join(f.flags) + value, f"{f.help} {shown}".strip()))
    rows.append(("-h, --help", "Show this message."))
    return "\n".join([f"usage: mealypred {usage}", "", doc, ""]
                     + [f"  {name:<26}  {text}" for name, text in rows])


class _Stop(Exception):
    """Ends a command line before it runs: ``(text, exit code)``, help or the
    version with 0, a usage error with 2."""


def _usage(command: str | None, message: str) -> _Stop:
    return _Stop(f"mealypred{' ' + command if command else ''}: error: {message}", EXIT_USAGE)


def _parse(argv: list[str]) -> tuple[str, bool, dict]:
    """The command of a command line, whether ``-v`` came before it, and its
    option values by field key, defaults filled in; replay's file is
    ``config_file``. An option's value is the next token, even one starting
    with '-', or for a long spelling ``--opt=VALUE``. A repeated option keeps
    its last value, a list option appends."""
    at = next((i for i, token in enumerate(argv) if token not in ("-v", "--verbose")), len(argv))
    command = argv[at] if at < len(argv) else None
    if command in ("-h", "--help", "--version"):
        raise _Stop(f"mealypred, version {__version__}" if command == "--version" else _help(None), 0)
    if command not in _COMMANDS:
        raise _usage(None, f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})" if command
                     else "the following arguments are required: COMMAND")
    fields, spellings, options = _grammar(command)
    options, args, tokens = dict(options), [], iter(argv[at + 1:])
    for token in tokens:
        if token in ("-h", "--help"):
            raise _Stop(_help(command), 0)
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        f = spellings.get(name)
        if f is None or eq and f.defaults[command] is False:  # unknown, or a flag given a value
            if token.startswith("-") and token != "-":
                raise _usage(command, f"unrecognized option {token!r}")
            args.append(token)
        elif f.defaults[command] is False:
            options[f.key] = True
        elif (value := value if eq else next(tokens, None)) is None:
            raise _usage(command, f"option {name} expects a value")
        else:
            try:
                value = int(value) if f.type is int else value
            except ValueError:
                raise _usage(command, f"option {name}: invalid integer {value!r}") from None
            if f.choices is not None and value not in f.choices:
                raise _usage(command, f"option {name}: invalid choice {value!r} "
                                      f"(choose from {', '.join(f.choices)})")
            listed = type(options[f.key]) is list
            options[f.key] = [*options[f.key], value] if listed else [value] if f.type is list else value
    if command == "replay" and args:
        options["config_file"] = args.pop(0)
    missing = ["/".join(f.flags) for f in fields if options[f.key] is _REQUIRED]
    missing += ["CONFIG_FILE"] * (command == "replay" and "config_file" not in options)
    if args or missing:
        raise _usage(command, f"unrecognized argument {args[0]!r}" if args
                     else f"the following arguments are required: {', '.join(missing)}")
    return command, at > 0, options


@contextlib.contextmanager
def _debug_log():
    """Send the package's debug log to stderr while the command runs."""
    logger = logging.getLogger("mealypred")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _dispatch(command: str, options: dict) -> None:
    replayed = command == "replay"
    config = _replayed(options["config_file"]) if replayed else _config(command, options)
    _check_caps(config, options.get("big_ok", False), options["config_file"] if replayed else None)
    if command == "enumerate" and options["fmt"] == "human":
        _stream_enumeration(config, options["out"])
        return
    try:
        _run_command(config, options["fmt"], options["out"], options["timestamps"])
    except KeyError as e:
        if not replayed:
            raise
        raise ValueError(f"{options['config_file']}: config lacks {e.args[0]!r}") from None


def _run(argv: list[str]) -> int:
    """Parse and run one command line; return its exit code. ``--help``,
    ``--version`` and a usage error print their text and return 0 or 2."""
    try:
        command, verbose, options = _parse(argv)
        with _debug_log() if verbose else contextlib.nullcontext():
            _dispatch(command, options)
            sys.stdout.flush()
    except _Stop as stop:
        text, code = stop.args
        print(text, file=sys.stderr if code else sys.stdout)
        return code
    except (InconsistentObservation, InconsistentTrainingData) as e:
        print(f"inconsistent data: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (CapExceeded, MemoryError, OverflowError) as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # The reader closed the pipe: exit quietly, and leave nothing for
        # the interpreter to fail to flush at shutdown.
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (MachineFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("Aborted!", file=sys.stderr)
        return 1
    return 0


class _EntryPoint:
    """The ``mealypred`` console script. Calling it runs ``sys.argv[1:]``.
    ``main(args, prog_name, standalone_mode)`` follows the calling convention
    of click commands, which ``click.testing.CliRunner`` relies on; usage
    lines always name ``mealypred``, and the call always ends in
    ``SystemExit`` with the exit code."""

    name = "mealypred"

    def __call__(self):
        self.main()

    def main(self, args=None, prog_name=None, standalone_mode=True):
        raise SystemExit(_run(sys.argv[1:] if args is None else list(args)))


main = _EntryPoint()


if __name__ == "__main__":
    main()
