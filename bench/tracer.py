"""Spans and counters around the library's layers, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
module of the package that binds it (``mealypred.cli.evaluate_exhaustive``
as well as ``mealypred.evaluation.evaluate_exhaustive``), so calls through
any import path are seen; ``uninstall`` puts the originals back. Nothing in
``src/`` changes.

Spans are kept in memory as ``(name, start, end, parent, op, call)`` and are
only turned into metrics, or written out, after the timed pass. ``call`` is 1
for the span that starts a call; a generator gets one span per resumption, so
its time spent inside counts and its calls count once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

from mealypred import predictors

# Public functions traced with spans, per module of the package. A name the
# package no longer has is skipped.
SPANNED = {
    "automaton": ("parse_machine", "serialize_machine", "machine_id"),
    "spectral": ("stationary_frequencies", "perfect_knowledge_error_bound", "adjacency",
                 "normalized_matrix"),
    "evaluation": ("evaluate_exhaustive", "evaluate_monte_carlo", "batch_select",
                   "consistency_profile", "default_batch_predictors",
                   "predictor_machine_error", "find_selection_witness"),
    "enumeration": ("enumerate_machines", "count_machines", "canonicalize", "relabel",
                    "orbit_size", "is_strongly_connected", "raw_machine_count"),
    "search": ("search_best_predictor", "search_after_training", "automaton_as_predictor"),
    "predictors": ("trace_predictor",),
}

# Private engine entry points, counted per op (no spans) to tell which exact
# engine ran. Missing names are skipped, so the tracer outlives the engines.
ENGINES = {
    "_sweep_range_chunk": "sweep",
    "_sweep_matrix_chunk": "sweep",
    "_tree_totals": "tree",
    "_generic_totals": "loop",
}
ENGINE_PATHS = ("sweep", "tree", "loop")


def _count_exhaustive(result, counts):
    counts["evaluation.evaluate_exhaustive.sequences"] += 1 << result.t


def _count_monte_carlo(result, counts):
    counts["evaluation.evaluate_monte_carlo.sample_steps"] += result.samples * result.t


def _count_stationary(result, counts):
    counts["spectral.stationary_frequencies.iterations"] += result.iterations
    counts["spectral.stationary_frequencies.empirical"] += result.method == "empirical"


def _count_search(name):
    def count(result, counts):
        counts[f"search.{name}.candidates"] += result.evaluated
    return count


# Extra counts recorded when a spanned call returns, from its result.
COUNTERS = {
    "evaluation.evaluate_exhaustive": _count_exhaustive,
    "evaluation.evaluate_monte_carlo": _count_monte_carlo,
    "spectral.stationary_frequencies": _count_stationary,
    "search.search_best_predictor": _count_search("search_best_predictor"),
    "search.search_after_training": _count_search("search_after_training"),
}
GENERATORS = {"enumeration.enumerate_machines"}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mealypred" or name.startswith("mealypred."))]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: str | None = None
        self._op_engines: set[str] = set()
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str, call: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, call])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = time.perf_counter() if end is None else end
        self._stack.pop()

    def start_op(self, op_id: str) -> None:
        self._op = op_id
        self._op_engines = set()
        self._open("cli", 1)

    def end_op(self, report_bytes: int, end: float) -> None:
        """Close the op's root span at ``end`` and record its report size."""
        self._close(self._stack[0], end)
        self.counts["cli.report_bytes"] += report_bytes
        for path in self._op_engines:
            self.counts[f"engine.{path}_ops"] += 1
        self._op = None

    # -- wrappers -----------------------------------------------------------

    def _spanned(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                call = 1
                while True:
                    idx = tracer._open(name, call)
                    call = 0
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    tracer.counts[name + ".yielded"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(result, tracer.counts)
            return result
        return wrapper

    def _engine(self, path: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._op_engines.add(path)
            return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each package module that binds it."""
        modules = _package_modules()
        replacements = {}
        for short, names in SPANNED.items():
            home = sys.modules[f"mealypred.{short}"]
            for fn_name in names:
                fn = getattr(home, fn_name, None)
                if fn is not None:
                    replacements[id(fn)] = (fn, self._spanned(f"{short}.{fn_name}", fn))
        evaluation = sys.modules["mealypred.evaluation"]
        for fn_name, path in ENGINES.items():
            fn = getattr(evaluation, fn_name, None)
            if fn is not None:
                replacements[id(fn)] = (fn, self._engine(path, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for cls in vars(predictors).values():
            if isinstance(cls, type) and issubclass(cls, predictors.Predictor):
                for method in ("predict", "observe"):
                    fn = cls.__dict__.get(method)
                    if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                        self._saved.append((cls, method, fn))
                        setattr(cls, method, self._counted(f"predictors.{method}.calls", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = Counter()
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        out: Counter = Counter()
        for name, _, _, _, _, call in self.spans:
            out[name] += call
        return dict(out)

    def write(self, path: str) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _call in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

