"""Per-layer spans, recorded from outside fpkit by wrapping module functions.

The layers are fpkit's modules.  `Tracer.install` replaces each wrapped
function in every ``fpkit`` module that holds it, so calls through a
by-name import (``cli`` imports the genus functions, ``identities`` imports
``chi_symbolic``, ``classify`` imports ``parallel_map``) and calls through
module globals (``genus`` calling its own functions) are all recorded.

Each span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``op`` the benchmark op that caused
it.  Spans stay in memory, in flat arrays, until `write_spans`.  A span's
self time is its duration minus the time its direct children cover; the run
is one thread, so children never overlap and nothing waits on another layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

from workloads import CHECK_NAMES

CHECK_FUNCTIONS = (
    "check_weight_balance",
    "check_hattori_parity",
    "check_odd_count_even_n",
    "check_c1_sum",
    "check_min_weight_balance",
    "check_abbv_vanishing",
    "check_chern_classes",
)
#: layer -> (module, wrapped function names).
LAYERS = {
    "cli": ("fpkit.cli", ("main",)),
    "data": ("fpkit.data", ("parse_data", "load_data", "serialize_data")),
    "algebra": ("fpkit.algebra", ("poly_gcd", "ratfun_sum", "geometric_rewrite")),
    "genus": ("fpkit.genus", ("chi_symbolic", "chi_series", "chi_counting", "txy_evaluate")),
    "identities": (
        "fpkit.identities",
        ("validate_all", "evaluate_filters", "abbv_c1_power") + CHECK_FUNCTIONS,
    ),
    "multigraph": (
        "fpkit.multigraph",
        ("build_multigraph", "describes", "export_dot", "sub_multigraph", "induced_data"),
    ),
    "classify": ("fpkit.classify", ("survey", "trichotomy_match", "random_graph_data")),
    "parallel": ("fpkit.parallel", ("parallel_map",)),
}
#: ``TruncatedSeries.__mul__`` is a method, so it is patched on its class.
SERIES_MUL = "algebra.series_mul"
#: Functions whose raised exceptions are reported as ``<name>.errors``.
ERROR_COUNTED = (
    "cli.main",
    "data.parse_data",
    "data.load_data",
    "identities.validate_all",
    "genus.txy_evaluate",
    "classify.random_graph_data",
)
#: The survey's reject tallies are keyed by the check names.
FILTER_NAMES = CHECK_NAMES


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]
    names.insert(names.index("algebra.geometric_rewrite"), SERIES_MUL)
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in ERROR_COUNTED:
        units[f"{name}.errors"] = "count"
    for fn in CHECK_FUNCTIONS:
        units[f"identities.{fn}.fails"] = "count"
    units["genus.chi_symbolic.repeat_ratio"] = "ratio"
    units["genus.constant_ratio"] = "ratio"
    units["multigraph.balance_errors"] = "count"
    units["classify.candidates"] = "count"
    units["classify.survivor_ratio"] = "ratio"
    for name in FILTER_NAMES:
        units[f"classify.rejects.{name}"] = "count"
    units["trace.items_per_s"] = "1/s"
    units["trace.untraced_items_per_s"] = "1/s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _data_key(data) -> tuple:
    return (data.half_dim, tuple((p.id, p.sign, p.weights) for p in data.points))


class Tracer:
    def __init__(self) -> None:
        self.names = span_names()
        self._name_ids = {name: index for index, name in enumerate(self.names)}
        self._name = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._op = array("q")
        self.counters: Counter = Counter()
        self.op = -1
        self.patch_sites: list[tuple[str, str]] = []
        self._stack: list[int] = []
        self._symbolic_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- result hooks -------------------------------------------------------

    def _on_check(self, name: str):
        def hook(args, outcome) -> None:
            if not outcome.passed:
                self.counters[f"{name}.fails"] += 1

        return hook

    def _on_chi_symbolic(self, args, result) -> None:
        data, i = args[0], args[1]
        self._symbolic_keys.add((self.op, _data_key(data), i))
        self.counters["genus.constant"] += bool(result.constant)

    def _on_survey(self, args, report) -> None:
        self.counters["classify.candidates"] += report.candidates
        self.counters["classify.survivors"] += len(report.survivors)
        for name, count in report.rejects.items():
            self.counters[f"classify.rejects.{name}"] += count

    def _on_error(self, name: str, exc: Exception) -> None:
        self.counters[f"{name}.errors"] += 1
        if type(exc).__name__ == "BalanceError":
            self.counters["multigraph.balance_errors"] += 1

    def _wrap(self, name: str, fn, on_result=None):
        name_id = self._name_ids[name]
        names, starts, ends = self._name, self._start, self._end
        parents, ops, stack, clock = self._parent, self._op, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._on_error(name, exc)
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def spans(self):
        """Every span as ``(name, start, end, parent, op)``."""
        for name_id, start, end, parent, op in zip(
            self._name, self._start, self._end, self._parent, self._op
        ):
            yield self.names[name_id], start, end, parent, op

    def __len__(self) -> int:
        return len(self._end)

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "fpkit" or name.startswith("fpkit.")
        ]
        for layer, (module_name, fns) in LAYERS.items():
            module = importlib.import_module(module_name)
            for fn in fns:
                name = f"{layer}.{fn}"
                original = getattr(module, fn)
                if fn in CHECK_FUNCTIONS:
                    hook = self._on_check(name)
                else:
                    hook = {
                        "genus.chi_symbolic": self._on_chi_symbolic,
                        "classify.survey": self._on_survey,
                    }.get(name)
                wrapper = self._wrap(name, original, hook)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, attr, original))
                            setattr(holder, attr, wrapper)
                            self.patch_sites.append((holder.__name__, attr))
        series = importlib.import_module("fpkit.algebra").TruncatedSeries
        original = series.__dict__["__mul__"]
        self._restore.append((series, "__mul__", original))
        series.__mul__ = self._wrap(SERIES_MUL, original)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        covered = [0.0] * len(self)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans()):
            calls[name] += 1
            self_s[name] += end - start - covered[index]
        values: dict[str, float] = {}
        for name in self.names:
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        counters = self.counters
        for name in ERROR_COUNTED:
            values[f"{name}.errors"] = counters[f"{name}.errors"]
        for fn in CHECK_FUNCTIONS:
            values[f"identities.{fn}.fails"] = counters[f"identities.{fn}.fails"]
        symbolic_calls = calls["genus.chi_symbolic"]
        values["genus.chi_symbolic.repeat_ratio"] = (
            symbolic_calls / len(self._symbolic_keys) if symbolic_calls else 0.0
        )
        values["genus.constant_ratio"] = (
            counters["genus.constant"] / symbolic_calls if symbolic_calls else 0.0
        )
        values["multigraph.balance_errors"] = counters["multigraph.balance_errors"]
        candidates = counters["classify.candidates"]
        values["classify.candidates"] = candidates
        values["classify.survivor_ratio"] = (
            counters["classify.survivors"] / candidates if candidates else 0.0
        )
        for name in FILTER_NAMES:
            values[f"classify.rejects.{name}"] = counters[f"classify.rejects.{name}"]
        return values

    def write_spans(self, path) -> None:
        origin = self._start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('["name", "start_s", "end_s", "parent", "op"]\n')
            for name, start, end, parent, op in self.spans():
                row = [name, round(start - origin, 7), round(end - origin, 7), parent, op]
                handle.write(json.dumps(row) + "\n")
