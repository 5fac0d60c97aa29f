"""In-memory span tracing around the public functions of each sgdm_sched layer.

The tracer replaces every binding of a hooked function inside the loaded
``sgdm_sched`` modules with a wrapper that records one span per call: span
name, start and end (``perf_counter_ns``), parent span and request id.  Spans
live in flat ``array`` columns so a multi-million-span run stays small, and
are written out once, when the run ends.  A layer's self time is its span
durations minus the time covered by its child spans.

The package under test is never edited: hooks are resolved by name at
install time, and a hook whose function no longer exists is reported as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

PACKAGE = "sgdm_sched"

# (span name, module, attributes).  "*.name" means the method ``name`` of
# every class defined in that module; the alternatives list names a later
# refactor may use for the same job.
SPAN_HOOKS = (
    ("optim.batch_indices", "optim", ("batch_indices",)),
    ("optim.step", "optim", ("step",)),
    ("optim.run", "optim", ("run",)),
    ("problems.minibatch_gradient", "problems", ("*.minibatch_gradient", "*.minibatch_grad")),
    ("problems.observe", "problems", ("*.loss", "*.full_gradient", "*.value_and_grad")),
    ("problems.check_iterate", "problems", ("*.check_iterate",)),
    ("problems.build", "problems", ("*.generate",)),
    ("schedules.build", "schedules", ("build_constant_bs_table", "build_increasing_bs_table")),
    ("schedules.validate_admissible", "schedules", ("validate_admissible",)),
    ("theory.lyapunov_value", "theory", ("lyapunov_value",)),
    ("theory.build_report", "theory", ("build_report",)),
    ("harness.run_experiment", "harness", ("run_experiment",)),
    ("harness.write_artifacts", "harness", ("write_artifacts",)),
    ("cli.load_config", "cli", ("load_config",)),
    ("cli.main", "cli", ("main",)),
)
# Called too often for a span each; counted only.
COUNT_HOOKS = (("fmt.fmt_float.calls", "_fmt", ("fmt_float",)),)
SPAN_NAMES = tuple(h[0] for h in SPAN_HOOKS)


def _gathered(args, kwargs) -> int:
    """Samples a mini-batch gradient call gathers: the size of its index argument."""
    idx = args[2] if len(args) > 2 else kwargs.get("indices", kwargs.get("idx"))
    return int(np.size(idx))


# span name -> (counter name, function of the call's arguments)
ARG_COUNTERS = {"problems.minibatch_gradient": ("problems.samples_gathered", _gathered)}


class Tracer:
    """Span store plus named counters; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.request = -1
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._request = array("i")
        self._stack = [-1]

    # -- recording -----------------------------------------------------------
    def _span_wrapper(self, name_id: int, fn, counter=None):
        name_col, start_col, end_col = self._name, self._start, self._end
        parent_col, request_col, stack = self._parent, self._request, self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs)
            i = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            request_col.append(self.request)
            end_col.append(0)
            stack.append(i)
            start_col.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[i] = perf_counter_ns()
                stack.pop()

        return traced

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every hooked function; remember the hooks that found nothing."""
        for name_id, (span, module, attrs) in enumerate(SPAN_HOOKS):
            counter = ARG_COUNTERS.get(span)
            if not self._hook(module, attrs, lambda fn: self._span_wrapper(name_id, fn, counter)):
                self.absent.append(span)
        for counter, module, attrs in COUNT_HOOKS:
            if not self._hook(module, attrs, lambda fn: self._count_wrapper(counter, fn)):
                self.absent.append(counter)

    def _hook(self, module: str, attrs, make) -> bool:
        mod = sys.modules.get(f"{PACKAGE}.{module}")
        if mod is None:
            return False
        found = False
        for attr in attrs:
            if attr.startswith("*."):
                method = attr[2:]
                for cls in vars(mod).values():
                    if isinstance(cls, type) and cls.__module__ == mod.__name__:
                        found |= self._wrap_method(cls, method, make)
            elif callable(getattr(mod, attr, None)):
                self._rebind(getattr(mod, attr), make)
                found = True
        return found

    def _wrap_method(self, cls: type, method: str, make) -> bool:
        raw = cls.__dict__.get(method)
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        elif callable(raw):
            wrapped = make(raw)
        else:
            return False
        setattr(cls, method, wrapped)
        return True

    def _rebind(self, original, make) -> None:
        """Replace every module-level binding of ``original`` in the package."""
        wrapped = make(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)

    # -- results ---------------------------------------------------------------
    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "request": np.frombuffer(self._request, dtype=np.int32).copy(),
        }


def span_totals(cols: dict[str, np.ndarray]):
    """Per span name: (calls, busy ns, self ns), plus total root-span ns.

    Self time is a span's duration minus the summed durations of its direct
    children; one thread runs everything, so children never overlap.
    """
    k = len(SPAN_NAMES)
    dur = cols["end_ns"] - cols["start_ns"]
    parent = cols["parent"]
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - child_ns
    calls = np.bincount(cols["name"], minlength=k)
    busy = np.bincount(cols["name"], weights=dur, minlength=k)
    own = np.bincount(cols["name"], weights=self_ns, minlength=k)
    root_ns = float(dur[~has_parent].sum())
    return calls, busy, own, root_ns
