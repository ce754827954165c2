"""Span tracing for the benchmark's traced run, applied from outside the package.

``Tracer`` wraps the public functions of each stemfit layer module. Where
another stemfit module imported such a function by name, that name is wrapped
too, so a call through either name is recorded. The solver's by-name imports
from scipy (SLSQP and NNLS) get spans of their own. Two hot geometry methods
are counted rather than spanned, because a span per call would cost more than
the call; each count is kept per outermost open span, so the write path
(simulate) and the read path (batch) are told apart. Spans stay in memory until the caller writes them out; leaving the
``with`` block puts every original object back.
"""

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("simulator", "trial_io", "geometry", "spring_model", "solver", "batch", "evaluation")

# scipy functions the solver imported by name, and the span names they get
SOLVER_IMPORTS = {"_scipy_minimize": "solver.slsqp", "nnls": "solver.nnls"}

# model kernels taking (r_o, arrays); each call touches every sample once
KERNELS = frozenset(
    {"cost_and_gradient", "constraint_values_jacobian", "cost_hessian", "min_sample_distance"}
)

# span record fields
NAME, START, END, PARENT, TRIAL = range(5)

# counted, not spanned: (class name, method) -> count key
GEOMETRY_COUNTS = {
    "geometry.vec3_built": ("Vec3", "__post_init__"),
    "geometry.rotation_matrix_calls": ("UnitQuaternion", "rotation_matrix"),
}


def _trial_from_args(args, kwargs):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "samples") and hasattr(value, "id"):
            return value.id
    return None


def _trial_from_path(args, kwargs):
    return Path(args[0]).stem


def _trial_from_id_arg(args, kwargs):
    return kwargs["trial_id"] if "trial_id" in kwargs else args[2] if len(args) > 2 else None


_TRIAL_OF = {"load_trial": _trial_from_path, "generate_trial": _trial_from_id_arg}


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span index
    (-1 for none) and trial id (taken from the call's arguments, else
    inherited from the parent span)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.root_counts = Counter()
        self._stack = []
        self._patches = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install(self):
        package = [m for n, m in list(sys.modules.items()) if n == "stemfit" or n.startswith("stemfit.")]
        for layer in LAYERS:
            module = sys.modules[f"stemfit.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if name in KERNELS:
                    wrapper = self._span(f"{layer}.{name}", obj, None, kernel=True)
                else:
                    wrapper = self._span(
                        f"{layer}.{name}", obj, _TRIAL_OF.get(name, _trial_from_args)
                    )
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, attr, wrapper)
        solver = sys.modules["stemfit.solver"]
        for attr, span_name in SOLVER_IMPORTS.items():
            self._patch(solver, attr, self._span(span_name, getattr(solver, attr), None))
        arrays_cls = sys.modules["stemfit.spring_model"].TrialArrays
        from_trial = arrays_cls.__dict__["from_trial"].__func__
        self._patch(
            arrays_cls,
            "from_trial",
            classmethod(self._span("spring_model.TrialArrays.from_trial", from_trial, _trial_from_args)),
        )
        geometry = sys.modules["stemfit.geometry"]
        for key, (cls_name, method) in GEOMETRY_COUNTS.items():
            cls = getattr(geometry, cls_name)
            self._patch(cls, method, self._counter(key, cls.__dict__[method]))

    def _span(self, name, fn, trial_of, kernel=False):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            trial = trial_of(args, kwargs) if trial_of is not None else None
            if trial is None and parent >= 0:
                trial = spans[parent][TRIAL]
            if kernel:
                counts["spring_model.sample_passes"] += len(args[1])
            record = [name, clock(), 0.0, parent, trial]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()

        return wrapper

    def _counter(self, key, fn):
        """Count calls by (key, name of the outermost open span)."""
        root_counts, spans, stack = self.root_counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            root_counts[key, spans[stack[0]][NAME] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap one another (spans from concurrent work); the union
    of their intervals, clipped to the parent, is what gets subtracted.
    """
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def write_spans(spans, path, origin):
    """Write spans as gzip-compressed CSV, times in seconds from ``origin``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["index", "name", "start_s", "end_s", "parent", "trial"])
        for index, span in enumerate(spans):
            writer.writerow(
                [
                    index,
                    span[NAME],
                    f"{span[START] - origin:.9f}",
                    f"{span[END] - origin:.9f}",
                    span[PARENT],
                    "" if span[TRIAL] is None else span[TRIAL],
                ]
            )
