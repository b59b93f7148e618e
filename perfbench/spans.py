"""Spans around xkit's public functions, recorded from outside the package.

Each function is wrapped where the calling module looks it up: a module that
did ``from .fields import simulate_model`` holds its own binding, so that
binding is the one replaced.  A span is ``[name, start, end, parent, op,
work]``: ``parent`` indexes the enclosing span (-1 for none), ``op`` is the
operation id (-1 during set-up) and ``work`` a size the span carries (faces
for ``ec_curve``).  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import oracles

# (module, attribute, span name): every binding the workloads reach
BINDINGS = [
    ("xkit.cli", "main", "cli.main"),
    ("xkit.cli", "read_field", "fields.read_field"),
    ("xkit.cli", "estimate_spectral_moments", "fields.estimate_spectral_moments"),
    ("xkit.cli", "ec_curve", "topology.ec_curve"),
    ("xkit.cli", "identify_model", "expectations.identify_model"),
    ("xkit.fields", "simulate_model", "fields.simulate_model"),
    ("xkit.fields", "simulate_gaussian", "fields.simulate_gaussian"),
    ("xkit.topology", "ec_curve", "topology.ec_curve"),
    ("xkit.expectations", "simulate_model", "fields.simulate_model"),
    ("xkit.expectations", "ec_curve", "topology.ec_curve"),
    ("xkit.expectations", "threshold", "expectations.threshold"),
    ("xkit.expectations", "expected_ec_curve", "expectations.expected_ec_curve"),
    ("xkit.expectations", "chi2_gmf", "geometry.chi2_gmf"),
    ("xkit.expectations", "density_derivative_gmf", "geometry.density_derivative_gmf"),
    ("xkit.expectations", "gaussian_gmf", "geometry.gaussian_gmf"),
    ("xkit.expectations", "gaussian_tail", "geometry.gaussian_tail"),
    ("xkit.expectations", "hermite", "geometry.hermite"),
]

# per-layer metrics: name -> unit
PER_LAYER = {
    "xkit.import_s": "s",
    "xkit.warmup_s": "s",
    "fields.draws": "count",
    "fields.draw_ms": "ms",
    "fields.first_draw_ms": "ms",
    "fields.combine_ms": "ms",
    "fields.read_ms": "ms",
    "fields.moments_ms": "ms",
    "cli.calls": "count",
    "cli.main_ms": "ms",
    "cli.self_ms": "ms",
    "topology.ec_curve_calls": "count",
    "topology.ec_curve_ms": "ms",
    "topology.faces_per_s": "faces/s",
    "expectations.identify_ms": "ms",
    "expectations.threshold_ms": "ms",
    "expectations.curve_ms": "ms",
    "expectations.sim_average_ms": "ms",
    "geometry.gmf_calls": "count",
    "geometry.chi2_gmf_us": "us",
    "geometry.closed_form_calls": "count",
    "geometry.quad_calls": "count",
    "geometry.quad_ms": "ms",
}


def _cov_key(cov):
    matrix = getattr(cov, "matrix", None)
    rough = cov.lambda2 if matrix is None else matrix.tobytes()
    return cov.variance, rough


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._drawn: set = set()

    def _label(self, name, args):
        """Refine a span name from the call's arguments."""
        if name == "fields.simulate_gaussian":
            cov, shape, spacing = args[:3]
            key = (_cov_key(cov), tuple(int(n) for n in shape), spacing)
            if key not in self._drawn:
                self._drawn.add(key)
                return name + ".first"
        elif name == "expectations.expected_ec_curve":
            if type(args[0]).__name__ == "GaussianisedModel":
                return name + ".gaussianised"
        return name

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        work = None
        if name == "topology.ec_curve":
            def work(args):
                return oracles.face_total(args[0].values.shape)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self._label(name, args), time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.op,
                    work(args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self):
        for module_name, attr, name in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, ops: int, import_s: float, warmup_s: float) -> dict:
        """Per-layer figures over the timed ops; counts are per op."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op, work in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        selft = defaultdict(float)
        calls = defaultdict(int)
        work = defaultdict(int)
        first_total, first_calls = 0.0, 0
        for i, (name, start, end, parent, op, w) in enumerate(self.spans):
            if name == "fields.simulate_gaussian.first":
                first_total += end - start
                first_calls += 1
            if op < 0:
                continue
            total[name] += end - start
            selft[name] += end - start - child_time[i]
            calls[name] += 1
            work[name] += w

        def mean(table, *names, scale=1e3):
            n = sum(calls[k] for k in names)
            return scale * sum(table[k] for k in names) / n if n else 0.0

        def per_op(*names):
            return sum(calls[k] for k in names) / ops

        draw = ("fields.simulate_gaussian", "fields.simulate_gaussian.first")
        curve = ("expectations.expected_ec_curve", "expectations.expected_ec_curve.gaussianised")
        ec_time = total["topology.ec_curve"]
        values = {
            "xkit.import_s": import_s,
            "xkit.warmup_s": warmup_s,
            "fields.draws": per_op(*draw),
            "fields.draw_ms": mean(total, "fields.simulate_gaussian"),
            "fields.first_draw_ms": 1e3 * first_total / first_calls if first_calls else 0.0,
            "fields.combine_ms": mean(selft, "fields.simulate_model"),
            "fields.read_ms": mean(total, "fields.read_field"),
            "fields.moments_ms": mean(total, "fields.estimate_spectral_moments"),
            "cli.calls": per_op("cli.main"),
            "cli.main_ms": mean(total, "cli.main"),
            "cli.self_ms": mean(selft, "cli.main"),
            "topology.ec_curve_calls": per_op("topology.ec_curve"),
            "topology.ec_curve_ms": mean(total, "topology.ec_curve"),
            "topology.faces_per_s": work["topology.ec_curve"] / ec_time if ec_time else 0.0,
            "expectations.identify_ms": mean(total, "expectations.identify_model"),
            "expectations.threshold_ms": mean(selft, "expectations.threshold"),
            "expectations.curve_ms": mean(selft, *curve),
            "expectations.sim_average_ms": mean(total, curve[1]),
            "geometry.gmf_calls": per_op(
                "geometry.chi2_gmf", "geometry.density_derivative_gmf", "geometry.gaussian_gmf"
            ),
            "geometry.chi2_gmf_us": mean(total, "geometry.chi2_gmf", scale=1e6),
            "geometry.closed_form_calls": per_op("geometry.gaussian_tail", "geometry.hermite"),
            "geometry.quad_calls": per_op("geometry.density_derivative_gmf"),
            "geometry.quad_ms": mean(total, "geometry.density_derivative_gmf"),
        }
        return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
