"""In-memory span tracing of wrlat's layers, applied from outside the package.

`Tracer.patched()` rebinds every name under which a `wrlat` module holds a
traced function (`survey_cli` imports `wr_report`, `decompose_prime` and
`enumerate_primitive_ideals` by name; `ideal_lattice` and `lattice_reduce`
call through their own globals), and patches `IdealLattice.mul` and the two
field constructors on their classes.  Nothing under `src/` changes, and the
original bindings are restored on exit.

A span is `[name, start, end, parent, note]`.  Spans stay in memory; a span's
self time is its duration minus the durations of its direct children.  The
benchmark's own code must call wrlat through module attributes
(`ideal_lattice.decompose_prime(...)`), never through a name it imported, or
its calls are not traced.
"""

import functools
import importlib
import math
import statistics
import sys
import time
from contextlib import contextmanager


def _min_prime_norm(args, result):
    return min(P.norm for P, _ in result.factors)


def _bound_and_count(args, result):
    return args[1], len(result)


def _report_note(args, result):
    return len(result.vectors), result.is_wr


def _count(args, result):
    return len(result)


# (span name, module, function, note on the result)
FUNCTIONS = [
    ("survey_cli.expand", "wrlat.survey_cli", "expand_field_spec", None),
    ("survey_cli.field", "wrlat.survey_cli", "scan_field", None),
    ("survey_cli.emit", "wrlat.survey_cli", "emit_json", None),
    ("wr_certify.cases", "wrlat.wr_certify", "cubic_cases", _count),
    ("wr_certify.cases", "wrlat.wr_certify", "quartic_cases", _count),
    ("ideal_lattice.enumerate", "wrlat.ideal_lattice", "enumerate_primitive_ideals",
     _bound_and_count),
    ("ideal_lattice.decompose", "wrlat.ideal_lattice", "decompose_prime", _min_prime_norm),
    ("ideal_lattice.oracle", "wrlat.ideal_lattice", "stable_subspace_primes", None),
    ("linalg.hnf_upper", "wrlat.linalg", "hnf_upper", None),
    ("lattice_reduce.wr_report", "wrlat.lattice_reduce", "wr_report", _report_note),
    ("lattice_reduce.gram", "wrlat.lattice_reduce", "gram_of_ideal", None),
    ("lattice_reduce.shortest", "wrlat.lattice_reduce", "shortest_vectors", None),
    ("lattice_reduce.lll", "wrlat.lattice_reduce", "lll_reduce_gram", None),
]

# (span name, module, class, method)
METHODS = [
    ("ideal_lattice.mul", "wrlat.ideal_lattice", "IdealLattice", "mul"),
    ("cubic_field.construct", "wrlat.cubic_field", "CubicField", "__init__"),
    ("quartic_field.construct", "wrlat.quartic_field", "QuarticField", "__init__"),
]

ROOT_SPAN = "op"

# per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    "lattice_reduce.lll_s": "s",
    "lattice_reduce.shortest_self_s": "s",
    "lattice_reduce.gram_s": "s",
    "lattice_reduce.wr_report_self_s": "s",
    "lattice_reduce.wr_report.p50_ms": "ms",
    "lattice_reduce.wr_report.p99_ms": "ms",
    "lattice_reduce.minimal_pairs": "count",
    "lattice_reduce.wr_ideals": "count",
    "ideal_lattice.decompose_s": "s",
    "ideal_lattice.decompose.calls": "count",
    "ideal_lattice.decompose.kept_ratio": "ratio",
    "ideal_lattice.oracle_s": "s",
    "ideal_lattice.oracle.calls": "count",
    "ideal_lattice.enumerate_self_s": "s",
    "ideal_lattice.mul_s": "s",
    "ideal_lattice.mul.calls": "count",
    "ideal_lattice.ideals": "count",
    "linalg.hnf_upper_s": "s",
    "linalg.hnf_upper.calls": "count",
    "cubic_field.construct_s": "s",
    "quartic_field.construct_s": "s",
    "wr_certify.cases_s": "s",
    "wr_certify.cases": "count",
    "survey_cli.expand_s": "s",
    "survey_cli.field_max_s": "s",
    "survey_cli.emit_s": "s",
    "trace.wall_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# metrics that must repeat exactly from one traced run of the same input to the next
COUNT_METRICS = [name for name, unit in LAYER_UNITS.items() if unit == "count"]


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.span_cost_s = None

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    @contextmanager
    def patched(self):
        """Rebind every traced function and method; restore on exit."""
        if self.span_cost_s is None:
            self.span_cost_s = self._calibrate()
        undo = []
        try:
            modules = [m for key, m in list(sys.modules.items())
                       if key == "wrlat" or key.startswith("wrlat.")]
            for name, modname, attr, note in FUNCTIONS:
                orig = getattr(importlib.import_module(modname), attr)
                wrapper = self.wrap(name, orig, note)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            for name, modname, clsname, attr in METHODS:
                cls = getattr(importlib.import_module(modname), clsname)
                orig = cls.__dict__[attr]
                undo.append((cls, attr, orig))
                setattr(cls, attr, self.wrap(name, orig))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def _calibrate(self, calls=20000, trials=5):
        """Median added cost of one span, from wrapped versus bare calls."""

        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("calibrate", noop)
        costs = []
        for _ in range(trials):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            probe.reset()
            costs.append(max((t2 - t1) - (t1 - t0), 0.0) / calls)
        return statistics.median(costs)

    def self_times(self):
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self):
        """The per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        own = self.self_times()
        total, self_total, calls = {}, {}, {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_total[name] = self_total.get(name, 0.0) + own[i]
            # inclusive time counts only the outermost of nested same-name spans
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                total[name] = total.get(name, 0.0) + (end - start)

        def notes(name):
            return [s[4] for s in spans if s[0] == name]

        kept = attempted = 0
        for name, _, _, parent, min_norm in spans:
            if name == "ideal_lattice.decompose" and parent >= 0 \
                    and spans[parent][0] == "ideal_lattice.enumerate":
                attempted += 1
                kept += min_norm <= spans[parent][4][0]
        reports = notes("lattice_reduce.wr_report")
        report_ms = sorted((end - start) * 1e3 for name, start, end, _, _ in spans
                           if name == "lattice_reduce.wr_report")
        field_s = [end - start for name, start, end, _, _ in spans
                   if name == "survey_cli.field"]
        root = [end - start for name, start, end, _, _ in spans if name == ROOT_SPAN]
        return {
            "lattice_reduce.lll_s": total.get("lattice_reduce.lll", 0.0),
            "lattice_reduce.shortest_self_s": self_total.get("lattice_reduce.shortest", 0.0),
            "lattice_reduce.gram_s": total.get("lattice_reduce.gram", 0.0),
            "lattice_reduce.wr_report_self_s": self_total.get("lattice_reduce.wr_report", 0.0),
            "lattice_reduce.wr_report.p50_ms": _quantile(report_ms, 0.50),
            "lattice_reduce.wr_report.p99_ms": _quantile(report_ms, 0.99),
            "lattice_reduce.minimal_pairs": sum(pairs for pairs, _ in reports),
            "lattice_reduce.wr_ideals": sum(1 for _, is_wr in reports if is_wr),
            "ideal_lattice.decompose_s": total.get("ideal_lattice.decompose", 0.0),
            "ideal_lattice.decompose.calls": calls.get("ideal_lattice.decompose", 0),
            "ideal_lattice.decompose.kept_ratio": kept / attempted if attempted else 0.0,
            "ideal_lattice.oracle_s": total.get("ideal_lattice.oracle", 0.0),
            "ideal_lattice.oracle.calls": calls.get("ideal_lattice.oracle", 0),
            "ideal_lattice.enumerate_self_s": self_total.get("ideal_lattice.enumerate", 0.0),
            "ideal_lattice.mul_s": total.get("ideal_lattice.mul", 0.0),
            "ideal_lattice.mul.calls": calls.get("ideal_lattice.mul", 0),
            "ideal_lattice.ideals": sum(n for _, n in notes("ideal_lattice.enumerate")),
            "linalg.hnf_upper_s": total.get("linalg.hnf_upper", 0.0),
            "linalg.hnf_upper.calls": calls.get("linalg.hnf_upper", 0),
            "cubic_field.construct_s": total.get("cubic_field.construct", 0.0),
            "quartic_field.construct_s": total.get("quartic_field.construct", 0.0),
            "wr_certify.cases_s": total.get("wr_certify.cases", 0.0),
            "wr_certify.cases": sum(notes("wr_certify.cases")),
            "survey_cli.expand_s": total.get("survey_cli.expand", 0.0),
            "survey_cli.field_max_s": max(field_s, default=0.0),
            "survey_cli.emit_s": total.get("survey_cli.emit", 0.0),
            "trace.wall_s": sum(root),
            "trace.spans": len(spans) - len(root),
            "trace.overhead_s": (len(spans) - len(root)) * (self.span_cost_s or 0.0),
        }


def _quantile(sorted_values, q):
    """Nearest-rank quantile; 0.0 for no values."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
