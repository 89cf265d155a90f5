"""Span tracing from outside the package.

The traced run replaces module attributes that callers look up (for
example ``antdyn.simulate.vector_field``, through which both integrators
reach the right-hand side) with wrappers that record one span per call:
a name, start, end and the index of the enclosing span.  Spans stay in
memory as flat arrays and are written out when the run ends; self time
is a span's duration minus the durations of its direct children.

Span names are ``<defining module>.<function>``; the per-layer metrics
of the benchmark are named after them.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module that defines the function, attribute name).  A
# wrapper replaces the function in every antdyn module that imported it.
TARGETS = (
    ("cli.main", "antdyn.cli", "main"),
    ("config.load_config", "antdyn.config", "load_config"),
    ("presets.run_preset", "antdyn.presets", "run_preset"),
    ("presets.phase_grid", "antdyn.presets", "phase_grid"),
    ("simulate.integrate", "antdyn.simulate", "integrate"),
    ("simulate.trajectory_to_csv", "antdyn.simulate", "trajectory_to_csv"),
    ("models.vector_field", "antdyn.models", "vector_field"),
    ("closedform.sample_exact", "antdyn.closedform", "sample_exact"),
    ("closedform.sample_asymptotic", "antdyn.closedform", "sample_asymptotic"),
    ("closedform.exact_state", "antdyn.closedform", "exact_state"),
    ("closedform.f_inverse", "antdyn.closedform", "f_inverse"),
    ("closedform.f_prime", "antdyn.closedform", "f_prime"),
    ("closedform.asymptotic_state", "antdyn.closedform", "asymptotic_state"),
    ("scipy.logsumexp", "antdyn.closedform", "logsumexp"),
    ("analysis.rate_report", "antdyn.analysis", "rate_report"),
    ("analysis.fit_decay_rate", "antdyn.analysis", "fit_decay_rate"),
    ("analysis.verify_convergence", "antdyn.analysis", "verify_convergence"),
    ("stability.equilibrium_report", "antdyn.stability", "equilibrium_report"),
    ("svgfig.line_figure", "antdyn.svgfig", "line_figure"),
    ("svgfig.quiver_figure", "antdyn.svgfig", "quiver_figure"),
    ("reporting.write_text_atomic", "antdyn.reporting", "write_text_atomic"),
)

ROOT_SPAN = "bench.op"


def _text_bytes(text) -> int:
    return len(text.encode())


def _count_steps(counters, args, kwargs, result):
    counters["simulate.steps"] += result.steps


def _count_csv(counters, args, kwargs, result):
    counters["simulate.csv_bytes"] += _text_bytes(result)


def _count_svg(counters, args, kwargs, result):
    counters["svgfig.svg_bytes"] += _text_bytes(result)


def _count_write(counters, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counters["reporting.write_text_atomic.bytes"] += _text_bytes(text)


def _count_verdict(counters, args, kwargs, result):
    counters[f"analysis.verdict.{result.status.value}"] += 1


# Counts read off a call's arguments or result, keyed by span name.
HOOKS = {
    "simulate.integrate": _count_steps,
    "simulate.trajectory_to_csv": _count_csv,
    "svgfig.line_figure": _count_svg,
    "svgfig.quiver_figure": _count_svg,
    "reporting.write_text_atomic": _count_write,
    "analysis.verify_convergence": _count_verdict,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self._id(name)
        clock = time.perf_counter
        names, parents, raised = self.name, self.parent, self.raised
        starts, ends, stack, counters = self.start, self.end, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            raised.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def instrument(self) -> None:
        """Patch every target in every loaded antdyn module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "antdyn" or key.startswith("antdyn."))
        ]
        for name, module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(name, original, HOOKS.get(name))
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        """The recorded spans as numpy columns."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "names": np.array(self.names),
        }


def self_times(spans: dict) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    return duration - covered


def summarize(spans: dict, first_pass: int) -> dict:
    """Per-name totals over all spans, and call counts over the first pass.

    ``first_pass`` is the number of spans recorded during the first
    traced round over the workload's pool; counts taken there repeat
    exactly from run to run for one seed.
    """
    names = list(spans["names"])
    ids = spans["name"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    k = len(names)
    total_ms = 1e3 * np.bincount(ids, weights=duration, minlength=k)
    self_ms = 1e3 * np.bincount(ids, weights=own, minlength=k)
    first = ids[:first_pass]
    calls = np.bincount(first, minlength=k)
    raised = np.bincount(first, weights=spans["raised"][:first_pass], minlength=k)

    newton = 0
    if "closedform.f_prime" in names and "closedform.f_inverse" in names:
        fp, finv = names.index("closedform.f_prime"), names.index("closedform.f_inverse")
        parent = spans["parent"][:first_pass]
        mask = (first == fp) & (parent >= 0)
        newton = int(np.sum(ids[parent[mask]] == finv))

    roots = spans["parent"] < 0
    return {
        "spans": {
            name: {
                "calls_first_pass": int(calls[i]),
                "raised_first_pass": int(raised[i]),
                "total_ms": float(total_ms[i]),
                "self_ms": float(self_ms[i]),
            }
            for i, name in enumerate(names)
        },
        "newton_iters": newton,
        "root_ms": 1e3 * float(np.sum(duration[roots])),
    }
