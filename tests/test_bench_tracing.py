"""The benchmark's trace targets must name functions that exist.

``bench/run.py --trace 1`` wraps every entry of ``TARGETS`` in
``bench/tracing.py``; a target that no longer resolves breaks the traced
run.  The file is parsed, or loaded by path with bytecode writing off,
so the tests write nothing under ``bench/``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from antdyn import run_preset

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def trace_targets():
    for node in ast.parse(TRACING.read_text()).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = [
        (span, module, attribute)
        for span, module, attribute in targets
        if not callable(getattr(importlib.import_module(module), attribute, None))
    ]
    assert missing == []


def test_a_traced_comparison_counts_every_step(tmp_path, monkeypatch):
    # each of comparison-fig4's six runs is one traced integrate call
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, _ in tracing.TARGETS:
        importlib.import_module(module)
    tracer = tracing.Tracer()
    tracer.instrument()
    try:
        run_preset("comparison-fig4", out_root=tmp_path, steps=40)
    finally:
        tracer.restore()
    assert tracer.counters["simulate.steps"] == 240
