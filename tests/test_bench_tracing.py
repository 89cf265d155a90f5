"""The benchmark's trace targets must name functions that exist.

``bench/run.py --trace 1`` wraps every entry of ``TARGETS`` in
``bench/tracing.py``; a target that no longer resolves breaks the traced
run.  The file is parsed, not imported, so the test writes nothing
under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

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
