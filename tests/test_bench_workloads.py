"""The benchmark's workloads must name ``antdyn`` functions that exist.

``bench/workloads.py`` imports some names and looks others up as module
attributes at call time; a name that no longer resolves breaks the
benchmark run.  The file is parsed, not imported, so the test writes
nothing under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

# What the workloads use today; a parser that found less would check nothing.
EXPECTED = {
    ("antdyn.cli", "main"),
    ("antdyn.closedform", "sample_exact"),
    ("antdyn.closedform", "sample_asymptotic"),
    ("antdyn.closedform", "asymptotic_state"),
    ("antdyn.closedform", "sigma_coefficients"),
    ("antdyn.analysis", "rate_report"),
    ("antdyn.models", "ModelSpec"),
    ("antdyn.models", "PathSystem"),
    ("antdyn.presets", "preset_names"),
    ("antdyn.simulate", "check_sum_bounds"),
}


def dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def antdyn_names(source: str) -> set:
    """(module, name) of every ``antdyn`` name the source imports or looks up."""
    tree = ast.parse(source)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "antdyn":
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = dotted(node)
            if chain and chain.startswith("antdyn."):
                module, name = chain.rsplit(".", 1)
                names.add((module, name))
    return names


def test_every_workload_name_resolves():
    names = antdyn_names(WORKLOADS.read_text())
    assert EXPECTED <= names
    missing = [
        (module, name)
        for module, name in sorted(names)
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
