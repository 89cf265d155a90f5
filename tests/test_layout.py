"""Each module states its interface once: ``antdyn.__all__`` is the public API, and a
leading underscore is the one mark of a private name.  Checked on the syntax trees alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "antdyn"
MODULES = sorted(SRC.glob("*.py"))


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def sibling_imports(path: Path):
    """Each ``from .<sibling> import ...`` of a module, as (line, sibling, names)."""
    return [
        (node.lineno, node.module, [alias.name for alias in node.names])
        for node in ast.walk(tree(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]


def test_only_the_package_assigns_all():
    assigned = []
    for path in MODULES:
        for node in ast.walk(tree(path)):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                assigned.append(f"{path.name}:{node.lineno}")
    assert [a for a in assigned if not a.startswith("__init__.py:")] == []
    assert len(assigned) == 1


def test_no_module_imports_a_private_name_of_a_sibling():
    private = [
        f"{path.name}:{line} {name} from .{sibling}"
        for path in MODULES
        for line, sibling, names in sibling_imports(path)
        for name in names
        if name.startswith("_")
    ]
    assert private == []


def test_the_output_module_needs_no_sibling_and_the_integrator_no_renderer():
    assert sibling_imports(SRC / "_output.py") == []
    assert "reporting" not in {sibling for _, sibling, _ in sibling_imports(SRC / "simulate.py")}
