"""Each module states its interface once: ``antdyn.__all__`` is the public API, and a
leading underscore is the one mark of a private name.  Checked on the syntax trees alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "antdyn"
MODULES = sorted(SRC.glob("*.py"))


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def sibling_imports(path: Path, at_run_time=False):
    """Each ``from .<sibling> import ...`` of a module, as (line, sibling, names);
    ``at_run_time`` leaves out those under ``if TYPE_CHECKING:``."""
    module = tree(path)
    typing_only = set()
    if at_run_time:
        typing_only = {
            id(inner)
            for node in ast.walk(module)
            if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
            for statement in node.body
            for inner in ast.walk(statement)
        }
    return [
        (node.lineno, node.module, [alias.name for alias in node.names])
        for node in ast.walk(module)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and id(node) not in typing_only
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


def test_the_output_layer_computes_nothing():
    # the renderers take what they render: at run time they need no sibling but
    # the number kernels and the writer
    computing = [
        f"{name}:{line} .{sibling}"
        for name in ("_output.py", "reporting.py", "svgfig.py")
        for line, sibling, _ in sibling_imports(SRC / name, at_run_time=True)
        if sibling != "_output"
    ]
    assert computing == []


def test_only_the_scalar_stepper_compiles_code():
    compiling = sorted(
        {
            path.name
            for path in MODULES
            for node in ast.walk(tree(path))
            if isinstance(node, ast.Name) and node.id in ("exec", "compile")
        }
    )
    assert compiling == ["_scalar.py"]
