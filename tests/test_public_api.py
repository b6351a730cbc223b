"""Every public name the package exports, and every public method and
property of its classes, is reached by the package itself or by the
acceptance checks, so no exported path lives on for its tests alone."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aperylike"


def _exports() -> set[str]:
    names = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def _references(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _methods() -> set[str]:
    """``Class.name`` for each public method and property of the package."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def _attributes(path: Path) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)}


READERS = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
READERS.append(ROOT / "tests" / "test_acceptance.py")


def test_every_export_is_reached():
    reached = set().union(*map(_references, READERS))
    assert sorted(_exports() - reached) == []


def test_every_public_method_is_reached():
    # read as an attribute, under any class: a method is reached if some
    # reader names it
    reached = set().union(*map(_attributes, READERS))
    assert sorted(m for m in _methods() if m.partition(".")[2] not in reached) == []
