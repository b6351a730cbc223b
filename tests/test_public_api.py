"""Every public name the package exports is reached by the package itself or
by the acceptance checks, so no exported path lives on for its tests alone."""
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


def test_every_export_is_reached():
    readers = [f for f in sorted(PACKAGE.glob("*.py")) if f.name != "__init__.py"]
    readers.append(ROOT / "tests" / "test_acceptance.py")
    reached = set().union(*map(_references, readers))
    assert sorted(_exports() - reached) == []
