"""Package layout rules: modules share only public names."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "lightlattice"


def _private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "lightlattice"
        if not inside:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield f"{path.name}:{node.lineno} imports {name} from {node.module or '.'}"


def test_modules_import_no_private_names_from_each_other():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    found = [hit for path in modules for hit in _private_imports(path)]
    assert found == []
