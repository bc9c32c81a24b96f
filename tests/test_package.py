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


# each module may import only from the modules below it; cli and the
# package root sit on top and may import anything
LAYERS = {
    "errors": set(),
    "wavecore": {"errors"},
    "forcefield": {"wavecore", "errors"},
    "dynamics": {"forcefield", "wavecore", "errors"},
    "equilibria": {"forcefield", "wavecore", "errors"},
    "lattice": {"equilibria", "forcefield", "wavecore", "errors"},
    "scenario": {"dynamics", "wavecore", "errors"},
}
TOP = {"cli", "__init__"}


def _package_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            yield node.module or "", node.lineno


def test_modules_import_only_from_the_layers_below():
    modules = {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}
    assert set(modules) == set(LAYERS) | TOP
    found = [
        f"{name}.py:{line} imports from .{target}"
        for name, path in modules.items()
        if name not in TOP
        for target, line in _package_imports(path)
        if target not in LAYERS[name]
    ]
    assert found == []
