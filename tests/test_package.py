"""Package layout rules: modules share only public names, import only from
the layers below them, and need nothing beyond numpy at run time."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lightlattice"


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


def _loaded_modules(code):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code += "; import sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return {name.split(".")[0] for name in out.split()}


def test_the_command_line_loads_only_numpy_beyond_the_standard_library():
    # a bare interpreter's modules include site hooks such as .pth imports
    bare = _loaded_modules("pass")
    loaded = _loaded_modules("import lightlattice.cli")
    third_party = {
        name for name in loaded - bare - set(sys.stdlib_module_names)
        if not name.startswith("_")
    }
    assert third_party == {"lightlattice", "numpy"}


def test_numpy_is_the_only_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]
