"""Package layout rules: modules share only public names, import only from
the layers below them, need nothing beyond numpy at run time, load numpy
only where a command uses it, and export exactly what README lists."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import lightlattice

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
    return set(out.split())


def _beyond_the_standard_library(loaded):
    # a bare interpreter's modules include site hooks such as .pth imports
    bare = {name.split(".")[0] for name in _loaded_modules("pass")}
    top = {name.split(".")[0] for name in loaded}
    return {
        name for name in top - bare - set(sys.stdlib_module_names)
        if not name.startswith("_")
    }


def test_importing_the_command_line_loads_neither_numpy_nor_a_process_pool():
    loaded = _loaded_modules("import lightlattice, lightlattice.cli")
    assert _beyond_the_standard_library(loaded) == {"lightlattice"}
    assert "multiprocessing" not in loaded
    assert "concurrent.futures.process" not in loaded


# three scatterers, so every command below accepts it
SCENARIO = {
    "version": "1",
    "chain": {"zeta": [0.01, 0.0], "positions": [0.0, 0.36, 0.72]},
    "modes": [
        {"label": "y", "k": 1.0, "intensity_left": 1.0},
        {"label": "z", "k": 1.0, "intensity_right": 1.0},
    ],
    "dynamics": {"regime": "newtonian", "dt": 0.25, "t_end": 2.0},
}


def _command_line_loads(tmp_path, *argv, scenario=SCENARIO):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    argv = [*argv, "--scenario", str(path), "--out", str(tmp_path / "out")]
    return _beyond_the_standard_library(_loaded_modules(
        f"from lightlattice.cli import main; assert main({argv!r}) == 0"))


def test_evolve_and_fields_run_without_numpy(tmp_path):
    assert _command_line_loads(tmp_path, "evolve") == {"lightlattice"}
    overdamped = dict(SCENARIO, dynamics={"regime": "overdamped", "dt": 0.25, "t_end": 2.0})
    assert _command_line_loads(tmp_path, "relax", scenario=overdamped) == {"lightlattice"}
    assert _command_line_loads(tmp_path, "fields", "--samples", "3") == {"lightlattice"}


def test_zerolines_loads_only_numpy_beyond_the_standard_library(tmp_path):
    argv = ["zerolines", "--d1-steps", "3", "--d2-steps", "3"]
    assert _command_line_loads(tmp_path, *argv) == {"lightlattice", "numpy"}


def test_numpy_is_the_only_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]


def test_readme_lists_every_public_name():
    # the bullets under README's "Public names" heading, and nothing else
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"`([^`]+)`", section[section.index("\n- "):])
    assert sorted(listed) == sorted(set(lightlattice.__all__) - {"__version__"})
