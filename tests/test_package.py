"""Package layout rules: modules share only public names, import only from
the layers below them, need nothing beyond numpy at run time, load numpy
and each of the package's own modules only where a command uses it, and
export exactly what README lists."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def _main_loads(tmp_path, *argv, scenario=SCENARIO):
    """The modules a fresh process holds after main(argv) ran on scenario, or on no
    document when scenario is None."""
    if scenario is not None:
        path = tmp_path / "case.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv = [*argv, "--scenario", str(path)]
    argv = [*argv, "--out", str(tmp_path / "out")]
    return _loaded_modules(f"from lightlattice.cli import main; assert main({argv!r}) == 0")


def _command_line_loads(tmp_path, *argv, scenario=SCENARIO):
    return _beyond_the_standard_library(_main_loads(tmp_path, *argv, scenario=scenario))


def _own_modules(loaded):
    return {name.split(".", 1)[1] for name in loaded if name.startswith("lightlattice.")}


def test_importing_the_package_loads_none_of_its_modules():
    assert _own_modules(_loaded_modules("import lightlattice")) == set()


def test_set_up_loads_only_what_reading_a_scenario_needs(tmp_path):
    # the benchmark's set-up: import the package and its command line, then
    # read a document; no force, equilibrium or lattice code is compiled
    path = tmp_path / "case.json"
    path.write_text(json.dumps(SCENARIO), encoding="utf-8")
    loaded = _loaded_modules(
        f"import lightlattice, lightlattice.cli; lightlattice.load_scenario({str(path)!r})")
    assert _own_modules(loaded) == {"cli", "dynamics", "errors", "scenario", "wavecore"}


OVERDAMPED = dict(SCENARIO, dynamics={"regime": "overdamped", "dt": 0.25, "t_end": 2.0})
PAIR = dict(OVERDAMPED, chain={"zeta": [0.01, 0.0], "positions": [0.0, 0.36]})
PAIR_SWEEP = dict(PAIR, sweep={"axes": [
    {"path": "modes.z.intensity_right", "start": 1.0, "stop": 1.1, "steps": 2}]})


@pytest.mark.parametrize("argv, scenario", [
    (["evolve"], SCENARIO),
    (["relax"], OVERDAMPED),
    (["fields", "--samples", "3"], SCENARIO),
    (["forces", "--steps", "3"], PAIR),
    (["sweep"], PAIR_SWEEP),
], ids=["evolve", "relax", "fields", "forces", "sweep"])
def test_commands_that_seek_no_equilibrium_never_load_equilibria(tmp_path, argv, scenario):
    loaded = _main_loads(tmp_path, *argv, scenario=scenario)
    assert not {"lightlattice.equilibria", "lightlattice.lattice"} & loaded


def test_building_the_parser_loads_only_the_set_up_modules():
    # the --preset help lists every preset without building one
    loaded = _loaded_modules("from lightlattice.cli import build_parser; build_parser()")
    assert _own_modules(loaded) == {"cli", "dynamics", "errors", "scenario", "wavecore"}


def test_evolve_and_fields_run_without_numpy(tmp_path):
    assert _command_line_loads(tmp_path, "evolve") == {"lightlattice"}
    overdamped = dict(SCENARIO, dynamics={"regime": "overdamped", "dt": 0.25, "t_end": 2.0})
    assert _command_line_loads(tmp_path, "relax", scenario=overdamped) == {"lightlattice"}
    assert _command_line_loads(tmp_path, "fields", "--samples", "3") == {"lightlattice"}


def test_zerolines_loads_only_numpy_beyond_the_standard_library(tmp_path):
    argv = ["zerolines", "--d1-steps", "3", "--d2-steps", "3"]
    assert _command_line_loads(tmp_path, *argv) == {"lightlattice", "numpy"}


def test_a_pair_sweep_judges_stability_without_numpy(tmp_path):
    # a pair's Jacobian restricted to the complement of the uniform shift is
    # 1x1, so its eigenvalue is its one entry
    assert _command_line_loads(tmp_path, "sweep", scenario=PAIR_SWEEP) == {"lightlattice"}


def test_design_runs_without_numpy(tmp_path):
    assert _command_line_loads(tmp_path, "design", "--steps", "3", scenario=None) == {"lightlattice"}


def test_numpy_is_the_only_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]


def _readme_names():
    """(name, module) for each name in the bullets under README's "Public names"
    heading, the module being the one its bullet names in parentheses."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    return [(name, re.search(r"\((\w+)\):", bullet).group(1))
            for bullet in section.split("\n- ")[1:]
            for name in re.findall(r"`([^`]+)`", bullet)]


def test_readme_lists_every_public_name():
    listed = [name for name, _ in _readme_names()]
    assert sorted(listed) == sorted(set(lightlattice.__all__) - {"__version__"})


def test_every_public_name_resolves_to_its_home_module_object():
    # in a fresh process, so each name goes through the package's lazy lookup
    _loaded_modules(
        "import importlib, lightlattice; "
        f"wrong = [name for name, module in {_readme_names()!r} "
        "if getattr(lightlattice, name) is not "
        "getattr(importlib.import_module('lightlattice.' + module), name)]; "
        "assert wrong == [], wrong")


def test_dir_and_star_import_cover_the_public_names():
    # in a fresh process, where no name is bound before its first use
    _loaded_modules(
        "import lightlattice; listed = set(dir(lightlattice)); "
        "assert set(lightlattice.__all__) | {'cli', 'equilibria', 'wavecore'} <= listed; "
        "namespace = {}; exec('from lightlattice import *', namespace); "
        "assert set(lightlattice.__all__) <= set(namespace)")


def test_a_module_resolves_as_a_package_attribute_without_an_import():
    loaded = _loaded_modules(
        "import sys, lightlattice; "
        "assert lightlattice.equilibria is sys.modules['lightlattice.equilibria']; "
        "lightlattice.equilibria.force_jacobian")
    assert "lightlattice.equilibria" in loaded


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        lightlattice.no_such_name
    assert not hasattr(lightlattice, "force_jacobian")  # a module name, not a package one
