"""Smoke tests: the scripts in scripts/ run and print what they report."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


HEADERS = {
    "coupling_constants": "i_p,K,kappa1,kappa2,f_ext,omega1,omega2,offset",
    "stationary_distance_sweep": "n,d_grid,stability_grid,d_exact,shift,classification",
    "perturbation_forces": "splitter,x,f_sw,f_p,f_total",
}


def test_every_script_has_a_smoke_test():
    assert {path.stem for path in SCRIPTS.glob("*.py")} == set(HEADERS)


@pytest.mark.parametrize("name", sorted(HEADERS))
def test_script_runs(name, monkeypatch, capsys):
    # scripts that parse options must not see the test runner's arguments
    monkeypatch.setattr("sys.argv", [f"{name}.py"])
    header = HEADERS[name]
    assert _load(name).main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert header in lines
    rows = lines[lines.index(header) + 1:]
    assert rows and rows[0].count(",") == header.count(",")
