"""Smoke tests: the scripts in scripts/ run and print what they report.

drift_patterns.py takes several seconds and is not run here.
"""

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
    "self_ordering": "n,gap_min,gap_max,spread,interior_mean,interior_err",
}


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


def test_perturbation_dynamics_reports_transfer_and_buckling(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["perturbation_dynamics.py"])
    assert _load("perturbation_dynamics").main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.strip().startswith("ratio:") for line in lines)
    buckled = [line for line in lines if "chain buckled at step " in line]
    assert len(buckled) == 1
    assert buckled[0].count("step ") == 1
