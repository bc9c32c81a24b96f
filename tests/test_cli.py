import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lightlattice import cli, equilibria, forcefield
from lightlattice.cli import main, preset_document, preset_names
from lightlattice.scenario import scenario_from_document, scenario_hash

EXACT_CROSSING_HIGH = 0.373400547
PLAIN_PRESET_HASHES = {
    "drift_intensity": "2c90997b6ef6",
    "drift_wavenumber": "eba4795f64e2",
    "gap_vs_intensity": "6fd637700d5b",
    "self_ordering": "e5c032f26f11",
    "stationary_distance_map": "acbf15444f30",
}
# correlated_oscillation's positions are closed forms, so its hash is pinned
# too, at each perturbation scale the run reads
CORRELATED_OSCILLATION_HASHES = {1.0: "6c35638ce884", 0.0: "05d638d0f8e8"}


def write_doc(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def pair_doc(**extra):
    doc = {
        "version": "1",
        "chain": {"zeta": [0.01, 0.0], "positions": [0.0, 0.36]},
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
        "output": {"format": "both", "prefix": "pair"},
    }
    doc.update(extra)
    return doc


def read_csv(path):
    header = []
    rows = []
    columns = None
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    return header, columns, rows


def test_version_flag():
    assert main(["--version"]) == 0


def test_scenario_and_preset_are_exclusive(tmp_path):
    path = write_doc(tmp_path, pair_doc())
    assert main(["fields", "--scenario", path, "--preset", "self_ordering",
                 "--out", str(tmp_path)]) == 2
    assert main(["fields", "--out", str(tmp_path)]) == 2
    assert main(["fields", "--preset", "no_such_preset",
                 "--out", str(tmp_path)]) == 2


def test_malformed_scenario_leaves_no_output(tmp_path):
    doc = pair_doc()
    doc["chain"]["bogus"] = 1
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["fields", "--scenario", path, "--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


def test_a_wavenumber_that_overflows_is_a_scenario_error(tmp_path, capsys):
    doc = pair_doc()
    doc["modes"][0]["k"] = 1e308  # finite, but k times K_REF is not
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["fields", "--scenario", path, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("where, mutate", [
    ("dynamics/t_end", lambda d: d["dynamics"].update(t_end=math.inf)),
    ("chain/positions/1", lambda d: d["chain"].update(positions=[0.0, math.inf])),
    ("chain/positions/0", lambda d: d["chain"].update(positions=[math.nan])),
    ("chain/zeta/0", lambda d: d["chain"].update(zeta=[math.nan, 0.0])),
])
def test_non_finite_numbers_in_a_scenario_exit_2(tmp_path, capsys, where, mutate):
    doc = pair_doc(dynamics={"regime": "overdamped", "dt": 1.0, "t_end": 10.0})
    mutate(doc)
    path = write_doc(tmp_path, doc)
    text = (tmp_path / "case.json").read_text()
    assert "Infinity" in text or "NaN" in text  # JSON literals, as load_scenario reads them
    out = tmp_path / "out"
    assert main(["relax", "--scenario", path, "--out", str(out)]) == 2
    assert f"invalid scenario at {where}:" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_fields_outputs(tmp_path):
    path = write_doc(tmp_path, pair_doc())
    out = tmp_path / "out"
    assert main(["fields", "--scenario", path, "--out", str(out),
                 "--samples", "101"]) == 0
    header, columns, rows = read_csv(out / "pair_fields.csv")
    assert any("lightlattice" in h for h in header)
    assert any("scenario" in h for h in header)
    assert not any(str(tmp_path) in h for h in header)  # no local paths
    assert columns == ["x", "i_total", "i_y", "i_z"]
    assert len(rows) == 101

    summary = json.loads((out / "pair_fields_summary.json").read_text())
    assert "_meta" in summary
    y = summary["modes"]["y"]
    # lossless pair: reflected plus transmitted power is the input power
    assert y["reflectance"] + y["transmittance"] == pytest.approx(1.0, abs=1e-10)

    _, amp_cols, amp_rows = read_csv(out / "pair_amplitudes.csv")
    assert amp_cols[:3] == ["mode", "splitter", "x"]
    assert len(amp_rows) == 4  # 2 modes x 2 splitters


def test_forces_table(tmp_path):
    path = write_doc(tmp_path, pair_doc())
    out = tmp_path / "out"
    assert main(["forces", "--scenario", path, "--out", str(out),
                 "--d-min", "0.1", "--d-max", "0.4", "--steps", "31"]) == 0
    _, columns, rows = read_csv(out / "pair_forces.csv")
    assert columns == ["d", "f1_exact", "f2_exact", "f1_approx", "f2_approx"]
    assert len(rows) == 31
    # approximate zero sits exactly at the eighth-wavelength marks
    d_vals = [float(r[0]) for r in rows]
    f1a = [float(r[3]) for r in rows]
    i_closest = min(range(31), key=lambda i: abs(d_vals[i] - 0.125))
    assert abs(f1a[i_closest]) < 5e-4


def test_forces_leaves_approx_blank_for_mirrored_beams(tmp_path):
    # the closed forms take beam y from the left and beam z from the right
    doc = pair_doc()
    doc["chain"]["zeta"] = [0.02, 0.0]
    doc["modes"] = [
        {"label": "y", "k": 1.0, "intensity_right": 1.0},
        {"label": "z", "k": 1.0, "intensity_left": 2.0},
    ]
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["forces", "--scenario", path, "--out", str(out),
                 "--d-min", "0.02", "--d-max", "0.4", "--steps", "20"]) == 0
    _, _, rows = read_csv(out / "pair_forces.csv")
    assert float(rows[0][0]) == 0.02
    assert float(rows[0][1]) == pytest.approx(0.003862, abs=1e-6)
    assert all(math.isnan(float(r[3])) and math.isnan(float(r[4])) for r in rows)


def test_forces_requires_pair(tmp_path):
    doc = pair_doc()
    doc["chain"]["positions"] = [0.0, 0.3, 0.6]
    path = write_doc(tmp_path, doc)
    assert main(["forces", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_relax_finds_stable_gap(tmp_path):
    doc = pair_doc(dynamics={"regime": "overdamped", "dt": 5.0,
                             "t_end": 200000.0, "force_tol": 1e-11})
    doc["output"]["capture_every"] = 200
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["relax", "--scenario", path, "--out", str(out)]) == 0
    summary = json.loads((out / "pair_summary.json").read_text())
    assert summary["termination"] == "force_tol"
    assert summary["partial"] is False
    assert summary["final_gaps"][0] == pytest.approx(EXACT_CROSSING_HIGH,
                                                     abs=1e-6)
    assert summary["residual_force_sup"] < 1e-10
    assert summary["comoving_residual"] < 1e-10

    _, columns, rows = read_csv(out / "pair_trajectory.csv")
    assert columns[0] == "t"
    assert len(rows) >= 2


def test_relax_rejects_newtonian(tmp_path):
    doc = pair_doc(dynamics={"regime": "newtonian", "dt": 0.5, "t_end": 10.0})
    path = write_doc(tmp_path, doc)
    assert main(["relax", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_dynamics_block_required(tmp_path):
    path = write_doc(tmp_path, pair_doc())
    assert main(["relax", "--scenario", path, "--out", str(tmp_path)]) == 2
    assert main(["evolve", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_evolve_newtonian(tmp_path):
    doc = pair_doc(dynamics={"regime": "newtonian", "dt": 0.25,
                             "t_end": 50.0, "friction": 0.05,
                             "initial_velocities": [0.001, 0.0]})
    doc["output"]["capture_every"] = 10
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["evolve", "--scenario", path, "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "pair_trajectory.csv")
    assert "v1" in columns and "x2" in columns
    summary = json.loads((out / "pair_summary.json").read_text())
    assert summary["termination"] == "t_end"


def test_separation_violation_writes_partial_and_exits_3(tmp_path):
    doc = pair_doc(dynamics={"regime": "overdamped", "dt": 5.0,
                             "t_end": 100000.0, "min_separation": 0.05})
    doc["chain"]["zeta"] = [0.1, 0.0]
    doc["chain"]["positions"] = [0.0, 0.06]
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["evolve", "--scenario", path, "--out", str(out)]) == 3
    summary = json.loads((out / "pair_summary.json").read_text())
    assert summary["partial"] is True
    assert summary["termination"] == "separation_violation"
    assert (out / "pair_trajectory.csv").exists()


def test_sweep_records_cell_failures_in_row(tmp_path, monkeypatch):
    monkeypatch.setenv("LIGHTLATTICE_THREADS", "1")
    doc = pair_doc(
        dynamics={"regime": "overdamped", "dt": 0.1, "t_end": 500.0,
                  "min_separation": 0.05, "force_tol": 1e-9},
        sweep={"axes": [{"path": "chain.positions.1",
                         "start": 0.06, "stop": 0.45, "steps": 2}]},
    )
    doc["chain"]["zeta"] = [0.1, 0.0]
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", path, "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "pair_sweep.csv")
    assert "error" in columns
    state_col = columns.index("stability")
    err_col = columns.index("error")
    assert rows[0][state_col] == "failed"
    assert "SeparationViolation" in rows[0][err_col]
    assert rows[0][columns.index("comoving_residual")] == "nan"
    assert rows[0][columns.index("dt_stiffness")] == "nan"
    assert rows[-1][state_col] != "failed"


def test_sweep_records_a_singular_cell_as_failed(tmp_path, monkeypatch):
    # a gain pole (zeta = -i, m22 = 0) fails the cell's first solve; the row
    # names the error and the next cells still run
    monkeypatch.setenv("LIGHTLATTICE_THREADS", "1")
    doc = {
        "version": "1",
        "chain": {"zeta": [0.0, -1.0], "positions": [0.0], "allow_gain": True},
        "modes": [{"label": "y", "k": 1.0, "intensity_left": 1.0}],
        "dynamics": {"regime": "overdamped", "dt": 0.1, "t_end": 1.0},
        "sweep": {"axes": [{"path": "modes.y.intensity_left",
                            "start": 1.0, "stop": 2.0, "steps": 2}]},
    }
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "sweep.csv")
    assert columns[-2:] == ["stability", "error"]
    assert [row[-2:] for row in rows] == [
        ["failed", "SingularBoundary: |m22| = 0.000e+00 below 1e-14 for mode 'y'"]] * 2


def test_sweep_flags_an_rk4_ghost_state_as_not_stationary(tmp_path, monkeypatch):
    # one cell of stationary_distance_map at two steps: at dt = 2 the pair
    # sits on a fixed point of the RK4 map where F2 - F1 is not zero; at
    # dt = 0.5 it relaxes to the gap Newton finds
    monkeypatch.setenv("LIGHTLATTICE_THREADS", "1")
    doc = cli._preset_stationary_distance_map()
    doc["modes"][1].update(k=1.2, intensity_right=2.0)
    doc["dynamics"]["t_end"] = 400.0
    doc["sweep"] = {"axes": [{"path": "dynamics.dt", "start": 0.5, "stop": 2.0, "steps": 2}]}
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    _, columns, rows = read_csv(out / "sweep.csv")
    assert columns[:2] == ["dynamics_dt", "gap_1"]
    col = {name: i for i, name in enumerate(columns)}
    converged, ghost = rows
    assert converged[col["stability"]] == "stable"
    assert float(converged[col["gap_1"]]) == pytest.approx(0.3176276090, abs=1e-9)
    assert float(converged[col["comoving_residual"]]) < 1e-11
    assert ghost[col["stability"]] == "not_stationary"
    assert float(ghost[col["gap_1"]]) == pytest.approx(0.3027472698, abs=1e-9)
    assert float(ghost[col["comoving_residual"]]) == pytest.approx(0.011, abs=1e-3)
    # dt |lambda| / mu past RK4's real stability interval (-2.79, 0)
    assert float(ghost[col["dt_stiffness"]]) > 2.79 > float(converged[col["dt_stiffness"]])


def test_sweep_propagates_programming_errors(tmp_path, monkeypatch):
    import lightlattice.dynamics as dynamics

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the integrator")

    monkeypatch.setenv("LIGHTLATTICE_THREADS", "1")
    monkeypatch.setattr(dynamics, "evolve", broken)
    doc = pair_doc(
        dynamics={"regime": "overdamped", "dt": 1.0, "t_end": 10.0},
        sweep={"axes": [{"path": "modes.z.intensity_right",
                         "start": 1.0, "stop": 1.1, "steps": 2}]},
    )
    path = write_doc(tmp_path, doc)
    with pytest.raises(RuntimeError, match="bug in the integrator"):
        main(["sweep", "--scenario", path, "--out", str(tmp_path / "out")])


def test_sweep_requires_axes_and_dynamics(tmp_path):
    path = write_doc(tmp_path, pair_doc(
        dynamics={"regime": "overdamped", "dt": 1.0, "t_end": 10.0}))
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == 2

    doc = pair_doc(sweep={"axes": [{"path": "modes.y.intensity_left",
                                    "start": 1.0, "stop": 2.0, "steps": 2}]})
    path2 = write_doc(tmp_path, doc, name="nodyn.json")
    assert main(["sweep", "--scenario", path2, "--out", str(tmp_path)]) == 2


def test_threads_env_validation(tmp_path, monkeypatch):
    doc = pair_doc(
        dynamics={"regime": "overdamped", "dt": 5.0, "t_end": 100.0},
        sweep={"axes": [{"path": "modes.z.intensity_right",
                         "start": 1.0, "stop": 1.1, "steps": 2}]},
    )
    path = write_doc(tmp_path, doc)
    monkeypatch.setenv("LIGHTLATTICE_THREADS", "zero")
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == 2
    monkeypatch.setenv("LIGHTLATTICE_THREADS", "0")
    assert main(["sweep", "--scenario", path, "--out", str(tmp_path)]) == 2


def test_threads_default_to_one(monkeypatch):
    from lightlattice.cli import _thread_count

    monkeypatch.delenv("LIGHTLATTICE_THREADS", raising=False)
    assert _thread_count() == 1


def test_design_table(tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--out", str(out), "--d", "0.125",
                 "--zeta", "0.01"]) == 0
    _, columns, rows = read_csv(out / "design.csv")
    k_col = columns.index("k_z_over_k_y")
    err_col = columns.index("error")
    ok = [r for r in rows if r[err_col] == ""]
    ratios = sorted(float(r[k_col]) for r in ok)
    assert any(abs(v - 1.0) < 0.05 for v in ratios)
    assert any(abs(v - 3.0) < 0.05 for v in ratios)
    # out-of-domain distances appear as flagged rows, not crashes
    assert main(["design", "--out", str(out), "--d", "0.25"]) == 0
    _, columns2, rows2 = read_csv(out / "design.csv")
    messages = {r[columns2.index("error")] for r in rows2}
    assert any("balance" in m for m in messages)


def test_modes_report(tmp_path):
    doc = {
        "version": "1",
        "chain": {"zeta": [0.1, 0.0], "positions": [0.0, 0.468]},
        "modes": [
            {"label": "sw", "k": 1.0, "intensity_left": 1.0,
             "intensity_right": 1.0},
            {"label": "p", "k": 1.0 / 0.99, "intensity_left": 0.5,
             "zeta_override": [0.1, 0.0]},
        ],
        "output": {"format": "both", "prefix": "pairmodes"},
    }
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["modes", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "pairmodes_modes.json").read_text())
    model = report["model"]
    assert abs(model["identities"]["a"]) < model["identities"]["tolerance"]
    assert model["K"] > 0
    assert report["normal_modes"]["omega1"] > 0
    assert (out / "pairmodes_coupling_sweep.csv").exists()

    _, columns, rows = read_csv(out / "pairmodes_coupling_sweep.csv")
    assert columns[0] == "i_p"
    assert len(rows) == 21


def test_modes_takes_the_mass_of_a_dynamics_block(tmp_path):
    doc = {
        "version": "1",
        "chain": {"zeta": [0.1, 0.0], "positions": [0.0, 0.468]},
        "modes": [{"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0}],
    }

    def model(name, doc, argv):
        out = tmp_path / name
        path = write_doc(tmp_path, doc, f"{name}.json")
        assert main(["modes", "--scenario", path, "--out", str(out)] + argv) == 0
        return json.loads((out / "modes.json").read_text())["model"]

    block = model("block", dict(doc, dynamics={"regime": "newtonian", "dt": 0.5,
                                               "t_end": 10.0, "mass": 2.5}), [])
    assert block["mass"] == 2.5
    assert block == model("flag", doc, ["--mass", "2.5"])


def test_modes_honours_a_standing_wave_override(tmp_path):
    # an override of 0.3 on a 0.1 chain is the 0.3 chain without one
    def model(zeta, override):
        doc = {
            "version": "1",
            "chain": {"zeta": [zeta, 0.0], "positions": [0.0, 0.468]},
            "modes": [
                {"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0},
                {"label": "p", "k": 1.0 / 0.99, "intensity_left": 0.5,
                 "zeta_override": [0.1, 0.0]},
            ],
        }
        if override is not None:
            doc["modes"][0]["zeta_override"] = [override, 0.0]
        out = tmp_path / f"out_{zeta}_{override}"
        assert main(["modes", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 0
        return json.loads((out / "modes.json").read_text())["model"]

    assert model(0.1, 0.3) == model(0.3, None)
    assert model(0.1, 0.3)["K"] != model(0.1, None)["K"]


@pytest.mark.parametrize("extra", [
    {"modes": [{"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0,
                "zeta_override": [0.1, 0.05]}]},
    {"modes": [{"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0},
               {"label": "p", "k": 1.01, "intensity_left": 0.5},
               {"label": "q", "k": 1.2, "intensity_left": 0.5}]},
    # the lattice reads the intensities alone: a phase of 1 gave the positions of 0
    {"chain": {"zeta": [0.1, 0.0], "positions": [0.0, 0.468]},
     "modes": [{"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0,
                "phase_left": 1.0},
               {"label": "p", "k": 1.0 / 0.99, "intensity_left": 0.5}]},
], ids=["complex-override", "three-modes", "phased-standing-wave"])
def test_modes_refuses_input_it_cannot_honour(tmp_path, extra):
    path = write_doc(tmp_path, pair_doc(**extra))
    out = tmp_path / "out"
    assert main(["modes", "--scenario", path, "--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


def test_zerolines_grid(tmp_path):
    doc = {
        "version": "1",
        "chain": {"zeta": [0.05, 0.0], "positions": [0.0, 0.3, 0.6]},
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
        "output": {"format": "csv", "prefix": "triple"},
    }
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["zerolines", "--scenario", path, "--out", str(out),
                 "--d1-steps", "5", "--d2-steps", "5"]) == 0
    _, columns, rows = read_csv(out / "triple_zerolines.csv")
    assert columns == ["d1", "d2", "f1", "f2", "f3"]
    assert len(rows) == 25
    diag = [r for r in rows if r[0] == r[1]]
    for r in diag:
        assert abs(float(r[3])) < 1e-12


def test_zerolines_writes_the_grid_cell_by_cell(tmp_path):
    doc = pair_doc()
    doc["chain"].update(zeta=[0.05, 0.01], positions=[0.0, 0.3, 0.6])
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["zerolines", "--scenario", path, "--out", str(out),
                 "--d1-steps", "4", "--d2-steps", "5"]) == 0
    scn = scenario_from_document(doc)
    grid = equilibria.zero_force_grid(
        scn.chain, scn.mode_list(),
        cli._grid(0.05, 0.95, 4, "d1"), cli._grid(0.05, 0.95, 5, "d2"),
    )
    expected = [
        ",".join(cli._fmt(v) for v in (a, b, grid.f1[i, j], grid.f2[i, j], grid.f3[i, j]))
        for i, a in enumerate(grid.d1) for j, b in enumerate(grid.d2)
    ]
    lines = (out / "pair_zerolines.csv").read_text().splitlines()
    assert lines[5:] == expected


def test_float_tables_never_reach_the_cell_formatter(tmp_path, monkeypatch):
    # a row of Python floats and strings takes the writer's %-template; a
    # numpy scalar in it would fall back to formatting cell by cell
    cells = []
    fmt = cli._fmt

    def spy(x):
        cells.append(type(x).__name__)
        return fmt(x)

    monkeypatch.setattr(cli, "_fmt", spy)
    pair = write_doc(tmp_path, pair_doc(dynamics={
        "regime": "newtonian", "dt": 0.25, "t_end": 5.0, "friction": 0.05,
        "initial_velocities": [0.001, 0.0],
    }), "pair.json")
    triple = pair_doc()
    triple["chain"]["positions"] = [0.0, 0.3, 0.6]
    triple = write_doc(tmp_path, triple, "triple.json")
    out = str(tmp_path / "out")
    assert main(["forces", "--scenario", pair, "--out", out, "--steps", "9"]) == 0
    assert main(["evolve", "--scenario", pair, "--out", out]) == 0
    assert cells == []
    # zerolines formats each grid coordinate once, never a row's cells
    assert main(["zerolines", "--scenario", triple, "--out", out,
                 "--d1-steps", "3", "--d2-steps", "4"]) == 0
    assert cells == ["float"] * (3 + 4)
    # the spy does see the cells the template path leaves to _fmt
    assert main(["fields", "--scenario", pair, "--out", out, "--samples", "3"]) == 0
    assert "str" in cells and "int" in cells


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])
_CELLS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.integers(),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@given(rows=st.lists(st.lists(_CELLS, max_size=7) | st.lists(_FLOATS, max_size=7),
                     max_size=8))
@example(rows=[[]])
@example(rows=[[-0.0, math.nan, math.inf, -math.inf], [np.float64(-0.0), np.float64(math.nan)]])
@example(rows=[["%", -0.0, "%s"], [math.nan, ",", math.inf, ""], ["", -math.inf, "%%s"]])
@example(rows=[["%s", "%"], [","], [""], [-0.0, "", math.nan]])
def test_write_csv_matches_formatting_cell_by_cell(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "cells.csv"
    cli._write_csv(path, "test", "0" * 12, "cells", ["c"], rows)
    with open(path, encoding="utf-8", newline="") as fh:
        body = fh.read().split("\n", 5)[5]
    assert body == "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


@pytest.mark.parametrize("value, text", [
    (np.float32(0.1), "0.10000000149011612"),
    (np.float32(-0.0), "-0"),
    (np.float32(math.inf), "inf"),
    (np.float32(math.nan), "nan"),
    (np.int32(-7), "-7"),
    (np.int32(2 ** 31 - 1), "2147483647"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
])
def test_numpy_scalars_the_cell_strategy_does_not_draw(value, text):
    assert cli._fmt(value) == text


def test_a_row_of_numpy_bools_writes_the_bytes_of_python_bools(tmp_path):
    rows = [[True, False, 0.5, 3], [False, True, -0.0, -1]]
    numpy_rows = [[np.bool_(v) if isinstance(v, bool) else v for v in row] for row in rows]
    python, numpy = tmp_path / "python.csv", tmp_path / "numpy.csv"
    cli._write_csv(python, "test", "0" * 12, "cells", ["a", "b", "c", "d"], rows)
    cli._write_csv(numpy, "test", "0" * 12, "cells", ["a", "b", "c", "d"], numpy_rows)
    assert numpy.read_bytes() == python.read_bytes()
    assert python.read_bytes().endswith(b"true,false,0.5,3\nfalse,true,-0,-1\n")


def test_grid_commands_make_no_per_point_forces_exact_calls(tmp_path, monkeypatch):
    # forces_exact and the row-by-row fallback both evaluate ForceField.forces
    calls = []
    forces = forcefield.ForceField.forces

    def counted(self, positions=None):
        calls.append(positions)
        return forces(self, positions)

    monkeypatch.setattr(forcefield.ForceField, "forces", counted)
    pair = write_doc(tmp_path, pair_doc(), "pair.json")
    triple = pair_doc()
    triple["chain"]["positions"] = [0.0, 0.3, 0.6]
    triple = write_doc(tmp_path, triple, "triple.json")
    out = str(tmp_path / "out")
    assert main(["forces", "--scenario", pair, "--out", out]) == 0
    assert main(["zerolines", "--scenario", triple, "--out", out]) == 0
    assert calls == []


def test_grid_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    pair = write_doc(tmp_path, pair_doc(), "pair.json")
    triple = pair_doc()
    triple["chain"].update(zeta=[0.05, 0.01], positions=[0.0, 0.3, 0.6])
    triple = write_doc(tmp_path, triple, "triple.json")
    digests = {}
    for rows in (1, 3, 7, 256, 1000):
        monkeypatch.setattr(forcefield, "_BATCH_ROWS", rows)
        out = tmp_path / f"rows{rows}"
        assert main(["forces", "--scenario", pair, "--out", str(out)]) == 0
        assert main(["zerolines", "--scenario", triple, "--out", str(out)]) == 0
        digests[rows] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in out.iterdir()}
    assert {"pair_forces.csv", "pair_zerolines.csv"} <= set(digests[1])
    assert all(d == digests[1] for d in digests.values())


def test_presets_cover_perturbation_kinds():
    names = preset_names()
    assert "self_ordering" in names
    assert "correlated_oscillation" in names
    assert "resonant_transfer" in names


def test_plain_presets_keep_their_scenario_hashes(tmp_path):
    assert set(preset_names()) == set(PLAIN_PRESET_HASHES) | {
        "correlated_oscillation", "resonant_transfer",
    }
    for name, sha in PLAIN_PRESET_HASHES.items():
        out = tmp_path / name
        assert main(["fields", "--preset", name, "--samples", "2",
                     "--out", str(out)]) == 0
        header, _, _ = read_csv(out / "fields.csv")
        assert f"# scenario {sha} preset:{name}" in header


def test_correlated_oscillation_keeps_its_scenario_hashes(tmp_path):
    for scale, sha in CORRELATED_OSCILLATION_HASHES.items():
        assert scenario_hash(preset_document("correlated_oscillation", i_p_scale=scale)) == sha
        out = tmp_path / str(scale)
        assert main(["fields", "--preset", "correlated_oscillation", "--ip-scale", str(scale),
                     "--samples", "2", "--out", str(out)]) == 0
        header, _, _ = read_csv(out / "fields.csv")
        assert f"# scenario {sha} preset:correlated_oscillation" in header


def test_fields_honours_a_lone_x_bound(tmp_path):
    # drift_intensity spans x = 0 .. 4.5, so the default range is -1 .. 5.5
    for bound, xs in ((["--x-min", "5"], [5.0, 5.25, 5.5]),
                      (["--x-max", "0"], [-1.0, -0.5, 0.0])):
        out = tmp_path / bound[0]
        assert main(["fields", "--preset", "drift_intensity", *bound,
                     "--samples", "3", "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "fields.csv")
        assert [float(r[0]) for r in rows] == xs


def test_preset_runs_fields(tmp_path):
    out = tmp_path / "out"
    assert main(["fields", "--preset", "drift_intensity",
                 "--out", str(out)]) == 0
    files = {p.name for p in out.iterdir()}
    assert "fields.csv" in files  # presets carry no output prefix


@pytest.mark.parametrize("argv", [
    ["fields", "--samples", "1"],
    ["fields", "--samples", "0"],
    ["fields", "--x-min", "1.0", "--x-max", "0.0"],
    ["forces", "--steps", "1"],
    ["zerolines", "--d2-steps", "1"],
    ["design", "--steps", "1"],
    ["fields", "--x-min", "7"],
    ["fields", "--x-max", "-2"],
    ["design", "--d", "nan"],
    ["design", "--d-min", "nan"],
    ["design", "--band-max", "nan"],
    ["design", "--band-max", "inf"],
    ["design", "--d", "0"],
    ["design", "--d", "-0.1"],
    ["design", "--k-y", "0"],
    ["design", "--k-y", "inf"],
    ["design", "--i-y", "-1"],
    ["design", "--i-y", "nan"],
    ["design", "--zeta", "nan"],
    ["design", "--zeta", "1e200"],
    ["modes", "--ip-steps", "0"],
    ["modes", "--ip-steps", "1"],
    ["modes", "--ip-max", "0"],
    ["modes", "--ip-max", "-1"],
    ["modes", "--ip-max", "nan"],
    ["modes", "--mass", "0"],
    ["modes", "--mass", "-1"],
    ["fields", "--x-min", "nan"],
    ["fields", "--x-max", "inf"],
    ["forces", "--d-min", "0"],
    ["forces", "--d-min", "-0.1"],
    ["zerolines", "--d1-min", "-0.1"],
    ["modes", "--mass", "5"],
    ["design", "--band-max", "-1"],
    ["design", "--band-max", "0"],
    ["design", "--band-max", "1e-12"],
])
def test_grids_need_two_points_on_an_increasing_range(tmp_path, argv):
    doc = pair_doc()
    if argv[0] == "zerolines":
        doc["chain"]["positions"] = [0.0, 0.3, 0.6]
    if argv[0] == "modes":
        doc["modes"] = [{"label": "sw", "k": 1.0, "intensity_left": 1.0,
                         "intensity_right": 1.0}]
        if "--mass" in argv:  # refused only when a dynamics block sets the mass
            doc["dynamics"] = {"regime": "newtonian", "dt": 0.5, "t_end": 10.0}
    if argv[0] != "design":
        argv = argv + ["--scenario", write_doc(tmp_path, doc)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("argv", [["--d", "1e308", "--k-y", "10"], ["--d", "1250.000001"]],
                         ids=["infinite-phase", "past-the-cap"])
def test_design_refuses_a_distance_past_its_branch_cap(tmp_path, capsys, argv):
    # at --k-y 1 the default band holds 8 d periods of k_z d, at most 10,000
    out = tmp_path / "out"
    assert main(["design", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: design: d = {float(argv[1])!r}, k_y = ")
    assert " and band = (1e-09, " in err and " at most 10000 periods of k_z d in the band" in err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["zerolines", "--d1-steps", "1"], "--d1-steps must be at least 2, got 1"),
    (["zerolines", "--d1-min", "0.9", "--d1-max", "0.1"], "--d1-max 0.1 must exceed --d1-min 0.9"),
    (["zerolines", "--d2-steps", "1"], "--d2-steps must be at least 2, got 1"),
    (["zerolines", "--d2-min", "0.9", "--d2-max", "0.1"], "--d2-max 0.1 must exceed --d2-min 0.9"),
    (["fields", "--samples", "1"], "--samples must be at least 2, got 1"),
    (["fields", "--x-min", "1", "--x-max", "0"], "--x-max 0.0 must exceed --x-min 1.0"),
], ids=["d1-steps", "d1-range", "d2-steps", "d2-range", "fields-samples", "fields-range"])
def test_a_grid_refusal_names_its_options_and_values(tmp_path, capsys, argv, message):
    doc = pair_doc()
    if argv[0] == "zerolines":
        doc["chain"]["positions"] = [0.0, 0.3, 0.6]
    out = tmp_path / "out"
    assert main(argv + ["--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_ip_scale_needs_a_perturbation_preset(tmp_path):
    out = str(tmp_path / "out")
    path = write_doc(tmp_path, pair_doc())
    for bad in ("-1", "nan", "inf"):
        assert main(["fields", "--preset", "correlated_oscillation",
                     "--ip-scale", bad, "--out", out]) == 2
    assert main(["fields", "--scenario", path, "--ip-scale", "7",
                 "--out", out]) == 2
    assert main(["fields", "--preset", "self_ordering", "--ip-scale", "7",
                 "--out", out]) == 2
    assert main(["fields", "--preset", "correlated_oscillation",
                 "--ip-scale", "0.5", "--out", out]) == 0


@pytest.mark.parametrize("command,regime", [
    ("relax", "overdamped"),
    ("sweep", "overdamped"),
    ("evolve", "newtonian"),
])
def test_dynamics_on_an_empty_chain_is_rejected(tmp_path, command, regime):
    doc = pair_doc(dynamics={"regime": regime, "dt": 1.0, "t_end": 2.0})
    doc["chain"]["positions"] = []
    if command == "sweep":
        doc["sweep"] = {"axes": [{"path": "modes.z.intensity_right",
                                  "start": 0.5, "stop": 1.0, "steps": 2}]}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "out"
    assert main([command, "--scenario", path, "--out", str(out)]) == 2
    assert not out.exists() or not list(out.iterdir())


SHORT_RUN = {"regime": "overdamped", "dt": 1.0, "t_end": 2.0}
STANDING_WAVE = {"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0}
TRIPLE = {"zeta": [0.05, 0.0], "positions": [0.0, 0.3, 0.6]}


@pytest.mark.parametrize("command, extra, argv, files", [
    ("fields", {}, ["--samples", "3"], ["amplitudes.csv", "fields.csv", "fields_summary.json"]),
    ("forces", {}, ["--steps", "3"], ["forces.csv"]),
    ("relax", {"dynamics": SHORT_RUN}, [], ["summary.json", "trajectory.csv"]),
    ("evolve", {"dynamics": SHORT_RUN}, [], ["summary.json", "trajectory.csv"]),
    ("sweep", {"dynamics": SHORT_RUN, "sweep": {"axes": [
        {"path": "modes.z.intensity_right", "start": 1.0, "stop": 1.1, "steps": 2}]}},
     [], ["sweep.csv"]),
    ("modes", {"modes": [STANDING_WAVE]}, ["--ip-steps", "2"], ["coupling_sweep.csv", "modes.json"]),
    ("zerolines", {"chain": TRIPLE}, ["--d1-steps", "2", "--d2-steps", "2"], ["zerolines.csv"]),
])
def test_every_artifact_carries_the_prefix_and_names_its_subcommand(tmp_path, command, extra,
                                                                    argv, files):
    doc = pair_doc(**extra)
    out = tmp_path / "out"
    assert main([command, "--scenario", write_doc(tmp_path, doc), "--out", str(out), *argv]) == 0
    assert sorted(p.name for p in out.iterdir()) == [f"pair_{name}" for name in files]
    scenario = f"{scenario_hash(doc)} case.json"
    for name in files:
        text = (out / f"pair_{name}").read_text()
        if name.endswith(".json"):
            assert json.loads(text)["_meta"] == {
                "tool": f"lightlattice {cli.__version__}", "scenario": scenario, "command": command,
            }
        else:
            assert text.splitlines()[1:3] == [f"# scenario {scenario}", f"# command {command}"]


def test_the_design_table_has_no_prefix_and_names_design(tmp_path):
    out = tmp_path / "out"
    assert main(["design", "--d", "0.2", "--no-refine", "--out", str(out)]) == 0
    assert [p.name for p in out.iterdir()] == ["design.csv"]
    header = (out / "design.csv").read_text().splitlines()
    assert header[1].endswith(" design-parameters") and header[2] == "# command design"


@pytest.mark.parametrize("axis, message", [
    ({"path": "modes.w.intensity_right", "start": 1.0, "stop": 1.1},
     "sweep path 'modes.w.intensity_right': no list entry labelled 'w'"),
    ({"path": "modes.z.intensty_right", "start": 1.0, "stop": 1.1},
     "invalid scenario at modes/1: unknown key 'intensty_right'"),
    ({"path": "modes.z.intensity_right", "start": 1.0, "stop": -1.0},
     "invalid scenario at modes/1/intensity_right: -1.0 is less than 0"),
], ids=["unknown-label", "misspelt-key", "negative-intensity"])
def test_an_invalid_sweep_document_exits_2_before_any_cell_runs(tmp_path, capsys, monkeypatch,
                                                                 axis, message):
    # these cells used to be written as failed rows, the last after the first cell's run
    def run(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "settle", run)
    doc = pair_doc(dynamics=SHORT_RUN, sweep={"axes": [dict(axis, steps=2)]})
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra, message", [
    ("modes", {"chain": TRIPLE, "modes": [STANDING_WAVE]},
     "mode analysis needs a two-scatterer lattice"),
    ("modes", {}, "the first mode must drive from both sides"),
    ("modes", {"modes": [STANDING_WAVE, {"label": "p", "k": 1.01, "intensity_right": 0.5}]},
     "the perturbation mode must drive from the left"),
    ("zerolines", {}, "zero-force map needs a three-scatterer chain"),
], ids=["modes-triple", "modes-one-sided", "modes-perturbation-from-right", "zerolines-pair"])
def test_an_analysis_refuses_a_chain_or_drive_it_does_not_model(tmp_path, capsys, command, extra,
                                                                message):
    out = tmp_path / "out"
    assert main([command, "--scenario", write_doc(tmp_path, pair_doc(**extra)),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_modes_on_a_pair_without_a_trap_site_exits_3(tmp_path, capsys):
    doc = pair_doc(modes=[STANDING_WAVE])
    doc["chain"]["zeta"] = [0.0, 0.0]
    out = tmp_path / "out"
    assert main(["modes", "--scenario", write_doc(tmp_path, doc), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "error: no stable trap site; the four trap seeds gave: "
        "marginal, marginal, marginal, marginal\n"
    )
    assert not out.exists()
