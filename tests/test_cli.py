import hashlib
import json
import math

import pytest

from lightlattice import cli, equilibria, forcefield
from lightlattice.cli import main, preset_names

EXACT_CROSSING_HIGH = 0.373400547
PLAIN_PRESET_HASHES = {
    "drift_intensity": "2c90997b6ef6",
    "drift_wavenumber": "eba4795f64e2",
    "gap_vs_intensity": "6fd637700d5b",
    "self_ordering": "e5c032f26f11",
    "stationary_distance_map": "acbf15444f30",
}


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
    import lightlattice.cli as cli

    def broken(*args, **kwargs):
        raise RuntimeError("bug in the integrator")

    monkeypatch.setenv("LIGHTLATTICE_THREADS", "1")
    monkeypatch.setattr(cli, "evolve", broken)
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
], ids=["complex-override", "three-modes"])
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


def test_grid_commands_make_no_per_point_forces_exact_calls(tmp_path, monkeypatch):
    calls = []
    forces_exact = forcefield.forces_exact

    def counted(chain, modes):
        calls.append(chain.positions)
        return forces_exact(chain, modes)

    for module in (cli, equilibria, forcefield):
        monkeypatch.setattr(module, "forces_exact", counted)
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
