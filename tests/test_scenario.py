import copy
import json
import math

import pytest

from lightlattice.errors import ScenarioError
from lightlattice.scenario import (
    apply_axis_values,
    load_scenario,
    scenario_from_document,
    scenario_hash,
    validate_document,
)
from lightlattice.wavecore import K_REF


def base_doc():
    return {
        "version": "1",
        "chain": {"zeta": [0.01, 0.0], "positions": [0.0, 0.4]},
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
    }


def test_minimal_document_builds():
    s = scenario_from_document(base_doc())
    assert s.chain.n == 2
    assert s.chain.zeta_base == (0.01 + 0j, 0.01 + 0j)
    assert [m.label for m in s.modes] == ["y", "z"]
    assert s.modes[0].k == pytest.approx(K_REF)
    assert s.modes[0].drive_left == pytest.approx(math.sqrt(2.0))
    assert s.modes[1].drive_left == 0
    assert s.dynamics is None
    assert len(s.sha) == 12


def test_unknown_keys_rejected_everywhere():
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["chain"].update(extra=1),
        lambda d: d["modes"][0].update(extra=1),
        lambda d: d.update(dynamics={"regime": "overdamped", "dt": 1.0,
                                     "t_end": 1.0, "extra": 1}),
        lambda d: d.update(output={"formt": "csv"}),
    ):
        doc = base_doc()
        mutate(doc)
        with pytest.raises(ScenarioError):
            validate_document(doc)


def test_version_and_required_blocks():
    doc = base_doc()
    doc["version"] = "2"
    with pytest.raises(ScenarioError):
        validate_document(doc)
    doc = base_doc()
    del doc["modes"]
    with pytest.raises(ScenarioError):
        validate_document(doc)


def test_positions_and_generator_are_exclusive():
    doc = base_doc()
    doc["chain"]["generator"] = {"kind": "equidistant", "spacing": 0.5}
    with pytest.raises(ScenarioError, match="exactly one"):
        validate_document(doc)
    doc = base_doc()
    del doc["chain"]["positions"]
    with pytest.raises(ScenarioError, match="exactly one"):
        validate_document(doc)


def test_equidistant_generator():
    doc = base_doc()
    del doc["chain"]["positions"]
    doc["chain"]["n"] = 3
    doc["chain"]["generator"] = {"kind": "equidistant", "spacing": 0.4,
                                 "start": -0.1}
    s = scenario_from_document(doc)
    assert s.chain.positions == pytest.approx((-0.1, 0.3, 0.7))

    bad = copy.deepcopy(doc)
    del bad["chain"]["n"]
    with pytest.raises(ScenarioError, match="needs chain 'n'"):
        validate_document(bad)
    bad = copy.deepcopy(doc)
    del bad["chain"]["generator"]["spacing"]
    with pytest.raises(ScenarioError, match="needs 'spacing'"):
        validate_document(bad)


def test_explicit_generator_and_n_consistency():
    doc = base_doc()
    del doc["chain"]["positions"]
    doc["chain"]["generator"] = {"kind": "explicit", "positions": [0.0, 0.3]}
    s = scenario_from_document(doc)
    assert s.chain.n == 2

    bad = base_doc()
    bad["chain"]["n"] = 3
    with pytest.raises(ScenarioError, match="does not match"):
        validate_document(bad)


def test_mode_labels_unique():
    doc = base_doc()
    doc["modes"][1]["label"] = "y"
    with pytest.raises(ScenarioError, match="unique"):
        validate_document(doc)


def test_zeta_parsing_real_and_complex():
    doc = base_doc()
    s = scenario_from_document(doc)
    assert s.chain.zeta_base[0].imag == 0.0

    doc["chain"]["zeta"] = [1.0 / 12.0, 1.0 / 150.0]
    s = scenario_from_document(doc)
    assert s.chain.zeta_base[0] == pytest.approx(complex(1 / 12, 1 / 150))

    doc["chain"]["zeta"] = [0.1, -0.01]  # gain needs the explicit flag
    with pytest.raises(ScenarioError, match="gain"):
        scenario_from_document(doc)
    doc["chain"]["allow_gain"] = True
    s = scenario_from_document(doc)
    assert s.chain.zeta_base[0].imag == pytest.approx(-0.01)


def test_unsorted_positions_rejected():
    doc = base_doc()
    doc["chain"]["positions"] = [0.4, 0.0]
    with pytest.raises(ScenarioError, match="increasing"):
        scenario_from_document(doc)


def test_phases_enter_drives():
    doc = base_doc()
    doc["modes"][0]["phase_left"] = math.pi / 2.0
    s = scenario_from_document(doc)
    drive = s.modes[0].drive_left
    assert drive.real == pytest.approx(0.0, abs=1e-12)
    assert drive.imag == pytest.approx(math.sqrt(2.0))


def test_mode_zeta_override_parsing():
    doc = base_doc()
    doc["modes"][0]["zeta_override"] = [0.1, 0.0]
    s = scenario_from_document(doc)
    assert s.modes[0].zeta_override == pytest.approx(0.1)


def test_dynamics_block():
    doc = base_doc()
    doc["dynamics"] = {
        "regime": "newtonian", "dt": 0.5, "t_end": 100.0, "mass": 2.0,
        "friction": 0.1, "initial_velocities": [0.0, 0.01],
    }
    s = scenario_from_document(doc)
    assert s.dynamics.mass == 2.0
    assert s.initial_velocities == (0.0, 0.01)

    doc["dynamics"]["initial_velocities"] = [0.0]
    with pytest.raises(ScenarioError, match="initial_velocities"):
        validate_document(doc)


def test_sweep_axes_and_structural_leaves():
    doc = base_doc()
    doc["sweep"] = {"axes": [{"path": "modes.z.intensity_right",
                              "start": 0.5, "stop": 2.0, "steps": 4}]}
    doc["dynamics"] = {"regime": "overdamped", "dt": 1.0, "t_end": 10.0}
    s = scenario_from_document(doc)
    assert s.sweep_axes[0].values() == pytest.approx([0.5, 1.0, 1.5, 2.0])

    for leaf in ("chain.n", "chain.generator.kind", "modes.z.label",
                 "dynamics.regime", "version", "output.format"):
        bad = copy.deepcopy(doc)
        bad["sweep"]["axes"][0]["path"] = leaf
        with pytest.raises(ScenarioError, match="structural"):
            validate_document(bad)


def test_single_step_axis_holds_start():
    doc = base_doc()
    doc["sweep"] = {"axes": [{"path": "chain.positions.1",
                              "start": 0.3, "stop": 0.9, "steps": 1}]}
    s = scenario_from_document(doc)
    assert s.sweep_axes[0].values() == [0.3]


def test_hash_is_canonical_and_sensitive():
    doc = base_doc()
    h1 = scenario_hash(doc)
    reordered = {k: doc[k] for k in reversed(list(doc))}
    assert scenario_hash(reordered) == h1
    doc["modes"][0]["intensity_left"] = 1.1
    assert scenario_hash(doc) != h1
    assert len(h1) == 12 and all(c in "0123456789abcdef" for c in h1)


def test_apply_axis_values_paths():
    doc = base_doc()
    out = apply_axis_values(doc, [("modes.z.intensity_right", 2.5),
                                  ("chain.positions.1", 0.45)])
    assert out["modes"][1]["intensity_right"] == 2.5
    assert out["chain"]["positions"][1] == 0.45
    assert doc["modes"][1]["intensity_right"] == 1.0  # original untouched

    out2 = apply_axis_values(doc, [("modes.0.k", 1.3)])
    assert out2["modes"][0]["k"] == 1.3

    with pytest.raises(ScenarioError, match="no block"):
        apply_axis_values(doc, [("nonexistent.thing", 1.0)])
    with pytest.raises(ScenarioError, match="no list entry"):
        apply_axis_values(doc, [("modes.w.k", 1.0)])
    with pytest.raises(ScenarioError, match="out of range"):
        apply_axis_values(doc, [("modes.7.k", 1.0)])
    with pytest.raises(ScenarioError, match="plain value"):
        apply_axis_values(doc, [("version.deep.leaf", 1.0)])


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(base_doc()))
    s = load_scenario(str(path))
    assert s.name == "case.json"

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(bad))
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "missing.json"))


def test_units_block_single_key():
    doc = base_doc()
    doc["units"] = {"lambda_ref": 1.55e-6}
    validate_document(doc)
    doc["units"] = {"lambda_ref": 1.0, "k_ref": 1.0}
    with pytest.raises(ScenarioError):
        validate_document(doc)
    doc["units"] = {}
    with pytest.raises(ScenarioError):
        validate_document(doc)


def test_empty_chain_is_allowed():
    doc = base_doc()
    doc["chain"]["positions"] = []
    s = scenario_from_document(doc)
    assert s.chain.n == 0


@pytest.mark.parametrize("path, value", [
    ("dynamics.t_end", math.inf),
    ("chain.positions.1", math.inf),
    ("chain.positions.0", math.nan),
    ("chain.zeta.0", math.nan),
])
def test_non_finite_numbers_are_rejected_in_dicts_and_sweep_cells(path, value):
    doc = base_doc()
    doc["dynamics"] = {"regime": "overdamped", "dt": 1.0, "t_end": 10.0}
    # a sweep cell is a document with the axis value written in
    cell = apply_axis_values(doc, [(path, value)])
    where = path.replace(".", "/")
    with pytest.raises(ScenarioError, match=f"at {where}: (Infinity|NaN) is not a finite"):
        scenario_from_document(cell)
