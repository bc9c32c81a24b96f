import copy
import json
import math
import re

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
    bad = copy.deepcopy(doc)
    bad["chain"]["n"] = 5
    with pytest.raises(ScenarioError, match="chain n=5 does not match 2 positions"):
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


def full_doc():
    """A document that sets every key the scenario format knows."""
    return {
        "version": "1",
        "units": {"lambda_ref": 1.0},
        "chain": {
            "zeta": [0.01, 0.0],
            "allow_gain": False,
            "n": 2,
            "generator": {"kind": "equidistant", "spacing": 0.4, "start": 0.0},
        },
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0, "intensity_right": 0.0,
             "phase_left": 0.0, "phase_right": 0.0, "zeta_override": [0.01, 0.0]},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
        "dynamics": {
            "regime": "overdamped", "dt": 1.0, "t_end": 10.0, "mass": 1.0,
            "friction": 1.0, "min_separation": 1e-3, "force_tol": 1e-10,
            "initial_velocities": [0.0, 0.0],
        },
        "sweep": {"axes": [{"path": "modes.y.intensity_left",
                            "start": 0.5, "stop": 1.0, "steps": 2}]},
        "output": {"format": "csv", "prefix": "run", "capture_every": 1},
    }


def _set(path, value):
    def mutate(doc):
        *parents, leaf = path.split("/")
        node = doc
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        node[int(leaf) if isinstance(node, list) else leaf] = value
    return mutate


def _drop(path):
    def mutate(doc):
        *parents, leaf = path.split("/")
        node = doc
        for part in parents:
            node = node[int(part)] if isinstance(node, list) else node[part]
        del node[leaf]
    return mutate


def _positions(values):
    def mutate(doc):
        del doc["chain"]["generator"], doc["chain"]["n"]
        doc["chain"]["positions"] = values
    return mutate


# one row per rule of the scenario format: (where the error is reported, mutation)
REJECTIONS = [
    # unknown keys, reported at the block that holds them
    ("(root)", _set("extra", 1)),
    ("units", _set("units/extra", 1)),
    ("chain", _set("chain/extra", 1)),
    ("chain/generator", _set("chain/generator/extra", 1)),
    ("modes/0", _set("modes/0/extra", 1)),
    ("dynamics", _set("dynamics/extra", 1)),
    ("sweep", _set("sweep/extra", 1)),
    ("sweep/axes/0", _set("sweep/axes/0/extra", 1)),
    ("output", _set("output/formt", "csv")),
    # missing required keys
    ("(root)", _drop("version")),
    ("(root)", _drop("chain")),
    ("(root)", _drop("modes")),
    ("chain", _drop("chain/zeta")),
    ("chain/generator", _drop("chain/generator/kind")),
    ("modes/0", _drop("modes/0/label")),
    ("modes/0", _drop("modes/0/k")),
    ("dynamics", _drop("dynamics/regime")),
    ("dynamics", _drop("dynamics/dt")),
    ("dynamics", _drop("dynamics/t_end")),
    ("sweep", _drop("sweep/axes")),
    ("sweep/axes/0", _drop("sweep/axes/0/path")),
    ("sweep/axes/0", _drop("sweep/axes/0/start")),
    ("sweep/axes/0", _drop("sweep/axes/0/stop")),
    ("sweep/axes/0", _drop("sweep/axes/0/steps")),
    # blocks of the wrong type
    ("chain", _set("chain", [])),
    ("modes", _set("modes", {})),
    ("modes/0", _set("modes/0", "y")),
    ("dynamics", _set("dynamics", 1.0)),
    ("sweep/axes", _set("sweep/axes", "modes.y.k")),
    ("output", _set("output", [])),
    # version
    ("version", _set("version", "2")),
    ("version", _set("version", 1)),
    # units: exactly one positive key
    ("units", _set("units", {})),
    ("units", _set("units", {"lambda_ref": 1.0, "k_ref": 1.0})),
    ("units/lambda_ref", _set("units/lambda_ref", 0.0)),
    ("units/k_ref", _set("units", {"k_ref": -1.0})),
    # a bool or a string where a number goes
    ("modes/0/k", _set("modes/0/k", True)),
    ("modes/0/k", _set("modes/0/k", "1")),
    ("modes/0/intensity_left", _set("modes/0/intensity_left", False)),
    ("modes/0/phase_left", _set("modes/0/phase_left", "0")),
    ("modes/0/phase_right", _set("modes/0/phase_right", True)),
    ("dynamics/dt", _set("dynamics/dt", True)),
    ("dynamics/friction", _set("dynamics/friction", "1")),
    ("dynamics/initial_velocities/1", _set("dynamics/initial_velocities/1", "0")),
    ("dynamics/initial_velocities", _set("dynamics/initial_velocities", 0.0)),
    ("chain/generator/start", _set("chain/generator/start", "0")),
    ("chain/n", _set("chain/n", True)),
    ("chain/positions/1", _positions([0.0, "0.4"])),
    ("chain/positions/0", _positions([True, 0.4])),
    ("chain/positions", _positions("0.0 0.4")),
    ("sweep/axes/0/start", _set("sweep/axes/0/start", True)),
    ("sweep/axes/0/stop", _set("sweep/axes/0/stop", "1")),
    ("sweep/axes/0/steps", _set("sweep/axes/0/steps", True)),
    ("output/capture_every", _set("output/capture_every", True)),
    # complex numbers are [re, im] pairs
    ("chain/zeta", _set("chain/zeta", [0.01])),
    ("chain/zeta", _set("chain/zeta", [0.01, 0.0, 0.0])),
    ("chain/zeta", _set("chain/zeta", 0.01)),
    ("chain/zeta/1", _set("chain/zeta", [0.01, "0"])),
    ("chain/zeta/0", _set("chain/zeta", [True, 0.0])),
    ("modes/0/zeta_override", _set("modes/0/zeta_override", [0.01])),
    ("modes/0/zeta_override", _set("modes/0/zeta_override", {"re": 0.01, "im": 0.0})),
    # flags
    ("chain/allow_gain", _set("chain/allow_gain", 1)),
    ("chain/allow_gain", _set("chain/allow_gain", "yes")),
    # the chain layout
    ("chain/generator/kind", _set("chain/generator/kind", "random")),
    ("chain/generator", _set("chain/generator", "equidistant")),
    ("chain/generator/spacing", _set("chain/generator/spacing", 0.0)),
    ("chain/generator/spacing", _set("chain/generator/spacing", -0.4)),
    ("chain/generator/positions/1",
     _set("chain/generator", {"kind": "explicit", "positions": [0.0, "0.4"]})),
    ("chain/n", _set("chain/n", -1)),
    ("chain/n", _set("chain/n", "2")),
    # lists that may not be empty, strings that may not be empty
    ("modes", _set("modes", [])),
    ("sweep/axes", _set("sweep/axes", [])),
    ("modes/0/label", _set("modes/0/label", "")),
    ("modes/0/label", _set("modes/0/label", 1)),
    ("sweep/axes/0/path", _set("sweep/axes/0/path", "")),
    ("sweep/axes/0/path", _set("sweep/axes/0/path", ["modes", "y"])),
    # modes
    ("modes/0/k", _set("modes/0/k", 0.0)),
    ("modes/1/k", _set("modes/1/k", -1.0)),
    ("modes/0/intensity_left", _set("modes/0/intensity_left", -1.0)),
    ("modes/1/intensity_right", _set("modes/1/intensity_right", -0.5)),
    # dynamics
    ("dynamics/regime", _set("dynamics/regime", "brownian")),
    ("dynamics/dt", _set("dynamics/dt", 0.0)),
    ("dynamics/t_end", _set("dynamics/t_end", -1.0)),
    ("dynamics/mass", _set("dynamics/mass", 0.0)),
    ("dynamics/force_tol", _set("dynamics/force_tol", 0.0)),
    ("dynamics/friction", _set("dynamics/friction", -1.0)),
    ("dynamics/min_separation", _set("dynamics/min_separation", -1e-3)),
    # sweep and output
    ("sweep/axes/0/steps", _set("sweep/axes/0/steps", 0)),
    ("output/capture_every", _set("output/capture_every", 0)),
    ("output/format", _set("output/format", "xml")),
    ("output/prefix", _set("output/prefix", "")),
    ("output/prefix", _set("output/prefix", 7)),
]


def test_the_full_document_builds():
    s = scenario_from_document(full_doc())
    assert s.chain.positions == pytest.approx((0.0, 0.4))
    assert s.initial_velocities == (0.0, 0.0)
    assert s.capture_every == 1


@pytest.mark.parametrize("where, mutate", REJECTIONS)
def test_rejection_table(where, mutate):
    doc = full_doc()
    mutate(doc)
    with pytest.raises(ScenarioError, match=rf"^invalid scenario at {re.escape(where)}: "):
        scenario_from_document(doc)


def test_a_document_that_is_not_an_object_is_rejected():
    for doc in ([], "scenario", None):
        with pytest.raises(ScenarioError, match=r"^invalid scenario at \(root\): "):
            validate_document(doc)


@pytest.mark.parametrize("where", ["chain/n", "sweep/axes/0/steps", "output/capture_every"])
def test_integer_slots_take_json_integers_only(where):
    doc = full_doc()
    _set(where, 2.0)(doc)
    with pytest.raises(ScenarioError, match=rf"^invalid scenario at {re.escape(where)}: 2\.0 "):
        scenario_from_document(doc)


@pytest.mark.parametrize("where", [
    "units", "chain/n", "chain/allow_gain", "chain/generator/start", "modes/0/phase_left",
    "modes/0/zeta_override", "dynamics", "dynamics/friction", "dynamics/initial_velocities",
    "sweep", "output", "output/capture_every",
])
def test_null_is_not_an_absent_key(where):
    doc = full_doc()
    _set(where, None)(doc)
    with pytest.raises(ScenarioError, match=rf"^invalid scenario at {re.escape(where)}: "):
        scenario_from_document(doc)
