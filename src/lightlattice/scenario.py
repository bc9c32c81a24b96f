"""Scenario documents: schema, validation, and construction.

A scenario is a JSON document declaring the chain, the drive modes, and
optional dynamics / sweep / output blocks. Validation is fail-closed:
unknown keys are rejected so typos cannot silently change a run. Lengths
are in units of the reference wavelength, mode wavenumbers in units of
the reference wavenumber; complex numbers are [re, im] pairs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass

import jsonschema

from .dynamics import DynamicsParams
from .errors import ScenarioError
from .wavecore import K_REF, Mode, ScattererChain

_COMPLEX = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "additionalProperties": False,
    "required": ["version", "chain", "modes"],
    "properties": {
        "version": {"const": "1"},
        "units": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {"lambda_ref": _POSITIVE, "k_ref": _POSITIVE},
        },
        "chain": {
            "type": "object",
            "additionalProperties": False,
            "required": ["zeta"],
            "properties": {
                "zeta": _COMPLEX,
                "allow_gain": {"type": "boolean"},
                "n": {"type": "integer", "minimum": 0},
                "positions": {"type": "array", "items": {"type": "number"}},
                "generator": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    "properties": {
                        "kind": {"enum": ["equidistant", "explicit"]},
                        "spacing": _POSITIVE,
                        "start": {"type": "number"},
                        "positions": {"type": "array", "items": {"type": "number"}},
                    },
                },
            },
        },
        "modes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["label", "k"],
                "properties": {
                    "label": {"type": "string", "minLength": 1},
                    "k": _POSITIVE,
                    "intensity_left": {"type": "number", "minimum": 0},
                    "intensity_right": {"type": "number", "minimum": 0},
                    "phase_left": {"type": "number"},
                    "phase_right": {"type": "number"},
                    "zeta_override": _COMPLEX,
                },
            },
        },
        "dynamics": {
            "type": "object",
            "additionalProperties": False,
            "required": ["regime", "dt", "t_end"],
            "properties": {
                "regime": {"enum": ["overdamped", "newtonian"]},
                "mass": _POSITIVE,
                "friction": {"type": "number", "minimum": 0},
                "dt": _POSITIVE,
                "t_end": _POSITIVE,
                "min_separation": {"type": "number", "minimum": 0},
                "force_tol": _POSITIVE,
                "initial_velocities": {"type": "array", "items": {"type": "number"}},
            },
        },
        "sweep": {
            "type": "object",
            "additionalProperties": False,
            "required": ["axes"],
            "properties": {
                "axes": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["path", "start", "stop", "steps"],
                        "properties": {
                            "path": {"type": "string", "minLength": 1},
                            "start": {"type": "number"},
                            "stop": {"type": "number"},
                            "steps": {"type": "integer", "minimum": 1},
                        },
                    },
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "format": {"enum": ["csv", "json", "both"]},
                "prefix": {"type": "string", "minLength": 1},
                "capture_every": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_VALIDATOR = jsonschema.Draft7Validator(SCHEMA)


@dataclass(frozen=True)
class SweepAxis:
    path: str
    start: float
    stop: float
    steps: int

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * h for i in range(self.steps)]


@dataclass(frozen=True)
class Scenario:
    doc: dict
    name: str
    sha: str
    chain: ScattererChain
    modes: tuple[Mode, ...]
    dynamics: DynamicsParams | None
    initial_velocities: tuple[float, ...] | None
    sweep_axes: tuple[SweepAxis, ...] | None
    capture_every: int

    def mode_list(self) -> list[Mode]:
        return list(self.modes)


def validate_document(doc) -> None:
    """Schema plus semantic checks; raises ScenarioError on any problem."""
    errors = sorted(_VALIDATOR.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        where = "/".join(str(p) for p in e.absolute_path) or "(root)"
        raise ScenarioError(f"invalid scenario at {where}: {e.message}")
    _semantic_checks(doc)


def _semantic_checks(doc: dict) -> None:
    _reject_non_finite(doc, ())
    chain = doc["chain"]
    has_positions = "positions" in chain
    has_generator = "generator" in chain
    if has_positions == has_generator:
        raise ScenarioError(
            "chain needs exactly one of 'positions' or 'generator'"
        )
    if has_generator:
        gen = chain["generator"]
        if gen["kind"] == "equidistant":
            if "spacing" not in gen:
                raise ScenarioError("equidistant generator needs 'spacing'")
            if "n" not in chain:
                raise ScenarioError("equidistant generator needs chain 'n'")
            if "positions" in gen:
                raise ScenarioError("equidistant generator takes no 'positions'")
        else:
            if "positions" not in gen:
                raise ScenarioError("explicit generator needs 'positions'")
    if has_positions and "n" in chain and chain["n"] != len(chain["positions"]):
        raise ScenarioError(
            f"chain n={chain['n']} does not match {len(chain['positions'])} positions"
        )
    labels = [m["label"] for m in doc["modes"]]
    if len(set(labels)) != len(labels):
        raise ScenarioError("mode labels must be unique")
    dyn = doc.get("dynamics")
    if dyn is not None and _chain_size(chain) == 0:
        raise ScenarioError("a dynamics block needs at least one scatterer")
    if dyn and "initial_velocities" in dyn:
        n = _chain_size(chain)
        if len(dyn["initial_velocities"]) != n:
            raise ScenarioError(
                "initial_velocities length must equal the chain size"
            )
    sweep = doc.get("sweep")
    if sweep:
        for ax in sweep["axes"]:
            leaf = ax["path"].rsplit(".", 1)[-1]
            if leaf in ("n", "kind", "label", "regime", "version", "format"):
                raise ScenarioError(
                    f"sweep axis may not vary structural key {leaf!r}"
                )


def _reject_non_finite(node, path: tuple) -> None:
    """Raise ScenarioError at a NaN or infinity anywhere in a document.

    json.loads accepts the literals NaN and Infinity, and the schema's
    "number" type passes them.
    """
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        if isinstance(node, float) and not math.isfinite(node):
            where = "/".join(map(str, path)) or "(root)"
            raise ScenarioError(
                f"invalid scenario at {where}: {json.dumps(node)} is not a finite number"
            )
        return
    for key, value in children:
        _reject_non_finite(value, path + (key,))


def _chain_size(chain_doc: dict) -> int:
    if "positions" in chain_doc:
        return len(chain_doc["positions"])
    gen = chain_doc["generator"]
    if gen["kind"] == "explicit":
        return len(gen["positions"])
    return chain_doc["n"]


def _build_chain(chain_doc: dict) -> ScattererChain:
    re, im = chain_doc["zeta"]
    zeta = float(re) if im == 0.0 else complex(re, im)
    allow_gain = chain_doc.get("allow_gain", False)
    if "positions" in chain_doc:
        positions = chain_doc["positions"]
    else:
        gen = chain_doc["generator"]
        if gen["kind"] == "explicit":
            positions = gen["positions"]
        else:
            start = gen.get("start", 0.0)
            spacing = gen["spacing"]
            positions = [start + j * spacing for j in range(chain_doc["n"])]
    try:
        return ScattererChain(tuple(positions), zeta, allow_gain=allow_gain)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _build_mode(mode_doc: dict) -> Mode:
    k = mode_doc["k"] * K_REF
    i_l = mode_doc.get("intensity_left", 0.0)
    i_r = mode_doc.get("intensity_right", 0.0)
    ph_l = mode_doc.get("phase_left", 0.0)
    ph_r = mode_doc.get("phase_right", 0.0)
    drive_left = math.sqrt(2.0 * i_l) * complex(math.cos(ph_l), math.sin(ph_l))
    drive_right = math.sqrt(2.0 * i_r) * complex(math.cos(ph_r), math.sin(ph_r))
    override = mode_doc.get("zeta_override")
    if override is not None:
        re, im = override
        override = float(re) if im == 0.0 else complex(re, im)
    try:
        return Mode(
            label=mode_doc["label"],
            k=k,
            drive_left=drive_left,
            drive_right=drive_right,
            zeta_override=override,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def scenario_from_document(doc: dict, name: str = "inline") -> Scenario:
    validate_document(doc)
    chain = _build_chain(doc["chain"])
    modes = tuple(_build_mode(m) for m in doc["modes"])
    dyn_doc = doc.get("dynamics")
    dynamics = None
    init_v = None
    if dyn_doc is not None:
        try:
            dynamics = DynamicsParams(
                regime=dyn_doc["regime"],
                dt=dyn_doc["dt"],
                t_end=dyn_doc["t_end"],
                friction=dyn_doc.get("friction", 1.0),
                mass=dyn_doc.get("mass", 1.0),
                min_separation=dyn_doc.get("min_separation", 1e-3),
                force_tol=dyn_doc.get("force_tol", 1e-10),
            )
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
        if "initial_velocities" in dyn_doc:
            init_v = tuple(float(v) for v in dyn_doc["initial_velocities"])
    sweep_doc = doc.get("sweep")
    axes = None
    if sweep_doc is not None:
        axes = tuple(
            SweepAxis(ax["path"], ax["start"], ax["stop"], ax["steps"])
            for ax in sweep_doc["axes"]
        )
    return Scenario(
        doc=doc,
        name=name,
        sha=scenario_hash(doc),
        chain=chain,
        modes=modes,
        dynamics=dynamics,
        initial_velocities=init_v,
        sweep_axes=axes,
        capture_every=doc.get("output", {}).get("capture_every", 1),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return scenario_from_document(doc, name=os.path.basename(path))


def apply_axis_values(doc: dict, assignments) -> dict:
    """Return a copy of doc with each (path, value) applied.

    Paths are dot-separated; list segments accept either an integer index
    or a mode label. The leaf key must be a plain value slot.
    """
    new = copy.deepcopy(doc)
    for path, value in assignments:
        parts = path.split(".")
        node = new
        for i, part in enumerate(parts):
            last = i == len(parts) - 1
            if isinstance(node, list):
                idx = _list_index(node, part, path)
                if last:
                    node[idx] = value
                else:
                    node = node[idx]
            elif isinstance(node, dict):
                if last:
                    node[part] = value
                else:
                    if part not in node:
                        raise ScenarioError(
                            f"sweep path {path!r}: no block named {part!r}"
                        )
                    node = node[part]
            else:
                raise ScenarioError(
                    f"sweep path {path!r} descends into a plain value at {part!r}"
                )
    return new


def _list_index(node: list, part: str, path: str) -> int:
    try:
        idx = int(part)
    except ValueError:
        for j, item in enumerate(node):
            if isinstance(item, dict) and item.get("label") == part:
                return j
        raise ScenarioError(
            f"sweep path {path!r}: no list entry labelled {part!r}"
        ) from None
    if not (0 <= idx < len(node)):
        raise ScenarioError(f"sweep path {path!r}: index {idx} out of range")
    return idx
