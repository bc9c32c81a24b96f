"""Scenario documents: decoding, validation, and construction.

A scenario is a JSON document declaring the chain, the drive modes, and
optional dynamics / sweep / output blocks. One decoder reads each field
once, checks it and builds the Scenario. It is fail-closed: unknown keys
are rejected so typos cannot silently change a run, every number must be
finite, integer fields take JSON integers only, and a chain's `n` must
match its positions. Its errors are ScenarioErrors; one about a field or
a block reads "invalid scenario at <path>: ...". Lengths are in units of
the reference wavelength, mode wavenumbers in units of the reference
wavenumber; complex numbers are [re, im] pairs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
from dataclasses import dataclass

from .dynamics import DynamicsParams
from .errors import ScenarioError
from .wavecore import K_REF, Mode, ScattererChain


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


def _fail(path: tuple, message: str):
    where = "/".join(map(str, path)) or "(root)"
    raise ScenarioError(f"invalid scenario at {where}: {message}")


def _object(node, path, required, optional=()) -> dict:
    if not isinstance(node, dict):
        _fail(path, f"{node!r} is not an object")
    for key in required:
        if key not in node:
            _fail(path, f"missing required key {key!r}")
    for key in node:
        if key not in required and key not in optional:
            _fail(path, f"unknown key {key!r}")
    return node


def _number(node, path, minimum=None, positive=False):
    # np.float64 is a float: documents built in Python may carry solver output
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        _fail(path, f"{node!r} is not a number")
    if not math.isfinite(node):
        _fail(path, f"{json.dumps(node)} is not a finite number")
    if positive and not node > 0:
        _fail(path, f"{node!r} is not positive")
    if minimum is not None and node < minimum:
        _fail(path, f"{node!r} is less than {minimum}")
    return node


def _integer(node, path, minimum: int) -> int:
    if type(node) is not int:
        _fail(path, f"{node!r} is not an integer")
    if node < minimum:
        _fail(path, f"{node!r} is less than {minimum}")
    return node


def _string(node, path, choices=None) -> str:
    if choices is not None:
        if not isinstance(node, str) or node not in choices:
            _fail(path, f"{node!r} is not one of {', '.join(map(repr, choices))}")
    elif not isinstance(node, str) or not node:
        _fail(path, f"{node!r} is not a non-empty string")
    return node


def _list(node, path, non_empty=False) -> list:
    if not isinstance(node, list):
        _fail(path, f"{node!r} is not a list")
    if non_empty and not node:
        _fail(path, "needs at least one entry")
    return node


def _numbers(node, path) -> list:
    for i, value in enumerate(_list(node, path)):
        _number(value, path + (i,))
    return node


def _complex(node, path):
    if not isinstance(node, list) or len(node) != 2:
        _fail(path, f"{node!r} is not a [re, im] pair")
    re, im = (_number(v, path + (i,)) for i, v in enumerate(node))
    return float(re) if im == 0.0 else complex(re, im)


def _decode(doc) -> dict:
    """Check every field of doc once and build the Scenario fields from it."""
    _object(doc, (), ("version", "chain", "modes"), ("units", "dynamics", "sweep", "output"))
    _string(doc["version"], ("version",), ("1",))
    if "units" in doc:
        units = _object(doc["units"], ("units",), (), ("lambda_ref", "k_ref"))
        if len(units) != 1:
            _fail(("units",), "needs exactly one of 'lambda_ref' or 'k_ref'")
        for key, value in units.items():
            _number(value, ("units", key), positive=True)
    chain = _decode_chain(doc["chain"], ("chain",))
    modes = tuple(
        _decode_mode(node, ("modes", i))
        for i, node in enumerate(_list(doc["modes"], ("modes",), non_empty=True))
    )
    if len({m.label for m in modes}) != len(modes):
        _fail(("modes",), "mode labels must be unique")
    dynamics = initial_velocities = sweep_axes = None
    if "dynamics" in doc:
        dynamics, initial_velocities = _decode_dynamics(doc["dynamics"], ("dynamics",), chain.n)
    if "sweep" in doc:
        sweep = _object(doc["sweep"], ("sweep",), ("axes",))
        path = ("sweep", "axes")
        sweep_axes = tuple(
            _decode_axis(node, path + (i,))
            for i, node in enumerate(_list(sweep["axes"], path, non_empty=True))
        )
    output = _object(doc.get("output", {}), ("output",), (), ("format", "prefix", "capture_every"))
    if "format" in output:
        _string(output["format"], ("output", "format"), ("csv", "json", "both"))
    if "prefix" in output:
        _string(output["prefix"], ("output", "prefix"))
    capture_every = _integer(output.get("capture_every", 1), ("output", "capture_every"), 1)
    return dict(chain=chain, modes=modes, dynamics=dynamics, initial_velocities=initial_velocities,
                sweep_axes=sweep_axes, capture_every=capture_every)


def _decode_chain(node, path) -> ScattererChain:
    _object(node, path, ("zeta",), ("allow_gain", "n", "positions", "generator"))
    zeta = _complex(node["zeta"], path + ("zeta",))
    allow_gain = node.get("allow_gain", False)
    if not isinstance(allow_gain, bool):
        _fail(path + ("allow_gain",), f"{allow_gain!r} is not a boolean")
    n = _integer(node["n"], path + ("n",), 0) if "n" in node else None
    if ("positions" in node) == ("generator" in node):
        _fail(path, "chain needs exactly one of 'positions' or 'generator'")
    if "positions" in node:
        positions = _numbers(node["positions"], path + ("positions",))
    else:
        at = path + ("generator",)
        gen = _object(node["generator"], at, ("kind",), ("spacing", "start", "positions"))
        kind = _string(gen["kind"], at + ("kind",), ("equidistant", "explicit"))
        if "spacing" in gen:
            _number(gen["spacing"], at + ("spacing",), positive=True)
        start = _number(gen.get("start", 0.0), at + ("start",))
        if "positions" in gen:
            positions = _numbers(gen["positions"], at + ("positions",))
        if kind == "equidistant":
            if "spacing" not in gen:
                _fail(at, "equidistant generator needs 'spacing'")
            if n is None:
                _fail(at, "equidistant generator needs chain 'n'")
            if "positions" in gen:
                _fail(at, "equidistant generator takes no 'positions'")
            positions = [start + j * gen["spacing"] for j in range(n)]
        elif "positions" not in gen:
            _fail(at, "explicit generator needs 'positions'")
    if n is not None and n != len(positions):
        _fail(path, f"chain n={n} does not match {len(positions)} positions")
    try:
        return ScattererChain(tuple(positions), zeta, allow_gain=allow_gain)
    except ValueError as exc:
        _fail(path, str(exc))


def _decode_mode(node, path) -> Mode:
    _object(node, path, ("label", "k"), (
        "intensity_left", "intensity_right", "phase_left", "phase_right", "zeta_override",
    ))
    drives = []
    for side in ("left", "right"):
        intensity, phase = f"intensity_{side}", f"phase_{side}"
        i = _number(node.get(intensity, 0.0), path + (intensity,), minimum=0)
        ph = _number(node.get(phase, 0.0), path + (phase,))
        drives.append(math.sqrt(2.0 * i) * complex(math.cos(ph), math.sin(ph)))
    override = None
    if "zeta_override" in node:
        override = _complex(node["zeta_override"], path + ("zeta_override",))
    try:
        return Mode(
            label=_string(node["label"], path + ("label",)),
            k=_number(node["k"], path + ("k",), positive=True) * K_REF,
            drive_left=drives[0],
            drive_right=drives[1],
            zeta_override=override,
        )
    except ValueError as exc:
        _fail(path, str(exc))


def _decode_dynamics(node, path, n: int):
    _object(node, path, ("regime", "dt", "t_end"), (
        "mass", "friction", "min_separation", "force_tol", "initial_velocities",
    ))
    try:
        dynamics = DynamicsParams(
            regime=_string(node["regime"], path + ("regime",), ("overdamped", "newtonian")),
            dt=_number(node["dt"], path + ("dt",), positive=True),
            t_end=_number(node["t_end"], path + ("t_end",), positive=True),
            friction=_number(node.get("friction", 1.0), path + ("friction",), minimum=0),
            mass=_number(node.get("mass", 1.0), path + ("mass",), positive=True),
            min_separation=_number(
                node.get("min_separation", 1e-3), path + ("min_separation",), minimum=0
            ),
            force_tol=_number(node.get("force_tol", 1e-10), path + ("force_tol",), positive=True),
        )
    except ValueError as exc:
        _fail(path, str(exc))
    if n == 0:
        _fail(path, "a dynamics block needs at least one scatterer")
    if "initial_velocities" not in node:
        return dynamics, None
    if dynamics.regime == "overdamped":
        _fail(path + ("initial_velocities",), "an overdamped run takes no velocities")
    velocities = _numbers(node["initial_velocities"], path + ("initial_velocities",))
    if len(velocities) != n:
        _fail(path + ("initial_velocities",),
              "initial_velocities length must equal the chain size")
    return dynamics, tuple(map(float, velocities))


def _decode_axis(node, path) -> SweepAxis:
    _object(node, path, ("path", "start", "stop", "steps"))
    axis = SweepAxis(
        _string(node["path"], path + ("path",)),
        _number(node["start"], path + ("start",)),
        _number(node["stop"], path + ("stop",)),
        _integer(node["steps"], path + ("steps",), 1),
    )
    leaf = axis.path.rsplit(".", 1)[-1]
    if leaf in ("n", "kind", "label", "regime", "version", "format"):
        _fail(path + ("path",), f"sweep axis may not vary structural key {leaf!r}")
    return axis


def scenario_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def scenario_from_document(doc: dict, name: str = "inline") -> Scenario:
    decoded = _decode(doc)
    return Scenario(doc, name, scenario_hash(doc), **decoded)


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
