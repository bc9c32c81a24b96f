"""Command line front end: scenario files in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 invalid input, 3 numerical failure (partial
outputs are written and flagged where the run produced any). Output is
deterministic: fixed row order, headers carrying only the tool version,
scenario hash, and command name, and one rule per CSV cell: every float,
numpy floats included, is %.17g; a bool is true/false; an integer is
decimal; anything else is str. So the bytes do not depend on whether a
table holds Python or numpy numbers. Sweep cells fan out to a process
pool sized by LIGHTLATTICE_THREADS (default 1: cells run in this
process); results are always assembled in grid order.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

from . import __version__
from .dynamics import settle
from .errors import LightLatticeError, NoSolution, ScenarioError, UnstableMode
from .scenario import (
    Scenario,
    apply_axis_values,
    load_scenario,
    scenario_from_document,
    scenario_hash,
)
from .wavecore import K_REF, check_number, intensity_profile, solve_fields


def _fmt(x) -> str:
    # plain floats are nearly every cell, so they skip the isinstance ladder
    if type(x) is float:
        return "%.17g" % x
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if isinstance(x, (bool, np.bool_) if np else bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer) if np else int):
        return str(int(x))
    if isinstance(x, (float, np.floating) if np else float):
        return "%.17g" % float(x)
    return str(x)


# the %-spec that prints what _fmt prints, for the exact cell types that have one
_TEMPLATE_SPECS = {float: "%.17g", str: "%s"}


def _write_csv(path, command, sha, name, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# lightlattice {__version__}\n")
        fh.write(f"# scenario {sha} {name}\n")
        fh.write(f"# command {command}\n")
        fh.write("# columns: " + ",".join(columns) + "\n")
        fh.write(",".join(columns) + "\n")
        # a row of only float and str cells is printed by one %-template per
        # sequence of cell types, with the bytes _fmt prints cell by cell; a
        # row holding any other type (bool, int, a numpy scalar) takes _fmt.
        # The key is unpacked at the row's own length: tuple(map(...)) guesses
        # a size and shrinks, which parks a spare tuple on the interpreter's
        # free list for every row written (up to 2000 per row width)
        templates = {}
        for row in rows:
            key = (*map(type, row),)
            if key not in templates:
                specs = [_TEMPLATE_SPECS.get(t) for t in key]
                templates[key] = None if None in specs else ",".join(specs) + "\n"
            template = templates[key]
            if template is None:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
            else:
                fh.write(template % tuple(row))


def _write_json(path, command, sha, name, payload):
    doc = {
        "_meta": {
            "tool": f"lightlattice {__version__}",
            "scenario": f"{sha} {name}",
            "command": command,
        }
    }
    doc.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


class _Artifacts:
    """One run's writer: its output directory, file prefix and header (command, hash, name)."""

    def __init__(self, out: str, prefix: str, command: str, sha: str, name: str):
        self.out, self.prefix, self.header = out, prefix, (command, sha, name)

    def _path(self, filename: str) -> str:
        # made on the first write, so a refused run leaves no directory
        os.makedirs(self.out, exist_ok=True)
        return os.path.join(self.out, self.prefix + filename)

    def csv(self, filename, columns, rows) -> None:
        _write_csv(self._path(filename), *self.header, columns, rows)

    def json(self, filename, payload) -> None:
        _write_json(self._path(filename), *self.header, payload)


def _finite(text: str) -> float:
    """argparse type: a float that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive(text: str) -> float:
    """argparse type: a finite float above zero."""
    value = _finite(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _grid(lo, hi, steps, axis, steps_flag=None) -> list[float]:
    """steps evenly spaced values from lo to hi, both included. A refusal names
    --<axis>-min and --<axis>-max or steps_flag (--<axis>-steps by default) with values."""
    steps_flag = steps_flag or f"--{axis}-steps"
    if steps < 2:
        raise ScenarioError(f"{steps_flag} must be at least 2, got {steps}")
    if hi <= lo:
        raise ScenarioError(f"--{axis}-max {hi!r} must exceed --{axis}-min {lo!r}")
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


# ---------------------------------------------------------------- presets

def _preset_self_ordering() -> dict:
    return {
        "version": "1",
        "chain": {
            "zeta": [0.01, 0.0],
            "n": 10,
            "generator": {"kind": "equidistant", "spacing": 0.5, "start": 0.0},
        },
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
        "dynamics": {
            "regime": "overdamped",
            "friction": 1.0,
            "dt": 5.0,
            "t_end": 400000.0,
            "force_tol": 1e-10,
        },
        "output": {"capture_every": 100},
    }


def _preset_drift_intensity() -> dict:
    doc = _preset_self_ordering()
    doc["modes"][1]["intensity_right"] = 1.3
    doc["dynamics"]["t_end"] = 40000.0
    return doc


def _preset_drift_wavenumber() -> dict:
    doc = _preset_self_ordering()
    doc["modes"][1]["k"] = 1.3
    doc["dynamics"]["t_end"] = 40000.0
    return doc


def _preset_stationary_distance_map() -> dict:
    # complex coupling with a small gain component; the chain flag must
    # acknowledge it
    return {
        "version": "1",
        "chain": {
            "zeta": [1.0 / 12.0, -1.0 / 150.0],
            "allow_gain": True,
            "n": 2,
            "generator": {"kind": "equidistant", "spacing": 0.25, "start": 0.0},
        },
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
        "dynamics": {
            "regime": "overdamped",
            "friction": 1.0,
            "dt": 2.0,
            "t_end": 20000.0,
            "force_tol": 1e-11,
        },
        "sweep": {
            "axes": [
                {"path": "modes.z.k", "start": 0.6, "stop": 1.4, "steps": 9},
                {
                    "path": "modes.z.intensity_right",
                    "start": 0.25,
                    "stop": 4.0,
                    "steps": 9,
                },
            ]
        },
    }


def _preset_gap_vs_intensity() -> dict:
    doc = _preset_self_ordering()
    doc["chain"]["n"] = 4
    doc["dynamics"]["t_end"] = 200000.0
    del doc["output"]
    doc["sweep"] = {
        "axes": [
            {"path": "modes.z.intensity_right", "start": 0.5, "stop": 2.0, "steps": 16}
        ]
    }
    return doc


def _preset_correlated_oscillation(i_p_scale: float) -> dict:
    from .lattice import pair_rt_closed_form, stable_com_position
    # four splitters pinned at 0.23 of the perturbation wavelength apart at
    # every scale, shifted so the trap center of an isolated pair sits at
    # the origin
    k = K_REF
    zeta = 0.1
    d0 = 0.23
    r, t = pair_rt_closed_form(d0, k, zeta)
    x0 = stable_com_position(1.0, 1.0, r, t, k)
    positions = [i * d0 - x0 for i in (1, 2, 3, 4)]
    return {
        "version": "1",
        "units": {"lambda_ref": 1.0},
        "chain": {"zeta": [zeta, 0.0], "positions": positions},
        "modes": [
            {"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0},
            {
                "label": "p",
                "k": 1.0,
                "intensity_left": 1.0 * i_p_scale,
                "intensity_right": 0.0,
                "zeta_override": [0.1, 0.0],
            },
        ],
        "dynamics": {
            "regime": "newtonian",
            "mass": 1.0,
            "friction": 0.01,
            "dt": 0.5,
            "t_end": 2000.0,
        },
        "output": {"capture_every": 4},
    }


def _preset_resonant_transfer(i_p_scale: float) -> dict:
    from .equilibria import find_equilibrium
    from .lattice import build_lattice
    # three-splitter lattice, weak near-resonant drive from the left, the
    # far splitter kicked off equilibrium; energy funnels to splitter 1.
    # each scale relaxes at its own equilibrium before the kick: reusing the
    # full-drive positions at scale 0 rides a global transient that swamps
    # the splitter-1 signal
    k = K_REF
    zeta = 0.01
    k_p = k / 0.99
    i_p = 0.05 * i_p_scale
    scenario = build_lattice(3, 1.0, 1.0, zeta, k=k, i_p=i_p, k_p=k_p, zeta_p=0.1)
    chain = scenario.chain()
    report = find_equilibrium(chain, scenario.modes())
    pos = list(report.positions)
    pos[2] += 0.02
    return {
        "version": "1",
        "units": {"lambda_ref": 1.0},
        "chain": {"zeta": [zeta, 0.0], "positions": pos},
        "modes": [
            {"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0},
            {
                "label": "p",
                "k": 1.0 / 0.99,
                "intensity_left": i_p,
                "intensity_right": 0.0,
                "zeta_override": [0.1, 0.0],
            },
        ],
        "dynamics": {
            "regime": "newtonian",
            "mass": 1.0,
            "friction": 0.01,
            "dt": 0.5,
            "t_end": 1500.0,
        },
        "output": {"capture_every": 2},
    }


# every built-in scenario: name -> (builder, whether it takes --ip-scale,
# which is then its one argument)
_PRESETS = {
    "self_ordering": (_preset_self_ordering, False),
    "drift_intensity": (_preset_drift_intensity, False),
    "drift_wavenumber": (_preset_drift_wavenumber, False),
    "stationary_distance_map": (_preset_stationary_distance_map, False),
    "gap_vs_intensity": (_preset_gap_vs_intensity, False),
    "correlated_oscillation": (_preset_correlated_oscillation, True),
    "resonant_transfer": (_preset_resonant_transfer, True),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def preset_document(name: str, i_p_scale: float = 1.0) -> dict:
    """The scenario document of the built-in scenario name.

    i_p_scale rescales the perturbation intensity of the presets whose
    table entry takes it; each builder says what the scale does to its
    starting positions. An unknown name, or a scale other than 1 for a
    preset that takes none, raises ScenarioError; a scale that is not a
    finite number of at least 0 raises ValueError.
    """
    builder, scaled = _PRESETS.get(name, (None, False))
    if i_p_scale != 1.0 and not scaled:
        raise ScenarioError("--ip-scale applies only to the presets " + ", ".join(
            preset for preset in preset_names() if _PRESETS[preset][1]))
    if builder is None:
        raise ScenarioError(f"unknown preset {name!r}; known: {', '.join(preset_names())}")
    if not scaled:
        return builder()
    check_number("i_p_scale", i_p_scale, minimum=0)
    return builder(i_p_scale)


def _load(args) -> tuple[Scenario, _Artifacts]:
    """The run's scenario, and the writer of its artifacts (named by args.command)."""
    if (args.scenario is None) == (args.preset is None):
        raise ScenarioError("give exactly one of --scenario or --preset")
    if args.preset is None and args.ip_scale == 1.0:
        scn = load_scenario(args.scenario)
    else:  # a preset, or a file with an --ip-scale, which preset_document(None) refuses
        try:
            doc = preset_document(args.preset, i_p_scale=args.ip_scale)
        except ValueError as exc:
            raise ScenarioError(f"--ip-scale: {exc}") from exc
        scn = scenario_from_document(doc, name=f"preset:{args.preset}")
    prefix = scn.doc.get("output", {}).get("prefix")
    return scn, _Artifacts(args.out, f"{prefix}_" if prefix else "", args.command, scn.sha, scn.name)


# ------------------------------------------------------------- subcommands

def cmd_fields(args) -> int:
    scn, out = _load(args)
    chain, modes = scn.chain, scn.mode_list()
    if chain.n > 0:
        lo, hi = chain.positions[0] - 1.0, chain.positions[-1] + 1.0
    else:
        lo, hi = -1.0, 1.0
    if args.x_min is not None:
        lo = args.x_min
    if args.x_max is not None:
        hi = args.x_max
    xs = _grid(lo, hi, args.samples, "x", "--samples")
    solution = solve_fields(chain, modes)
    profile = intensity_profile(solution, xs)
    labels = [m.label for m in modes]
    columns = ["x", "i_total"] + [f"i_{lab}" for lab in labels]
    rows = [
        [x, total] + [per[lab] for lab in labels] for (x, total, per) in profile
    ]
    out.csv("fields.csv", columns, rows)
    amp_cols = ["mode", "splitter", "x"] + [
        f"{q}_{part}" for q in "abcd" for part in ("re", "im")
    ]
    amp_rows = []
    for mf in solution.fields:
        for j, quad in enumerate(mf.quads):
            row = [mf.label, j + 1, chain.positions[j]]
            for val in quad:
                row.extend([val.real, val.imag])
            amp_rows.append(row)
    out.csv("amplitudes.csv", amp_cols, amp_rows)
    summary = {}
    if chain.n > 0:
        for mf in solution.fields:
            r, t = mf.r_tot, mf.t_tot
            summary[mf.label] = {
                "r": [r.real, r.imag],
                "t": [t.real, t.imag],
                "reflectance": abs(r) ** 2,
                "transmittance": abs(t) ** 2,
            }
    out.json("fields_summary.json", {"modes": summary})
    return 0


def cmd_forces(args) -> int:
    from .forcefield import PairForceParams, forces_batch, pair_forces_approx
    scn, out = _load(args)
    chain, modes = scn.chain, scn.mode_list()
    if chain.n != 2:
        raise ScenarioError("forces table needs a two-scatterer chain")
    d_values = _grid(args.d_min, args.d_max, args.steps, "d", "--steps")
    x1 = chain.positions[0]
    zeta = chain.zeta_base[0]
    iy = abs(modes[0].drive_left) ** 2 / 2.0
    # the closed forms hold for a real coupling that scales with k (no
    # zeta_override), beam y from the left only and beam z from the right only
    approx_ok = (len(modes) == 2 and zeta.imag == 0.0 and iy > 0
                 and modes[0].drive_right == 0 and modes[1].drive_left == 0
                 and modes[0].zeta_override is None and modes[1].zeta_override is None)
    if approx_ok:
        iz = abs(modes[1].drive_right) ** 2 / 2.0
        params = PairForceParams(
            p=iz / iy,
            k_y=modes[0].k,
            k_z=modes[1].k,
            zeta=zeta.real * modes[0].effective_scale,
            i_y=iy,
        )
    exact = forces_batch(chain, modes, [(x1, x1 + d) for d in d_values]).tolist()
    rows = []
    for d, f in zip(d_values, exact):
        if approx_ok:
            fa1, fa2 = pair_forces_approx(d, params)
        else:
            fa1 = fa2 = math.nan
        rows.append([d, f[0], f[1], fa1, fa2])
    out.csv("forces.csv", ["d", "f1_exact", "f2_exact", "f1_approx", "f2_approx"], rows)
    return 0


def _trajectory_rows(traj, n):
    cols = ["t"] + [f"x{j + 1}" for j in range(n)]
    if traj.velocities is not None:
        cols += [f"v{j + 1}" for j in range(n)]
    rows = []
    for i, t in enumerate(traj.times):
        row = [t] + list(traj.positions[i])
        if traj.velocities is not None:
            row += list(traj.velocities[i])
        rows.append(row)
    return cols, rows


def _run_dynamics(args) -> int:
    """relax (the overdamped regime only) or evolve, as args.command names."""
    scn, out = _load(args)
    if scn.dynamics is None:
        raise ScenarioError(f"{args.command} needs a dynamics block")
    if args.command == "relax" and scn.dynamics.regime != "overdamped":
        raise ScenarioError("relax requires the overdamped regime")
    state = settle(scn)
    traj, chain = state.trajectory, state.field.chain
    cols, rows = _trajectory_rows(traj, chain.n)
    out.csv("trajectory.csv", cols, rows)
    summary = {
        "termination": traj.termination,
        "diagnostic": state.collision or traj.diagnostic,
        "partial": state.collision is not None,
        "final_positions": list(chain.positions),
        "final_gaps": state.gaps,
        "residual_force_sup": state.residual,
        "comoving_residual": state.comoving_residual,
        "com_velocity": state.com_velocity,
        "snapshots": traj.n_snapshots,
    }
    out.json("summary.json", summary)
    return 3 if state.collision is not None else 0


def _sweep_cell(scn: Scenario) -> list:
    """The cells of scn's sweep row after its axis values: where it settled, or why it failed."""
    try:
        state = settle(scn)
        if state.collision is None:
            stability, stiffness = state.verdict()
            return [*state.gaps, state.com_velocity, state.residual, state.comoving_residual,
                    stiffness, stability, ""]
        error = f"SeparationViolation: {state.collision}"
    except LightLatticeError as exc:
        error = f"{type(exc).__name__}: {exc}"
    return [math.nan] * (scn.chain.n + 3) + ["failed", error.replace(",", ";")]


def _thread_count() -> int:
    raw = os.environ.get("LIGHTLATTICE_THREADS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ScenarioError(
                f"LIGHTLATTICE_THREADS must be an integer, got {raw!r}"
            ) from None
        if n < 1:
            raise ScenarioError("LIGHTLATTICE_THREADS must be >= 1")
        return n
    return 1


def cmd_sweep(args) -> int:
    scn, out = _load(args)
    if not scn.sweep_axes:
        raise ScenarioError("sweep needs a sweep block with at least one axis")
    if scn.dynamics is None:
        raise ScenarioError("sweep needs a dynamics block")
    n = scn.chain.n
    axes = scn.sweep_axes
    # every cell is decoded before any runs, so an invalid one refuses the whole sweep
    cells = []
    for combo in itertools.product(*(ax.values() for ax in axes)):
        doc = apply_axis_values(scn.doc, [(ax.path, v) for ax, v in zip(axes, combo)])
        doc.pop("sweep")
        cells.append((combo, scenario_from_document(doc, name="sweep-cell")))
    threads = _thread_count()
    if threads <= 1 or len(cells) <= 2:
        results = [_sweep_cell(cell) for _, cell in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_sweep_cell, [cell for _, cell in cells]))
    axis_cols = [ax.path.replace(".", "_") for ax in axes]
    columns = axis_cols + [f"gap_{j + 1}" for j in range(n - 1)] + [
        "com_velocity", "residual", "comoving_residual", "dt_stiffness", "stability", "error",
    ]
    rows = [[*combo, *tail] for (combo, _), tail in zip(cells, results)]
    out.csv("sweep.csv", columns, rows)
    return 0


def cmd_design(args) -> int:
    from .equilibria import design_wavenumber
    if args.d is not None:
        d_values = list(args.d)
    else:
        d_values = _grid(args.d_min, args.d_max, args.steps, "d", "--steps")
    k_y = args.k_y * K_REF
    params_doc = {
        "command": args.command,
        "d": d_values,
        "k_y": args.k_y,
        "zeta": args.zeta,
        "band_max": args.band_max,
        "i_y": args.i_y,
        "refine": not args.no_refine,
    }
    out = _Artifacts(args.out, "", args.command, scenario_hash(params_doc), "design-parameters")
    columns = [
        "d", "k_z_over_k_y", "k_z", "p", "p1", "p2", "physical",
        "residual_f1", "residual_f2", "stability", "refined", "error",
    ]
    rows = []
    for d in d_values:
        try:
            cands = design_wavenumber(
                d,
                k_y,
                zeta=args.zeta,
                band=(1e-9, args.band_max * k_y),
                i_y=args.i_y,
                refine=not args.no_refine,
            )
        except ValueError as exc:
            raise ScenarioError(f"design: {exc}") from exc
        except NoSolution as exc:
            rows.append(
                [d] + [math.nan] * 5 + [False, math.nan, math.nan, "n/a", False,
                                        str(exc).replace(",", ";")]
            )
            continue
        for c in cands:
            rows.append([
                d, c.k_z / k_y, c.k_z / K_REF, c.p, c.p1, c.p2, c.physical,
                c.residual_f1, c.residual_f2, c.stability, c.refined, "",
            ])
    out.csv("design.csv", columns, rows)
    return 0


def cmd_modes(args) -> int:
    from .equilibria import linearize_pair_in_lattice, normal_modes
    from .lattice import build_lattice
    scn, out = _load(args)
    chain, modes = scn.chain, scn.mode_list()
    if args.mass is not None and scn.dynamics is not None:
        raise ScenarioError("--mass applies only to a scenario without a dynamics block")
    if chain.n != 2:
        raise ScenarioError("mode analysis needs a two-scatterer lattice")
    if len(modes) > 2:
        raise ScenarioError(f"mode analysis takes at most two modes, got {len(modes)}")
    sw = modes[0]
    i_l = abs(sw.drive_left) ** 2 / 2.0
    i_r = abs(sw.drive_right) ** 2 / 2.0
    if i_l <= 0 or i_r <= 0:
        raise ScenarioError("the first mode must drive from both sides")
    # the lattice reads intensities only, so a drive phase would be dropped
    if any(drive.imag or drive.real < 0 for drive in (sw.drive_left, sw.drive_right)):
        raise ScenarioError("mode analysis is defined for a standing wave without drive phases")
    zeta = chain.zeta_base[0]
    override = None if sw.zeta_override is None else complex(sw.zeta_override)
    if zeta.imag != 0.0 or (override is not None and override.imag != 0.0):
        raise ScenarioError("mode analysis is defined for real coupling")
    zeta_eff = zeta.real * sw.effective_scale if override is None else override.real
    i_p = 0.0
    k_p = None
    zeta_p = None
    if len(modes) > 1:
        p = modes[1]
        i_p = abs(p.drive_left) ** 2 / 2.0
        k_p = p.k
        # the linearization must see the same coupling the field solver
        # applies to this mode, so resolve the default here
        zeta_p = p.zeta_override
        if zeta_p is None:
            zeta_p = zeta.real * p.effective_scale
        if abs(p.drive_right) > 0:
            raise ScenarioError("the perturbation mode must drive from the left")
    ip_max = args.ip_max if args.ip_max is not None else (2.0 * i_p if i_p > 0 else 1.0)
    ip_values = _grid(0.0, ip_max, args.ip_steps, "ip")
    if scn.dynamics is not None:
        mass = scn.dynamics.mass
    else:
        mass = 1.0 if args.mass is None else args.mass
    lattice = build_lattice(
        2, i_l, i_r, zeta_eff, k=sw.k, i_p=i_p, k_p=k_p, zeta_p=zeta_p
    )
    model = linearize_pair_in_lattice(lattice, mass=mass)
    try:
        nm = normal_modes(model)
        mode_block = {
            "omega1": nm.omega1,
            "omega2": nm.omega2,
            "vector1": list(nm.vector1),
            "vector2": list(nm.vector2),
            "offset": nm.offset,
        }
    except (UnstableMode, ValueError) as exc:
        mode_block = {"error": str(exc)}
    payload = {
        "equilibrium": {
            "positions": list(lattice.positions),
            "d_sw": lattice.d_sw,
            "x0_seed": lattice.x0,
            "asymmetry": lattice.asymmetry,
        },
        "model": {
            "K": model.k_spring,
            "kappa1": model.kappa1,
            "kappa2": model.kappa2,
            "f_ext": model.f_ext,
            "mass": model.mass,
            "constants": model.constants,
            "identities": model.identities,
        },
        "normal_modes": mode_block,
    }
    out.json("modes.json", payload)
    rows = []
    for ip in ip_values:
        lat = dataclasses.replace(lattice, i_p=ip)
        mdl = linearize_pair_in_lattice(lat, mass=mass)
        rows.append([
            ip, mdl.k_spring, mdl.kappa1, mdl.kappa2, mdl.f_ext,
        ])
    out.csv("coupling_sweep.csv", ["i_p", "K", "kappa1", "kappa2", "f_ext"], rows)
    return 0


def cmd_zerolines(args) -> int:
    from .equilibria import zero_force_grid
    scn, out = _load(args)
    chain, modes = scn.chain, scn.mode_list()
    if chain.n != 3:
        raise ScenarioError("zero-force map needs a three-scatterer chain")
    d1 = _grid(args.d1_min, args.d1_max, args.d1_steps, "d1")
    d2 = _grid(args.d2_min, args.d2_max, args.d2_steps, "d2")
    grid = zero_force_grid(chain, modes, d1, d2)
    # each coordinate repeats along a whole row or column, so it is formatted
    # once; rows stream one d1 at a time, forces as Python floats, and the
    # writer's (str, str, float, float, float) template prints what _fmt would
    t1, t2 = [_fmt(a) for a in d1], [_fmt(b) for b in d2]
    rows = (row for i, a in enumerate(t1)
            for row in zip(itertools.repeat(a), t2,
                           grid.f1[i].tolist(), grid.f2[i].tolist(), grid.f3[i].tolist()))
    out.csv("zerolines.csv", ["d1", "d2", "f1", "f2", "f3"], rows)
    return 0


# ------------------------------------------------------------------ parser

def _add_common(sub):
    sub.add_argument("--scenario", help="scenario JSON file")
    sub.add_argument("--preset", help=f"built-in scenario ({', '.join(preset_names())})")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--ip-scale", type=_finite, default=1.0,
        help="scale factor on the perturbation intensity of a preset",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightlattice",
        description="Light fields, forces, and motion of scatterer chains.",
    )
    parser.add_argument("--version", action="version",
                        version=f"lightlattice {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fields", help="intensity profile and mode amplitudes")
    _add_common(p)
    p.add_argument("--x-min", type=_finite, default=None)
    p.add_argument("--x-max", type=_finite, default=None)
    p.add_argument("--samples", type=int, default=801)
    p.set_defaults(func=cmd_fields)

    p = subs.add_parser("forces", help="pair force-vs-distance table")
    _add_common(p)
    p.add_argument("--d-min", type=_positive, default=0.02)
    p.add_argument("--d-max", type=_finite, default=0.98)
    p.add_argument("--steps", type=int, default=193)
    p.set_defaults(func=cmd_forces)

    p = subs.add_parser("relax", help="overdamped relaxation to steady state")
    _add_common(p)
    p.set_defaults(func=_run_dynamics)

    p = subs.add_parser("evolve", help="time evolution in either regime")
    _add_common(p)
    p.set_defaults(func=_run_dynamics)

    p = subs.add_parser("sweep", help="parallel parameter sweep")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("design", help="wavenumber/intensity design table")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--d", type=_finite, action="append",
                   help="target distance (repeatable, reference wavelengths)")
    p.add_argument("--d-min", type=_finite, default=0.05)
    p.add_argument("--d-max", type=_finite, default=0.45)
    p.add_argument("--steps", type=int, default=9)
    p.add_argument("--k-y", type=_finite, default=1.0,
                   help="first-beam wavenumber in reference units")
    p.add_argument("--zeta", type=_finite, default=0.01)
    p.add_argument("--band-max", type=_positive, default=4.0,
                   help="largest k_z/k_y candidate kept")
    p.add_argument("--i-y", type=_finite, default=1.0)
    p.add_argument("--no-refine", action="store_true",
                   help="skip Newton refinement against the exact forces")
    p.set_defaults(func=cmd_design)

    p = subs.add_parser("modes", help="linearized pair model and couplings")
    _add_common(p)
    p.add_argument("--mass", type=_positive, default=None,
                   help="scatterer mass (default 1) when the scenario has no dynamics block")
    p.add_argument("--ip-max", type=_positive, default=None)
    p.add_argument("--ip-steps", type=int, default=21)
    p.set_defaults(func=cmd_modes)

    p = subs.add_parser("zerolines", help="three-splitter force map over (d1, d2)")
    _add_common(p)
    p.add_argument("--d1-min", type=_positive, default=0.05)
    p.add_argument("--d1-max", type=_finite, default=0.95)
    p.add_argument("--d1-steps", type=int, default=41)
    p.add_argument("--d2-min", type=_positive, default=0.05)
    p.add_argument("--d2-max", type=_finite, default=0.95)
    p.add_argument("--d2-steps", type=int, default=41)
    p.set_defaults(func=cmd_zerolines)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LightLatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
