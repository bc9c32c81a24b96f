"""End-to-end acceptance checks, one test per criterion.

Each test enforces the stated tolerances and its runtime budget. Criteria
that the exact engine contradicts are asserted as stated anyway; their
failure messages carry the measured values so the disagreement is
documented rather than hidden.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from lightlattice.cli import main, preset_document
from lightlattice.dynamics import DynamicsParams, com_velocity, evolve
from lightlattice.errors import SeparationViolation
from lightlattice.equilibria import design_wavenumber, find_equilibrium, normal_modes, linearize_pair_in_lattice
from lightlattice.forcefield import PairForceParams, forces_exact, pair_forces_approx
from lightlattice.lattice import build_lattice, lattice_constant
from lightlattice.scenario import scenario_from_document
from lightlattice.wavecore import (
    K_REF,
    Mode,
    ScattererChain,
    reflection_transmission,
    solve_fields,
    total_transfer_matrix,
)


def symmetric_pair_modes(i_y=1.0, i_z=1.0, k_z=K_REF):
    return [
        Mode("y", K_REF, drive_left=math.sqrt(2.0 * i_y)),
        Mode("z", k_z, drive_right=math.sqrt(2.0 * i_z)),
    ]


def pair_force(d, j, zeta=0.01, modes=None):
    chain = ScattererChain((0.0, d), zeta)
    return forces_exact(chain, modes or symmetric_pair_modes()).total[j]


def bisect_zero(fn, lo, hi, iters=80):
    flo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_c01_pair_equilibrium_positions_and_stability():
    t0 = time.monotonic()
    zeta = 0.01
    modes = symmetric_pair_modes()

    cross_low_f1 = bisect_zero(lambda d: pair_force(d, 0, zeta), 0.05, 0.25)
    cross_high_f1 = bisect_zero(lambda d: pair_force(d, 0, zeta), 0.25, 0.45)
    cross_low_f2 = bisect_zero(lambda d: pair_force(d, 1, zeta), 0.05, 0.25)
    cross_high_f2 = bisect_zero(lambda d: pair_force(d, 1, zeta), 0.25, 0.45)

    report_low = find_equilibrium(
        ScattererChain((0.0, cross_low_f1), zeta), modes, relative_only=True
    )
    report_high = find_equilibrium(
        ScattererChain((0.0, cross_high_f1), zeta), modes, relative_only=True
    )

    checks = []
    checks.append(("F1/F2 crossings coincide",
                   abs(cross_low_f1 - cross_low_f2) < 1e-9
                   and abs(cross_high_f1 - cross_high_f2) < 1e-9))
    checks.append(("lower crossing stability unstable",
                   report_low.classification == "unstable"))
    checks.append(("upper crossing stability stable",
                   report_high.classification == "stable"))
    checks.append(("lower crossing at lambda/8 within 1e-6",
                   abs(cross_low_f1 - 0.125) < 1e-6))
    checks.append(("upper crossing at 3 lambda/8 within 1e-6",
                   abs(cross_high_f1 - 0.375) < 1e-6))

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    failed = [name for name, ok in checks if not ok]
    if failed:
        pytest.fail(
            "criterion asserts exact-force zero crossings at lambda/8 and "
            "3 lambda/8 within 1e-6; the exact engine puts them at "
            f"{cross_low_f1:.9f} and {cross_high_f1:.9f} (both forces agree "
            "on these to 1e-9, stability matches: lower unstable, upper "
            "stable). The eighth-wavelength marks are zeros of the "
            "leading-order force only; the exact crossings sit lower by "
            f"~zeta/(2 pi) = {zeta / (2 * math.pi):.2e} scaled. "
            f"Failed sub-checks: {failed}"
        )
    print(f"[C01] PASS in {elapsed:.2f}s")


def test_c02_approximation_error_scales_cubically():
    t0 = time.monotonic()
    d_grid = np.linspace(0.0505, 0.9495, 900)

    def sup_gap(zeta):
        params = PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=zeta)
        worst = 0.0
        for d in d_grid:
            f1a, f2a = pair_forces_approx(d, params)
            f1e = pair_force(d, 0, zeta)
            f2e = pair_force(d, 1, zeta)
            worst = max(worst, abs(f1a - f1e), abs(f2a - f2e))
        return worst

    ratio = sup_gap(0.02) / sup_gap(0.01)
    elapsed = time.monotonic() - t0
    assert 6.0 <= ratio <= 10.0, f"error drop factor {ratio:.2f} outside [6,10]"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"[C02] PASS in {elapsed:.2f}s (factor {ratio:.2f})")


def test_c03_conservation_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    worst_det = worst_flux = worst_tele = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        gaps = rng.uniform(0.02, 0.9, size=n - 1) if n > 1 else []
        positions = tuple(np.concatenate([[0.0], np.cumsum(gaps)]))
        zeta = float(rng.uniform(0.0, 0.2))
        chain = ScattererChain(positions, zeta)
        amp_l = complex(rng.normal(), rng.normal())
        amp_r = complex(rng.normal(), rng.normal())
        mode = Mode("m", K_REF * float(rng.uniform(0.5, 2.0)),
                    drive_left=amp_l, drive_right=amp_r)

        m_tot = total_transfer_matrix(chain, mode)
        worst_det = max(worst_det, abs(m_tot.det() - 1.0))

        r, t = reflection_transmission(chain, mode)
        worst_flux = max(worst_flux, abs(abs(r) ** 2 + abs(t) ** 2 - 1.0))

        sol = solve_fields(chain, [mode])
        f = forces_exact(chain, [mode]).total
        quads = sol[mode.label].quads
        a1, b1 = quads[0][0], quads[0][1]
        cn, dn = quads[-1][2], quads[-1][3]
        # counterpropagating beams both carry +I/c momentum flux, so the
        # interior terms cancel pairwise and only the end stresses remain
        boundary = 0.5 * (
            abs(a1) ** 2 + abs(b1) ** 2 - abs(cn) ** 2 - abs(dn) ** 2
        )
        worst_tele = max(worst_tele, abs(sum(f) - boundary))
    elapsed = time.monotonic() - t0
    assert worst_det < 1e-12, f"det deviation {worst_det:.2e}"
    assert worst_flux < 1e-10, f"flux deviation {worst_flux:.2e}"
    assert worst_tele < 1e-10, f"telescoping deviation {worst_tele:.2e}"
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    print(f"[C03] PASS in {elapsed:.2f}s (det {worst_det:.1e}, "
          f"flux {worst_flux:.1e}, tele {worst_tele:.1e})")


def relax_from_half_wave(n, force_tol):
    chain = ScattererChain(tuple(0.5 * j for j in range(n)), 0.01)
    params = DynamicsParams(
        regime="overdamped", dt=5.0, t_end=400000.0, friction=1.0,
        force_tol=force_tol,
    )
    traj = evolve(chain, symmetric_pair_modes(), params, capture_every=10 ** 6)
    return traj.final_positions()


def test_c04_self_ordering_converges_to_lattice_constant():
    t0 = time.monotonic()
    final10 = relax_from_half_wave(10, 1e-11)
    gaps10 = np.diff(final10)
    spread = float(np.max(gaps10) - np.min(gaps10))
    assert spread < 1e-6, f"gap spread {spread:.2e} not below 1e-6"
    assert np.max(gaps10) < 0.5, "gaps must stay below half a wavelength"

    d_sw = lattice_constant(0.01, 0.0)
    deviations = []
    for n in (4, 10, 20, 30):
        final = final10 if n == 10 else relax_from_half_wave(n, 1e-9)
        gaps = np.diff(final)
        interior = gaps[len(gaps) // 2]
        deviations.append(abs(interior - d_sw))
    assert all(b < a for a, b in zip(deviations, deviations[1:])), (
        f"interior-gap deviations from d_sw not monotone: {deviations}"
    )
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    print(f"[C04] PASS in {elapsed:.1f}s (spread {spread:.1e}, "
          f"deviations {[f'{x:.4f}' for x in deviations]})")


def drifting_pattern(modes):
    chain = ScattererChain(tuple(0.5 * j for j in range(10)), 0.01)
    params = DynamicsParams(
        regime="overdamped", dt=5.0, t_end=40000.0, friction=1.0,
        force_tol=0.0,
    )
    traj = evolve(chain, modes, params, capture_every=40)
    v = com_velocity(traj)
    final = traj.final_positions()
    report = find_equilibrium(
        ScattererChain(final, 0.01), modes, relative_only=True
    )
    gaps = np.diff(report.positions)
    return v, report.classification, float(np.max(gaps) - np.min(gaps))


def test_c05_asymmetric_drives_produce_stable_drift():
    t0 = time.monotonic()
    v_int, cls_int, span_int = drifting_pattern(
        symmetric_pair_modes(i_y=1.0, i_z=1.3)
    )
    assert cls_int == "stable"
    assert span_int > 1e-3, "pattern should not be equidistant"
    assert abs(v_int) > 1e-5, "fitted drift must be nonzero"
    assert v_int < 0, "stronger right beam pushes the chain toward -x"

    v_wav, cls_wav, span_wav = drifting_pattern(
        symmetric_pair_modes(k_z=1.3 * K_REF)
    )
    assert cls_wav == "stable"
    assert span_wav > 1e-3
    assert abs(v_wav) > 1e-5
    assert v_wav > 0, "wavenumber asymmetry drifts the other way"
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 1min"
    print(f"[C05] PASS in {elapsed:.1f}s (v_int {v_int:.2e}, v_wav {v_wav:.2e})")


def test_c06_design_round_trip():
    t0 = time.monotonic()
    zeta = 0.01
    # distances where a stable balanced branch exists inside the default
    # band: below d k_y ~ 0.56 the only in-band partner is unstable, and
    # past ~0.91 every branch destabilizes before the domain edge
    targets = np.linspace(0.57, 0.91, 50) / K_REF
    for d in targets:
        cands = [c for c in design_wavenumber(d, K_REF, zeta=zeta) if c.physical]
        assert cands, f"no physical branch at d={d:.4f}"
        assert any(c.stability == "stable" for c in cands), (
            f"no stable branch at d={d:.4f}"
        )
        for c in cands:
            chain = ScattererChain((0.0, d), zeta)
            modes = [
                Mode("y", K_REF, drive_left=math.sqrt(2.0), zeta_scale=1.0),
                Mode("z", c.k_z, drive_right=math.sqrt(2.0 * c.p),
                     zeta_scale=c.k_z / K_REF),
            ]
            f = forces_exact(chain, modes).total
            assert abs(f[0]) < 1e-4 and abs(f[1]) < 1e-4, (
                f"forces not nulled at d={d:.4f}, k_z={c.k_z:.4f}: {f}"
            )
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    print(f"[C06] PASS in {elapsed:.1f}s (50 targets)")


def measure_symmetric_frequency(scenario, model):
    # undamped swing of the in-phase mode about the lattice equilibrium
    omega = normal_modes(model).omega1
    period = 2.0 * math.pi / omega
    shifted = tuple(x + 1e-3 for x in scenario.positions)
    params = DynamicsParams(
        regime="newtonian", dt=period / 400.0, t_end=10.0 * period,
        friction=0.0, mass=model.mass,
    )
    traj = evolve(scenario.chain().with_positions(shifted),
                  scenario.lattice_modes(), params)
    com_eq = sum(scenario.positions) / len(scenario.positions)
    s = [sum(x) / len(x) - com_eq for x in traj.positions]
    crossings = []
    for i in range(1, len(s)):
        if s[i - 1] * s[i] < 0:
            t0, t1 = traj.times[i - 1], traj.times[i]
            crossings.append(t0 - s[i - 1] * (t1 - t0) / (s[i] - s[i - 1]))
    gaps = [b - a for a, b in zip(crossings, crossings[1:])]
    return math.pi / (sum(gaps) / len(gaps)), omega


def test_c07_linearization_identities():
    t0 = time.monotonic()
    plain = build_lattice(2, 1.0, 1.0, 0.1)
    model0 = linearize_pair_in_lattice(plain)
    perturbed = build_lattice(2, 1.0, 1.0, 0.1, i_p=0.5, k_p=K_REF / 0.99,
                              zeta_p=0.1)
    model = linearize_pair_in_lattice(perturbed)
    ids = model.identities
    tol = ids["tolerance"]

    omega_meas, omega_pred = measure_symmetric_frequency(plain, model0)

    checks = [
        ("a = 0", abs(ids["a"]) < tol),
        ("u = 0", abs(ids["u"]) < tol),
        ("c = w", abs(ids["c_minus_w"]) < tol),
        ("K1p = K3p", abs(ids["k1p_minus_k3p"]) < tol),
        ("kappa1 = kappa2 at I_p = 0",
         abs(model0.kappa1 - model0.kappa2) < tol),
        ("omega1 within 1 percent",
         abs(omega_meas - omega_pred) / omega_pred < 0.01),
    ]
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    failed = [name for name, ok in checks if not ok]
    if failed:
        pytest.fail(
            "criterion asserts the linearization identities a=u=0, c=w, "
            "K1p=K3p; the exact constants give "
            f"a={ids['a']:.2e}, u={ids['u']:.2e} (both zero as stated) but "
            f"c={model.constants['c']:.6f} versus w={model.constants['w']:.6f}"
            ": the cross couplings are equal in magnitude and OPPOSITE in "
            f"sign (c+w={ids['c_plus_w']:.2e}), and "
            f"K1p={model.constants['k1p']:.6f} is three times "
            f"K3p={model.constants['k3p']:.6f} "
            f"(K1p-K3p={ids['k1p_minus_k3p']:.6f}), not equal. "
            f"kappa1=kappa2 at I_p=0 holds "
            f"({model0.kappa1:.6f} vs {model0.kappa2:.6f}) and the undamped "
            f"symmetric mode oscillates at {omega_meas:.5f} against the "
            f"predicted {omega_pred:.5f} (within 1 percent). "
            f"Failed sub-checks: {failed}"
        )
    print(f"[C07] PASS in {elapsed:.1f}s")


def test_c08_perturbation_force_pattern():
    t0 = time.monotonic()
    zeta_p = 0.1
    chain = ScattererChain(tuple(0.23 * j for j in range(4)), zeta_p)
    p_mode = Mode("p", K_REF, drive_left=math.sqrt(2.0),
                  zeta_override=zeta_p)
    f = forces_exact(chain, [p_mode]).total
    magnitude = sum(abs(v) for v in f) / 4.0
    signs = [-1.0, 1.0, -1.0, 1.0]
    for j, (fj, sj) in enumerate(zip(f, signs)):
        rel = abs(fj - sj * magnitude) / magnitude
        assert rel < 0.02, (
            f"splitter {j + 1}: force {fj:.6f} deviates {rel:.1%} from the "
            f"alternating pattern +-{magnitude:.6f}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"[C08] PASS in {elapsed:.2f}s (forces {[f'{v:.5f}' for v in f]})")


def run_preset_trajectory(kind, i_p_scale):
    doc = preset_document(kind, i_p_scale=i_p_scale)
    scenario = scenario_from_document(doc, name=kind)
    return scenario, evolve(
        scenario.chain,
        scenario.mode_list(),
        scenario.dynamics,
        capture_every=scenario.capture_every,
        initial_velocities=scenario.initial_velocities,
    )


def window_amplitude(xs, lo, hi):
    seg = xs[lo:hi]
    mid = sum(seg) / len(seg)
    return max(abs(x - mid) for x in seg)


def test_c09_correlated_dynamics_presets():
    t0 = time.monotonic()

    # part one: correlated oscillation envelope pattern
    collapse = None
    growth = []
    try:
        _, traj = run_preset_trajectory("correlated_oscillation", 1.0)
    except SeparationViolation as exc:
        collapse = exc
        pattern_ok = False
    else:
        n_snap = traj.n_snapshots
        early = (0, n_snap // 4)
        late = (3 * n_snap // 4, n_snap)
        for j in range(4):
            xs = [p[j] for p in traj.positions]
            growth.append((window_amplitude(xs, *early),
                           window_amplitude(xs, *late)))
        pattern_ok = (
            growth[0][1] > growth[0][0] and growth[2][1] > growth[2][0]
            and growth[1][1] < growth[1][0] and growth[3][1] < growth[3][0]
        )

    # part two: resonant energy transfer against the undriven baseline
    _, traj_on = run_preset_trajectory("resonant_transfer", 1.0)
    _, traj_off = run_preset_trajectory("resonant_transfer", 0.0)

    def ke_integral(traj, j):
        return sum(v[j] ** 2 for v in traj.velocities)

    ratio = ke_integral(traj_on, 0) / max(ke_integral(traj_off, 0), 1e-300)
    transfer_ok = ratio >= 5.0

    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    assert transfer_ok, (
        f"kinetic energy on splitter 1 only {ratio:.1f}x the baseline"
    )
    if not pattern_ok:
        if collapse is not None:
            detail = (
                "the chain collapses before any envelope can be measured "
                f"({collapse}). The prescribed positions (gaps 0.23 of the "
                "perturbation wavelength with equal-wavelength drives) are "
                "not equilibria of the standing-wave lattice, whose "
                "self-consistent spacing at this coupling is 0.468 "
                "wavelengths; the lattice restoring forces (~0.25) dwarf "
                "the perturbation forces (~0.02) and the chain buckles "
                "within one damping time regardless of the perturbation "
                "intensity. No nearby protocol (asymmetric-drive lattices "
                "with matching spacing, subharmonic perturbation "
                "wavenumbers, or gain-window wavenumbers from a quadratic "
                "eigenvalue analysis) shows odd-site growth with even-site "
                "decay over the first 20 damping times"
            )
        else:
            rows = ", ".join(
                f"splitter {j + 1}: {a:.3e} -> {b:.3e}"
                for j, (a, b) in enumerate(growth)
            )
            detail = f"the measured envelopes are {rows}"
        pytest.fail(
            "criterion asserts oscillation-amplitude growth on splitters "
            f"1,3 and decay on 2,4 for the correlated_oscillation preset; "
            f"{detail}. The energy-transfer half of the criterion does "
            f"hold: ratio {ratio:.0f}x >= 5."
        )
    print(f"[C09] PASS in {elapsed:.1f}s (transfer ratio {ratio:.0f}x)")


def test_c10_sweep_determinism(tmp_path, monkeypatch):
    t0 = time.monotonic()
    doc = {
        "version": "1",
        "chain": {"zeta": [0.01, 0.0], "positions": [0.0, 0.36]},
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": 1.0, "intensity_right": 1.0},
        ],
        "dynamics": {"regime": "overdamped", "dt": 10.0, "t_end": 50000.0,
                     "force_tol": 1e-9},
        "sweep": {"axes": [{"path": "modes.z.intensity_right",
                            "start": 0.8, "stop": 1.2, "steps": 6}]},
        "output": {"format": "csv", "prefix": "det"},
    }
    path = tmp_path / "det.json"
    path.write_text(json.dumps(doc))

    payloads = []
    for workers, sub in (("1", "w1"), ("2", "w2"), ("4", "w4")):
        monkeypatch.setenv("LIGHTLATTICE_THREADS", workers)
        out = tmp_path / sub
        assert main(["sweep", "--scenario", str(path), "--out", str(out)]) == 0
        payloads.append((out / "det_sweep.csv").read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]
    elapsed = time.monotonic() - t0
    print(f"[C10] PASS in {elapsed:.1f}s (byte-identical across 1/2/4 workers)")
