import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lightlattice import equilibria
from lightlattice.equilibria import (
    LinearizedModel,
    design_intensity_ratio,
    design_wavenumber,
    find_equilibrium,
    force_jacobian,
    linearize_pair_in_lattice,
    normal_modes,
    pair_stationary_distances,
    zero_force_grid,
)
from lightlattice.errors import (
    InconsistentLinearization,
    NoConvergence,
    NoSolution,
    SingularBoundary,
    UnstableMode,
)
from lightlattice.dynamics import DynamicsParams, evolve
from lightlattice.forcefield import ForceField, forces_batch, forces_exact
from lightlattice.lattice import build_lattice
from lightlattice.wavecore import K_REF, Mode, ScattererChain, mode_zetas
from mp_reference import mp_forces, mp_jacobian, mp_k_slope, mp_pair_forces
from test_wavecore import drives, varied_chains, varied_modes

EXACT_CROSSING_LOW = 0.123416461
EXACT_CROSSING_HIGH = 0.373400547


def symmetric_modes(i_y=1.0, i_z=1.0, k_z=K_REF):
    return [
        Mode("y", K_REF, drive_left=math.sqrt(2.0 * i_y)),
        Mode("z", k_z, drive_right=math.sqrt(2.0 * i_z)),
    ]


def test_pair_relative_equilibria_from_seeds():
    modes = symmetric_modes()
    stable = find_equilibrium(
        ScattererChain((0.0, 0.35), 0.01), modes, relative_only=True
    )
    gap = stable.positions[1] - stable.positions[0]
    assert gap == pytest.approx(EXACT_CROSSING_HIGH, abs=5e-9)
    assert stable.classification == "stable"
    assert stable.translation_projected

    unstable = find_equilibrium(
        ScattererChain((0.0, 0.13), 0.01), modes, relative_only=True
    )
    gap_u = unstable.positions[1] - unstable.positions[0]
    assert gap_u == pytest.approx(EXACT_CROSSING_LOW, abs=5e-9)
    assert unstable.classification == "unstable"


def test_pair_stationary_distance_catalogue():
    entries = pair_stationary_distances(K_REF, 3)
    assert [e[1] for e in entries] == ["unstable", "stable", "unstable", "stable"]
    assert entries[0][0] == pytest.approx(0.125)
    assert entries[1][0] == pytest.approx(0.375)
    with pytest.raises(ValueError):
        pair_stationary_distances(0.0, 1)


def test_triplet_equilibrium_residual_and_com():
    modes = symmetric_modes()
    report = find_equilibrium(
        ScattererChain((0.0, 0.38, 0.76), 0.01), modes, relative_only=True
    )
    assert report.residual < 1e-11
    assert abs(report.com_force) < 1e-11
    chain = ScattererChain(report.positions, 0.01)
    f = forces_exact(chain, modes).total
    # relative coordinates are stationary: neighbour forces agree
    assert f[1] - f[0] == pytest.approx(0.0, abs=1e-10)
    assert f[2] - f[1] == pytest.approx(0.0, abs=1e-10)


def test_jacobian_respects_translation_invariance():
    # one-sided drives: shifting every scatterer together changes nothing,
    # so the uniform vector lies in the Jacobian kernel
    chain = ScattererChain((0.0, 0.37, 0.74), 0.05)
    jac = force_jacobian(chain, symmetric_modes())
    kernel_action = jac @ np.ones(3)
    assert np.max(np.abs(kernel_action)) < 1e-5


def test_stable_equilibrium_recovers_from_perturbation():
    modes = symmetric_modes()
    report = find_equilibrium(
        ScattererChain((0.0, 0.37), 0.02), modes, relative_only=True
    )
    nudged = tuple(x + s for x, s in zip(report.positions, (1e-3, -1e-3)))
    traj = evolve(
        ScattererChain(nudged, 0.02),
        modes,
        DynamicsParams(regime="overdamped", dt=2.0, t_end=50000.0,
                       friction=1.0, force_tol=1e-12),
        capture_every=100,
    )
    gap0 = report.positions[1] - report.positions[0]
    back = traj.final_positions()
    assert back[1] - back[0] == pytest.approx(gap0, abs=1e-8)


def test_design_ratio_balance_point():
    # at the matched wavenumber both ratios coincide
    d = 0.125
    res = design_wavenumber(d, K_REF, zeta=0.01, refine=False)
    assert res, "expected at least one candidate"
    for cand in res:
        ratios = design_intensity_ratio(d, K_REF, cand.k_z, 0.01)
        assert ratios.p1 == pytest.approx(ratios.p2, abs=1e-8)
        assert cand.p == pytest.approx(ratios.p1, abs=1e-10)


@given(theta=st.floats(min_value=0.15, max_value=0.92))
def test_design_balance_holds_across_domain(theta):
    d = theta / K_REF
    cands = design_wavenumber(d, K_REF, zeta=0.02, refine=False)
    physical = [c for c in cands if c.physical]
    for cand in physical:
        ratios = design_intensity_ratio(d, K_REF, cand.k_z, 0.02)
        assert ratios.p1 == pytest.approx(ratios.p2, abs=1e-8)


def test_design_branches_at_quarter_period():
    # d k_y = pi/4 admits k_z near k_y and near 3 k_y, and nothing near 2 k_y
    d = 0.125
    cands = design_wavenumber(d, K_REF, zeta=0.01)
    ratios_k = sorted(c.k_z / K_REF for c in cands if c.physical)
    assert any(abs(rk - 1.0) < 0.05 for rk in ratios_k)
    assert any(abs(rk - 3.0) < 0.05 for rk in ratios_k)
    assert not any(abs(rk - 2.0) < 0.2 for rk in ratios_k)


def test_design_refinement_zeroes_exact_forces():
    d = 0.125
    cands = design_wavenumber(d, K_REF, zeta=0.01, refine=True)
    physical = [c for c in cands if c.physical]
    assert physical
    for cand in physical:
        assert cand.refined
        assert abs(cand.residual_f1) < 1e-10
        assert abs(cand.residual_f2) < 1e-10
    assert any(c.stability == "stable" for c in physical)


def test_design_out_of_domain_reports_radicand():
    # cos(2 d k_y) < -1/3 leaves no balanced wavenumber
    d = 0.25  # 2 d k_y = pi
    with pytest.raises(NoSolution) as exc_info:
        design_wavenumber(d, K_REF, zeta=0.01)
    assert exc_info.value.radicand is not None
    # -1/2 < cos(2 d k_y) = -0.4 < -1/3: a balance point whose cos^2(d k_z) is 1.5
    with pytest.raises(NoSolution, match=r"^squared cosine 1\.5 exceeds 1$") as exc_info:
        design_wavenumber(math.acos(-0.4) / (4.0 * math.pi), K_REF, zeta=0.01)
    assert exc_info.value.radicand == pytest.approx(1.5, rel=1e-12)
    with pytest.raises(ValueError):
        design_wavenumber(-0.1, K_REF)


@pytest.mark.parametrize("d,k_y,band,i_y", [
    (math.nan, K_REF, None, 1.0),
    (math.inf, K_REF, None, 1.0),
    (0.1, 0.0, None, 1.0),
    (0.1, math.inf, None, 1.0),
    (0.1, math.nan, None, 1.0),
    (0.1, K_REF, (1e-9, math.nan), 1.0),
    (0.1, K_REF, (1e-9, math.inf), 1.0),
    (0.1, K_REF, (math.nan, 4.0 * K_REF), 1.0),
    (0.1, K_REF, (1e-9, -K_REF), 1.0),
    (0.1, K_REF, (1.0, 1.0), 1.0),
    (0.1, K_REF, None, -1.0),
    (0.1, K_REF, None, math.nan),
    (0.1, K_REF, None, math.inf),
])
def test_design_rejects_inputs_outside_its_domain(d, k_y, band, i_y):
    # a NaN distance or band edge used to spin forever in the branch search
    with pytest.raises(ValueError):
        design_wavenumber(d, k_y, zeta=0.01, band=band, i_y=i_y)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf, 0.01 + 0.001j,
                                  1e153, 1e154, 1e200])
def test_design_rejects_a_zeta_that_is_not_real_and_finite(zeta):
    # a NaN or infinite zeta used to give candidates flagged non-physical,
    # and a complex one a raw TypeError from the closed-form ratios; those
    # ratios square 2 zeta k_z, and past the float range they gave a NaN
    # drive (1e153, 1e154) or a raw OverflowError (1e200)
    with pytest.raises(ValueError, match="^zeta must"):
        design_wavenumber(0.1, K_REF, zeta=zeta)


def test_design_keeps_the_closed_form_seed_where_refinement_gives_up():
    # at d = 0.15, zeta = 0.02 a Newton step of every physical branch leaves
    # p > 0 or the band, so each candidate is its unrefined seed
    cands = design_wavenumber(0.15, K_REF, zeta=0.02)
    physical = [c for c in cands if c.physical]
    assert [c.k_z / K_REF for c in physical] == pytest.approx([1 / 3, 3, 11 / 3])
    assert not any(c.refined for c in physical)
    assert repr(cands) == repr(design_wavenumber(0.15, K_REF, zeta=0.02, refine=False))


def test_find_equilibrium_reports_a_stalled_line_search():
    # a pair 0.05 apart in a standing wave: ten halvings of the Newton step
    # find no descent after six iterations
    chain = ScattererChain((0.0, 0.05), 0.05)
    modes = [Mode("sw", K_REF, drive_left=math.sqrt(2.0), drive_right=math.sqrt(2.0))]
    with pytest.raises(NoConvergence) as exc:
        find_equilibrium(chain, modes)
    assert str(exc.value) == "Newton stalled at sup-residual 3.477e-02 after 6 iterations"
    best = forces_exact(chain.with_positions(exc.value.best_positions), modes).total
    assert exc.value.best_residual == max(abs(f) for f in best)
    assert exc.value.best_residual < forces_exact(chain, modes).sup


def test_find_equilibrium_falls_back_to_least_squares_on_a_singular_jacobian(monkeypatch):
    # one scatterer in a one-sided beam feels the same force everywhere: its
    # Jacobian is [[0.]], least squares gives a zero step, and the search stalls
    calls = []

    def lstsq(*args, _lstsq=np.linalg.lstsq, **kwargs):
        calls.append(args[0].tolist())
        return _lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    chain = ScattererChain((0.0,), 0.05)
    modes = [Mode("y", K_REF, drive_left=1.0)]
    with pytest.raises(NoConvergence, match="^Newton stalled at sup-residual ") as exc:
        find_equilibrium(chain, modes)
    assert calls == [[[0.0]]]
    assert exc.value.best_positions == chain.positions
    assert exc.value.best_residual == forces_exact(chain, modes).sup


def test_find_equilibrium_stops_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(equilibria, "_NEWTON_MAX_ITER", 1)
    chain = ScattererChain((0.0, 0.3), 0.05)
    modes = symmetric_modes()
    with pytest.raises(NoConvergence) as exc:
        find_equilibrium(chain, modes, relative_only=True)
    assert str(exc.value) == (
        "no convergence below 1e-12 in 1 iterations (best sup-residual 5.382e-03)")
    f1, f2 = forces_exact(chain.with_positions(exc.value.best_positions), modes).total
    assert exc.value.best_positions[0] == 0.0
    assert exc.value.best_residual == abs(f2 - f1)


def test_linearization_identities_with_perturbation():
    scenario = build_lattice(2, 1.0, 1.0, 0.1, i_p=0.5, k_p=K_REF / 0.99,
                             zeta_p=0.1)
    model = linearize_pair_in_lattice(scenario)
    ids = model.identities
    tol = ids["tolerance"]
    assert abs(ids["a"]) < tol and abs(ids["u"]) < tol
    assert abs(ids["b_minus_v"]) < tol
    # cross coupling is antisymmetric: c = -w
    assert abs(ids["c_plus_w"]) < tol
    assert abs(ids["c_minus_w"]) > 10 * tol
    # the upstream splitter takes three times the downstream static push
    # (leading order in zeta_p; at 0.1 the correction is ~2 percent)
    assert model.constants["k1p"] / model.constants["k3p"] == pytest.approx(
        3.0, rel=3e-2
    )
    assert model.f_ext == pytest.approx(model.constants["k1p"])
    zeta_p = 0.1
    f1p_expect = 6.0 * zeta_p ** 2 * 0.5 / (1.0 + 4.0 * zeta_p ** 2)
    assert model.constants["k1p"] == pytest.approx(f1p_expect, rel=2e-2)


def test_linearization_couplings_equal_without_perturbation():
    scenario = build_lattice(2, 1.0, 1.0, 0.1)
    model = linearize_pair_in_lattice(scenario)
    assert model.kappa1 == pytest.approx(model.kappa2, rel=1e-6)
    assert model.f_ext == pytest.approx(0.0, abs=1e-10)
    assert model.k_spring > 0
    modes = normal_modes(model)
    assert modes.omega1 == pytest.approx(math.sqrt(model.k_spring / model.mass))
    assert modes.omega2 > modes.omega1
    assert modes.vector1 == pytest.approx((1.0, 1.0))
    assert modes.offset == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf])
def test_linearization_rejects_a_mass_that_is_not_positive_and_finite(mass):
    # normal_modes would divide by it, take its root or return NaN frequencies
    scenario = build_lattice(2, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="^mass must be (positive|finite), got "):
        linearize_pair_in_lattice(scenario, mass=mass)


def test_linearization_rejects_off_equilibrium_state():
    scenario = build_lattice(2, 1.0, 1.0, 0.1)
    shifted = scenario.with_positions(
        tuple(x + dx for x, dx in zip(scenario.positions, (0.0, 0.05)))
    )
    with pytest.raises(InconsistentLinearization):
        linearize_pair_in_lattice(shifted)


def _model(k_spring, kappa1, kappa2, f_ext=0.0, mass=1.0):
    return LinearizedModel(
        k_spring=k_spring, kappa1=kappa1, kappa2=kappa2, f_ext=f_ext,
        mass=mass, constants={}, identities={},
    )


def test_normal_modes_edge_cases():
    plain = normal_modes(_model(4.0, 0.0, 0.5, f_ext=2.0))
    assert plain.omega1 == pytest.approx(2.0)
    assert plain.vector2 == pytest.approx((0.0, 1.0))
    assert plain.offset == pytest.approx(0.5)

    with pytest.raises(UnstableMode) as exc_info:
        normal_modes(_model(-1.0, 0.1, 0.2))
    assert exc_info.value.imaginary_magnitude == pytest.approx(1.0)

    with pytest.raises(UnstableMode):
        normal_modes(_model(1.0, -3.0, 1.0))

    with pytest.raises(ValueError):
        normal_modes(_model(1.0, 0.1, 0.0))


def test_zero_force_grid_shape_and_symmetry():
    chain = ScattererChain((0.0, 0.3, 0.6), 0.05)
    modes = symmetric_modes()
    d_vals = np.linspace(0.2, 0.45, 6)
    grid = zero_force_grid(chain, modes, d_vals, d_vals)
    assert grid.f1.shape == (6, 6)
    # mirror drive, mirror geometry: on the d1 = d2 diagonal the middle
    # scatterer is force free and the outer pair balances
    for i in range(6):
        assert grid.f2[i, i] == pytest.approx(0.0, abs=1e-12)
        assert grid.f1[i, i] == pytest.approx(-grid.f3[i, i], abs=1e-12)
    with pytest.raises(ValueError):
        zero_force_grid(ScattererChain((0.0, 0.3), 0.05), modes, d_vals, d_vals)


def test_zero_coupling_grid_is_flat():
    chain = ScattererChain((0.0, 0.3, 0.6), 0.0)
    grid = zero_force_grid(chain, symmetric_modes(),
                           np.linspace(0.2, 0.4, 3), np.linspace(0.2, 0.4, 3))
    assert np.max(np.abs(grid.f1)) == 0.0
    assert np.max(np.abs(grid.f2)) == 0.0


# ---------------------------------------------------------------------------
# The one force Jacobian against hand-written loops over forces_exact. The
# Jacobian runs its displaced chains through the batched kernel, which
# agrees with forces_exact to round-off, so results compare within the
# noise of the central difference.

def _ref_force_jacobian(chain, modes, h=1e-6):
    x = list(chain.positions)
    n = len(x)
    jac = np.empty((n, n))
    for j in range(n):
        xp = list(x)
        xm = list(x)
        xp[j] += h
        xm[j] -= h
        fp = forces_exact(chain.with_positions(tuple(xp)), modes).total
        fm = forces_exact(chain.with_positions(tuple(xm)), modes).total
        jac[:, j] = [(a - b) / (2.0 * h) for a, b in zip(fp, fm)]
    return jac


def _ref_eigenvalues(jac, relative_only):
    if relative_only:
        n = len(jac)
        shift = np.ones((n, 1)) / math.sqrt(n)
        q, _ = np.linalg.qr(np.eye(n) - shift @ shift.T)
        order = np.argsort(np.abs((q.T @ shift)[:, 0]))
        q = q[:, order[: n - 1]]
        jac = q.T @ jac @ q
    eigs = np.linalg.eigvals(jac)
    return eigs[np.argsort(eigs.real)[::-1]]


def _ref_newton_positions(chain, modes, relative_only, tol=1e-12, fd_step=1e-6):
    """Newton positions and iteration count; the Jacobian is differenced in
    the solved coordinates (gaps when relative_only)."""
    n = chain.n
    x1 = chain.positions[0]

    def positions_from(u):
        if not relative_only:
            return tuple(u)
        out = [x1]
        for g in u:
            out.append(out[-1] + g)
        return tuple(out)

    def residual_vec(u):
        f = forces_exact(chain.with_positions(positions_from(u)), modes).total
        if relative_only:
            return np.array([f[j + 1] - f[j] for j in range(n - 1)])
        return np.array(f)

    if relative_only:
        u = np.array([chain.positions[j + 1] - chain.positions[j] for j in range(n - 1)])
    else:
        u = np.array(chain.positions)
    r = residual_vec(u)
    merit = float(np.max(np.abs(r)))
    iterations = 0
    while merit >= tol:
        iterations += 1
        m = len(u)
        jac = np.empty((m, m))
        for j in range(m):
            up = u.copy()
            um = u.copy()
            up[j] += fd_step
            um[j] -= fd_step
            jac[:, j] = (residual_vec(up) - residual_vec(um)) / (2.0 * fd_step)
        step = np.linalg.solve(jac, -r)
        lam = 1.0
        for _ in range(10):
            u_try = u + lam * step
            r_try = residual_vec(u_try)
            merit_try = float(np.max(np.abs(r_try)))
            if merit_try < merit * (1.0 - 1e-4 * lam) or merit_try < tol:
                u, r, merit = u_try, r_try, merit_try
                break
            lam *= 0.5
        else:
            raise AssertionError("reference Newton stalled")
    return positions_from(u), iterations


def fd_noise(jac):
    """The round-off a central difference at step 1e-6 may carry."""
    return 1e-8 * max(1.0, np.max(np.abs(jac)))


@pytest.mark.parametrize("n", [2, 5])
def test_force_jacobian_matches_hand_loop_closely(n):
    chain = ScattererChain(tuple(0.1 + 0.37 * j for j in range(n)), 0.05)
    modes = symmetric_modes(i_y=0.72, k_z=1.1 * K_REF)
    ref = _ref_force_jacobian(chain, modes)
    assert np.max(np.abs(force_jacobian(chain, modes) - ref)) <= fd_noise(ref)


@pytest.mark.parametrize(
    "relative_only, positions, modes",
    [(False, (0.01, 0.49), [Mode("sw", K_REF, drive_left=1.0, drive_right=1.1)])],
    ids=["absolute"],
)
def test_find_equilibrium_matches_hand_loops_closely(relative_only, positions, modes):
    chain = ScattererChain(positions, 0.05)
    report = find_equilibrium(chain, modes, relative_only=relative_only)
    ref_positions, ref_iterations = _ref_newton_positions(chain, modes, relative_only)
    assert np.max(np.abs(np.subtract(report.positions, ref_positions))) <= 1e-10
    assert report.iterations == ref_iterations
    ref_jac = _ref_force_jacobian(chain.with_positions(ref_positions), modes)
    assert np.max(np.abs(report.jacobian - ref_jac)) <= fd_noise(ref_jac)
    ref_eigs = _ref_eigenvalues(ref_jac, relative_only)
    assert np.max(np.abs(report.eigenvalues - ref_eigs)) <= fd_noise(ref_jac)
    assert report.classification == ForceField(chain, modes).stability(ref_positions)[2]


def test_find_equilibrium_matches_gap_loop_closely():
    # relative Newton takes its gap Jacobian from force_jacobian by the chain
    # rule; a loop that differences the gaps themselves, at step 1e-7, lands
    # on the same iterate within round-off
    chain = ScattererChain((0.0, 0.36, 0.74), 0.05)
    modes = symmetric_modes(i_z=1.2)
    report = find_equilibrium(chain, modes, relative_only=True)
    ref_positions, ref_iterations = _ref_newton_positions(chain, modes, True, fd_step=1e-7)
    assert np.max(np.abs(np.subtract(report.positions, ref_positions))) <= 1e-12
    assert report.iterations == ref_iterations
    assert report.classification == ForceField(chain, modes).stability(ref_positions)[2]


def _ref_linearization(scenario, h=1e-6):
    chain = scenario.chain()
    lat_modes = scenario.lattice_modes()
    pert_modes = scenario.perturbation_modes()
    x1, x2 = chain.positions

    def f_lat(dx1, dx2):
        return forces_exact(chain.with_positions((x1 + dx1, x2 + dx2)), lat_modes).total

    def f_pert(dx1, dx2):
        if not pert_modes:
            return (0.0, 0.0)
        return forces_exact(chain.with_positions((x1 + dx1, x2 + dx2)), pert_modes).total

    def slope(f, i, dx1, dx2):
        return (f(dx1, dx2)[i] - f(-dx1, -dx2)[i]) / (2.0 * h)

    return {
        "a": f_lat(0.0, 0.0)[0],
        "u": f_lat(0.0, 0.0)[1],
        "b": slope(f_lat, 0, h, 0.0) + slope(f_lat, 0, 0.0, h),
        "c": (f_lat(0.0, h)[0] - f_lat(0.0, -h)[0]) / (2.0 * h),
        "v": slope(f_lat, 1, h, 0.0) + slope(f_lat, 1, 0.0, h),
        "w": (f_lat(-h, 0.0)[1] - f_lat(h, 0.0)[1]) / (2.0 * h),
        "k1p": f_pert(0.0, 0.0)[0],
        "k3p": f_pert(0.0, 0.0)[1],
        "k2p": (f_pert(0.0, h)[0] - f_pert(0.0, -h)[0]) / (2.0 * h),
        "k4p": (f_pert(-h, 0.0)[1] - f_pert(h, 0.0)[1]) / (2.0 * h),
    }


@pytest.mark.parametrize("i_p", [0.0, 0.5])
def test_linearization_matches_hand_loop_closely(i_p):
    scenario = build_lattice(2, 1.0, 1.0, 0.1, i_p=i_p, k_p=K_REF / 0.99, zeta_p=0.1)
    model = linearize_pair_in_lattice(scenario)
    ref = _ref_linearization(scenario)
    assert model.constants.keys() == ref.keys()
    tol = fd_noise(np.array(list(ref.values())))
    for key, value in ref.items():
        assert abs(model.constants[key] - value) <= tol, key
    assert all(type(v) is float for v in model.constants.values())
    for value in (model.k_spring, model.kappa1, model.kappa2, model.f_ext):
        assert type(value) is float
    if i_p == 0.0:
        # no perturbation mode: the slopes are +0.0, not -0.0
        assert math.copysign(1.0, model.constants["k2p"]) == 1.0
        assert math.copysign(1.0, model.constants["k4p"]) == 1.0


def _ref_pair_design_forces(d, k_y, k_z, zeta, p, i_y, offsets=(0.0, 0.0)):
    chain = ScattererChain((0.0 + offsets[0], d + offsets[1]), zeta)
    modes = [
        Mode("y", k_y, drive_left=math.sqrt(2.0 * i_y), zeta_scale=1.0),
        Mode("z", k_z, drive_right=math.sqrt(2.0 * abs(p * i_y)), zeta_scale=k_z / k_y),
    ]
    f = forces_exact(chain, modes).total
    return f[0], f[1]


def _ref_pair_design_stability(d, k_y, k_z, zeta, p, i_y):
    h = 1e-7
    jac = np.empty((2, 2))
    for j in range(2):
        dp = [0.0, 0.0]
        dp[j] = h
        fp = _ref_pair_design_forces(d, k_y, k_z, zeta, p, i_y, dp)
        dp[j] = -h
        fm = _ref_pair_design_forces(d, k_y, k_z, zeta, p, i_y, dp)
        jac[:, j] = [(a - b) / (2.0 * h) for a, b in zip(fp, fm)]
    q = np.array([[-1.0], [1.0]]) / math.sqrt(2.0)
    lam = float((q.T @ jac @ q)[0, 0])
    return "stable" if lam < -1e-9 else "unstable" if lam > 1e-9 else "marginal"


def _ref_refine_design(d, k_y, k_z0, zeta, p0, i_y, band):
    # Newton in (p, k_z) with both slopes differenced, p at a step of its own
    p, k_z = p0, k_z0
    h_p = 1e-7 * max(1.0, abs(p0))
    h_k = 1e-7 * k_y
    for _ in range(25):
        f1, f2 = _ref_pair_design_forces(d, k_y, k_z, zeta, p, i_y)
        if max(abs(f1), abs(f2)) < 1e-13 * i_y:
            return p, k_z, True
        f1p, f2p = _ref_pair_design_forces(d, k_y, k_z, zeta, p + h_p, i_y)
        f1m, f2m = _ref_pair_design_forces(d, k_y, k_z, zeta, p - h_p, i_y)
        f1k, f2k = _ref_pair_design_forces(d, k_y, k_z + h_k, zeta, p, i_y)
        f1l, f2l = _ref_pair_design_forces(d, k_y, k_z - h_k, zeta, p, i_y)
        jac = np.array(
            [
                [(f1p - f1m) / (2 * h_p), (f1k - f1l) / (2 * h_k)],
                [(f2p - f2m) / (2 * h_p), (f2k - f2l) / (2 * h_k)],
            ]
        )
        step = np.linalg.solve(jac, [-f1, -f2])
        p_new = p + step[0]
        k_new = k_z + step[1]
        if p_new <= 0 or not (band[0] <= k_new <= band[1]):
            return p0, k_z0, False
        p, k_z = p_new, k_new
    f1, f2 = _ref_pair_design_forces(d, k_y, k_z, zeta, p, i_y)
    if max(abs(f1), abs(f2)) < 1e-10 * i_y:
        return p, k_z, True
    return p0, k_z0, False


def _two_beam_refine_design(d, k_y, k_z0, zeta, p0, i_y, band):
    # the reference: _refine_design with both beams rebuilt and swept on
    # every iterate
    p, k_z = p0, k_z0
    last = math.inf

    def wavenumber(const, x, z, a, b):
        if const.label != "z":
            return 0j, 0j
        s = 1j * z / const.k * (a + b)
        return 2.0 * z * x * b + s, 2.0 * z * x * a - s

    for _ in range(25):
        field = ForceField(*equilibria._pair_design(d, k_y, k_z, zeta, p, i_y))
        ((y1, y2), (z1, z2)), slopes = field.tangent(wavenumber)
        f1, f2 = y1 + z1, y2 + z2
        k1, k2 = map(sum, slopes.tolist())
        det = z1 * k2 - k1 * z2
        if det == 0.0:
            return p0, k_z0, False
        d_p, d_k = p * (k1 * f2 - k2 * f1) / det, (z2 * f1 - z1 * f2) / det
        size = max(abs(d_p / p), abs(d_k / k_z))
        if max(abs(f1), abs(f2)) < 1e-13 * i_y and (size <= 4 * math.ulp(1.0) or size > last / 2):
            return p, k_z, True
        last = size
        p_new = p + d_p
        k_new = k_z + d_k
        if p_new <= 0 or not (band[0] <= k_new <= band[1]):
            return p0, k_z0, False
        p, k_z = p_new, k_new
    return p0, k_z0, False


def test_design_refinement_equals_the_two_beam_loop_bit_for_bit():
    # y's slope in k_z is 0j, which adds only +-0.0 to the summed slopes, and
    # tangent solves each mode on its own: solving y once gives the same bits
    band, outcomes = (1e-9, 4.0 * K_REF), set()
    for d in (0.06, 0.1, 0.13, 0.15):
        for zeta in (0.01, 0.02):
            for seed in design_wavenumber(d, K_REF, zeta=zeta, refine=False):
                if not seed.physical:
                    continue
                args = (d, K_REF, seed.k_z, zeta, seed.p, 1.0, band)
                got = equilibria._refine_design(*args)
                assert got == _two_beam_refine_design(*args)
                outcomes.add(got[2])
    assert outcomes == {True, False}  # 0.15 at zeta = 0.02 gives up


@pytest.mark.parametrize("d", [0.06, 0.1, 0.13])
def test_design_candidates_match_hand_loops_closely(d):
    # the refinement takes dF/dp exactly and differences k_z alone; a loop
    # that differences both reaches the same root within 1e-9
    zeta, band = 0.01, (1e-9, 4.0 * K_REF)
    seeds = design_wavenumber(d, K_REF, zeta=zeta, refine=False)
    cands = design_wavenumber(d, K_REF, zeta=zeta)
    assert len(cands) == len(seeds) and any(c.physical for c in cands)
    for seed, cand in zip(seeds, cands):
        if not seed.physical:
            assert repr(cand) == repr(seed)
            continue
        p, k_z, refined = _ref_refine_design(d, K_REF, seed.k_z, zeta, seed.p, 1.0, band)
        assert cand.physical and cand.refined == refined
        assert cand.p == pytest.approx(p, rel=1e-9)
        assert cand.k_z == pytest.approx(k_z, rel=1e-9)
        assert cand.stability == _ref_pair_design_stability(d, K_REF, k_z, zeta, p, 1.0)


# ---------------------------------------------------------------------------
# Accuracy of the one force Jacobian, against mpmath.

@pytest.mark.parametrize(
    "n, zeta, spacing", [(2, 0.05, 0.36), (10, 0.05, 0.47), (10, 0.2, 0.45), (30, 0.05, 0.4968)]
)
def test_force_jacobian_matches_mpmath(n, zeta, spacing):
    mpmath = pytest.importorskip("mpmath")
    chain = ScattererChain(tuple(j * spacing for j in range(n)), zeta)
    modes = [
        Mode("y", K_REF, drive_left=math.sqrt(2.0)),
        Mode("z", 1.3 * K_REF, drive_right=math.sqrt(2.0)),
    ]
    zetas = [mode_zetas(chain, mode) for mode in modes]
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-20")
        x = [mpmath.mpf(v) for v in chain.positions]
        ref = np.empty((n, n))
        for j in range(n):
            xp, xm = list(x), list(x)
            xp[j] += h
            xm[j] -= h
            fp = mp_forces(mpmath, xp, modes, zetas)
            fm = mp_forces(mpmath, xm, modes, zetas)
            ref[:, j] = [float((a - b) / (2 * h)) for a, b in zip(fp, fm)]
    err = np.max(np.abs(force_jacobian(chain, modes) - ref))
    assert err <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_every_position_derivative_reads_force_jacobian(monkeypatch):
    # force_jacobian is ForceField.jacobian, which Newton and the pair
    # analyses read on their prepared fields
    import lightlattice.equilibria as equilibria

    calls = []
    jacobian = ForceField.jacobian

    def spy(self, positions=None):
        calls.append(self.chain.n)
        return jacobian(self, positions)

    lattice = build_lattice(2, 1.0, 1.0, 0.1, i_p=0.5, k_p=K_REF / 0.99, zeta_p=0.1)
    monkeypatch.setattr(ForceField, "jacobian", spy)
    modes = symmetric_modes()
    runs = {
        "newton relative": lambda: equilibria.find_equilibrium(
            ScattererChain((0.0, 0.35), 0.01), modes, relative_only=True),
        "newton absolute": lambda: equilibria.find_equilibrium(
            ScattererChain((0.01, 0.49), 0.05),
            [Mode("sw", K_REF, drive_left=1.0, drive_right=1.1)]),
        "linearization": lambda: equilibria.linearize_pair_in_lattice(lattice),
        "design": lambda: equilibria.design_wavenumber(0.125, K_REF, zeta=0.01),
    }
    for name, run in runs.items():
        calls.clear()
        report = run()
        assert calls, f"{name} took a derivative without force_jacobian"
        if name.startswith("newton"):
            # one Jacobian per Newton iteration plus the final classification
            assert len(calls) == report.iterations + 1, name
        if name == "linearization":
            assert len(calls) == 2  # lattice and perturbation modes


def test_each_run_prepares_its_modes_once(monkeypatch):
    # one ForceField per run serves Newton's iterates and Jacobians, every
    # block of a batch and its row-by-row fallback, and every RK4 stage
    from lightlattice import wavecore

    builds = []
    build = wavecore._mode_constants

    def spy(chain, modes):
        builds.append(tuple(mode.label for mode in modes))
        return build(chain, modes)

    monkeypatch.setattr(wavecore, "_mode_constants", spy)
    drifting = ScattererChain(tuple(0.41 * j for j in range(10)), 0.05)
    rows = np.array([(0.0, 0.1 + 0.001 * b, 0.7) for b in range(600)])
    crossed = rows.copy()
    crossed[-1] = (0.0, 0.8, 0.7)
    perturbed = build_lattice(2, 1.0, 1.0, 0.1, i_p=0.5, k_p=K_REF / 0.99, zeta_p=0.1)
    plain = build_lattice(2, 1.0, 1.0, 0.1)
    runs = [
        (lambda: find_equilibrium(drifting, symmetric_modes(i_z=1.2), relative_only=True), 1),
        (lambda: find_equilibrium(ScattererChain((0.01, 0.49), 0.05),
                                  [Mode("sw", K_REF, drive_left=1.0, drive_right=1.1)]), 1),
        (lambda: forces_batch(ScattererChain((0.0, 0.3, 0.7), 0.05), symmetric_modes(), rows), 1),
        (lambda: evolve(ScattererChain((0.0, 0.36), 0.01), symmetric_modes(i_z=1.2),
                        DynamicsParams(regime="overdamped", dt=1.0, t_end=20.0)), 1),
        (lambda: evolve(ScattererChain((0.0, 0.36), 0.01), symmetric_modes(),
                        DynamicsParams(regime="newtonian", dt=0.5, t_end=10.0)), 1),
        (lambda: linearize_pair_in_lattice(perturbed), 2),
        (lambda: linearize_pair_in_lattice(plain), 1),
    ]
    for i, (run, count) in enumerate(runs):
        builds.clear()
        run()
        assert len(builds) == count, i
    builds.clear()
    with pytest.raises(ValueError, match="not strictly increasing"):
        forces_batch(ScattererChain((0.0, 0.3, 0.7), 0.05), symmetric_modes(), crossed)
    assert len(builds) == 1


def test_force_jacobian_and_design_refinement_evaluate_once(monkeypatch):
    # the Jacobian is one pass over each mode's sweeps, with no displaced
    # chains; a refinement solves the fixed y beam once, and each iteration
    # is one pass of the z beam alone at its own (p, k_z)
    import lightlattice.forcefield as forcefield
    import lightlattice.wavecore as wavecore

    def refuse(*args):
        raise AssertionError("a derivative reached a force evaluation")

    seed = next(c for c in design_wavenumber(0.15, K_REF, zeta=0.01, refine=False) if c.physical)
    pairs = ForceField.pairs
    for owner, name in [(equilibria, "forces_batch"), (forcefield, "forces_batch"),
                        (forcefield, "forces_exact"), (ForceField, "forces")]:
        monkeypatch.setattr(owner, name, refuse)
    undriven = [Mode("dark", K_REF)]
    for n in (1, 2, 5):
        chain = ScattererChain(tuple(0.1 + 0.37 * j for j in range(n)), 0.05)
        assert force_jacobian(chain, symmetric_modes()).shape == (n, n)
        for modes in ([], undriven):
            assert np.array_equal(force_jacobian(chain, modes), np.zeros((n, n)))
    points, y_points, builds = [], [], []
    mode_constants = wavecore._mode_constants

    def spy(self, positions=None):
        for c in self.constants:
            if c.label == "z":
                points.append((c.k, c.right))
            else:
                y_points.append((c.label, c.k, c.left))
        return pairs(self, positions)

    def build(chain, modes):
        builds.append([mode.label for mode in modes])
        return mode_constants(chain, modes)

    monkeypatch.setattr(ForceField, "pairs", spy)
    monkeypatch.setattr(wavecore, "_mode_constants", build)
    p, k_z, refined = equilibria._refine_design(0.15, K_REF, seed.k_z, 0.01, seed.p, 1.0,
                                                (1e-9, 4.0 * K_REF))
    assert refined and len(points) >= 3
    assert len(set(points)) == len(points)  # one evaluation per iterate
    assert points[0] == (seed.k_z, math.sqrt(2.0 * seed.p)) and points[-1][0] == k_z
    assert y_points == [("y", K_REF, math.sqrt(2.0))]  # swept once per refinement
    assert builds == [["y"]] + [["z"]] * len(points)


@pytest.mark.parametrize("chain, modes, message", [
    (ScattererChain((0.0,), -1j, allow_gain=True),
     [Mode("y", K_REF, drive_left=1.0, zeta_scale=1.0)], "below 1e-14"),
    (ScattererChain((0.0, 0.5), -0.5j, allow_gain=True),
     [Mode("z", K_REF, drive_right=1.0, zeta_scale=1.0)], "below 1e-14"),
    (ScattererChain([0.45 * j for j in range(700)], 1.0), symmetric_modes(),
     "not below 1e+154"),
    (ScattererChain((0.0, 0.45), 1.0), [Mode("y", K_REF, drive_left=1e308)],
     "non-finite amplitude"),
], ids=["singular-m22", "gain-pole", "overflowing-m22", "non-finite"])
def test_force_jacobian_raises_what_forces_exact_raises(chain, modes, message):
    with pytest.raises(SingularBoundary) as reference:
        forces_exact(chain, modes)
    with pytest.raises(SingularBoundary) as jacobian:
        force_jacobian(chain, modes)
    assert message in str(reference.value)
    assert str(jacobian.value) == str(reference.value)


def _chain(n, zeta, spacing):
    return ScattererChain(tuple(0.1 + j * spacing for j in range(n)), zeta)


@pytest.mark.parametrize("chain, modes", [
    (_chain(2, 0.05, 0.36), symmetric_modes(k_z=1.3 * K_REF)),
    (_chain(10, 0.05, 0.47), symmetric_modes(k_z=1.3 * K_REF)),
    (_chain(30, 0.05, 0.4968), symmetric_modes(k_z=1.3 * K_REF)),
    (_chain(10, 0.2, 0.45), [Mode("sw", K_REF, drive_left=1.0, drive_right=1.1 + 0.3j)]),
    (_chain(7, 0.1, 0.41), [Mode("p", 0.9 * K_REF, drive_left=0.5, zeta_override=0.1)]),
    (_chain(10, 0.05 + 0.03j, 0.45),
     [Mode("sw", K_REF, drive_left=1.0, drive_right=0.8), Mode("z", 1.2 * K_REF, drive_right=1.0)]),
    (ScattererChain([0.45 * j for j in range(120)], 0.3 + 0.05j), [Mode("y", K_REF, drive_left=1.0)]),
], ids=["n2", "n10", "n30", "two-sided", "left-only", "lossy", "left-driven-120"])
def test_force_jacobian_matches_mpmath_to_round_off(chain, modes):
    mpmath = pytest.importorskip("mpmath")
    # every column up to N = 30; on the long chain (|m22| = 2.3e15) every
    # seventh and the last, both sides of the diagonal, keep it to seconds
    columns = list(range(chain.n)) if chain.n <= 30 else [*range(0, chain.n, 7), chain.n - 1]
    ref = np.array(mp_jacobian(mpmath, chain, modes, columns))
    err = np.max(np.abs(force_jacobian(chain, modes)[:, columns] - ref))
    assert err <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@st.composite
def one_sided_modes(draw):
    # a mode driven from both sides keeps its left drive alone
    return [dataclasses.replace(mode, drive_right=0j) if mode.drive_left else mode
            for mode in draw(varied_modes())]


@given(varied_chains(), one_sided_modes())
def test_one_sided_force_jacobian_rows_sum_to_zero(chain, modes):
    # a one-sided drive moves with the chain: translation leaves the forces,
    # and the field says so; undriven modes and drive phases change neither
    field = ForceField(chain, modes)
    assert field.translation_invariant
    jac = field.jacobian()
    assert np.max(np.abs(jac.sum(axis=1))) <= 1e-13 * max(1.0, np.max(np.abs(jac)))


@given(varied_chains(), varied_modes(), drives.filter(bool), drives.filter(bool))
def test_a_mode_driven_from_both_sides_breaks_translation_invariance(chain, modes, left, right):
    # a standing wave pins the chain, whatever else drives it or leaves it dark
    modes = [*modes, Mode("sw", K_REF, drive_left=left, drive_right=right)]
    assert not ForceField(chain, modes).translation_invariant


@pytest.mark.parametrize("d", [0.15, 0.35])
def test_design_roots_match_mpmath(d):
    # the default design grid's cells where a differenced slope left k_z
    # good to about 1e-9; Newton at 50 digits from each refined candidate
    mpmath = pytest.importorskip("mpmath")
    zeta = 0.01
    cands = [c for c in design_wavenumber(d, K_REF, zeta=zeta) if c.physical]
    assert cands and all(c.refined for c in cands)
    with mpmath.workdps(50):
        for cand in cands:
            p, k_z = mpmath.mpf(cand.p), mpmath.mpf(cand.k_z)
            for _ in range(8):
                f = mp_pair_forces(mpmath, d, K_REF, k_z, zeta, p)
                f_z = [a - b for a, b in zip(f, mp_pair_forces(mpmath, d, K_REF, k_z, zeta, 0))]
                slope = mp_k_slope(mpmath, d, K_REF, k_z, zeta, p)
                step = mpmath.lu_solve(mpmath.matrix([[f_z[0] / p, slope[0]], [f_z[1] / p, slope[1]]]),
                                       mpmath.matrix([-f[0], -f[1]]))
                p, k_z = p + step[0], k_z + step[1]
            assert max(abs(step[0] / p), abs(step[1] / k_z)) < 1e-30
            assert abs(cand.p / p - 1) <= 1e-12 and abs(cand.k_z / k_z - 1) <= 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_helmert_projection_matches_the_qr_basis(n):
    # an invariant field: beams from opposite sides at different wavenumbers
    chain = ScattererChain(tuple(0.1 + 0.37 * j for j in range(n)), 0.05)
    field = ForceField(chain, symmetric_modes(i_z=1.2, k_z=1.1 * K_REF))
    assert field.translation_invariant
    jac, eigs, _ = field.stability()
    ref = _ref_eigenvalues(jac, True)
    assert eigs.shape == ref.shape == (n - 1,)
    assert (np.diff(eigs.real) <= 0).all()
    # a conjugate pair shares its real part, so either may come first
    eigs, ref = np.sort_complex(eigs), np.sort_complex(ref)
    assert np.max(np.abs(eigs - ref), initial=0.0) <= 1e-13 * max(1.0, np.max(np.abs(ref), initial=0.0))


def test_relative_newton_refuses_a_field_that_pins_the_chain():
    # gaps whose neighbour forces balance while the standing wave pushes the
    # whole pair would be no equilibrium
    modes = [Mode("y", K_REF, drive_left=1.0),
             Mode("sw", K_REF, drive_left=math.sqrt(2.0), drive_right=math.sqrt(2.0))]
    with pytest.raises(ValueError, match="^relative_only needs a translation-invariant field; "
                                         "mode 'sw' is driven from both sides$"):
        find_equilibrium(ScattererChain((-0.242049, 0.0), 0.05), modes, relative_only=True)
