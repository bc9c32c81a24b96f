import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lightlattice.equilibria import pair_stationary_distances
from lightlattice.errors import LightLatticeError, SingularBoundary
from lightlattice.forcefield import (
    ForceField,
    PairForceParams,
    forces_batch,
    forces_exact,
    pair_forces_approx,
    pair_zero_force_distances,
)
from lightlattice import wavecore
from lightlattice.wavecore import K_REF, Mode, ScattererChain, solve_fields
from mp_reference import reference_forces
from test_wavecore import THICK_MODES, batch_quads, varied_chains, varied_modes, well_conditioned

# exact zero crossings of the symmetric pair forces at zeta = 0.01,
# found once by bisection against the exact engine and frozen here
EXACT_CROSSING_LOW = 0.123416461
EXACT_CROSSING_HIGH = 0.373400547


def symmetric_modes(i_y=1.0, i_z=1.0, k_y=K_REF, k_z=K_REF):
    return [
        Mode("y", k_y, drive_left=math.sqrt(2.0 * i_y), zeta_scale=1.0),
        Mode("z", k_z, drive_right=math.sqrt(2.0 * i_z), zeta_scale=k_z / k_y),
    ]


@pytest.mark.parametrize("field", ["p", "k_y", "k_z", "zeta", "i_y"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pair_force_params_reject_non_finite_values(field, value):
    values = dict(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.01, i_y=1.0)
    values[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        PairForceParams(**values)


def test_single_splitter_radiation_pressure():
    # one-sided unit-intensity drive: F = 2 zeta^2 I/(1 + zeta^2)
    for z in (0.05, 0.1, 0.3):
        chain = ScattererChain((0.0,), z)
        f = forces_exact(chain, [Mode("y", K_REF, drive_left=math.sqrt(2.0))])
        assert f.total[0] == pytest.approx(2 * z * z / (1 + z * z), rel=1e-12)


def test_zero_coupling_means_zero_force():
    chain = ScattererChain((0.0, 0.3, 0.7), 0.0)
    f = forces_exact(chain, symmetric_modes())
    assert all(v == pytest.approx(0.0, abs=1e-15) for v in f.total)


def test_per_mode_decomposition_sums_to_total():
    chain = ScattererChain((0.0, 0.29), 0.07)
    prof = forces_exact(chain, symmetric_modes(i_y=1.3, i_z=0.6))
    for j in range(2):
        parts = prof.per_mode["y"][j] + prof.per_mode["z"][j]
        assert prof.total[j] == pytest.approx(parts, rel=1e-12)


@given(st.floats(0.03, 0.97), st.floats(0.002, 0.05), st.floats(0.1, 3.0))
def test_telescoping_total_force(d, zeta, p):
    # the chain total equals the net momentum flux through the boundaries
    chain = ScattererChain((0.0, d), zeta)
    modes = symmetric_modes(i_z=p)
    sol = solve_fields(chain, modes)
    prof = forces_exact(chain, modes)
    boundary = 0.0
    for mf in sol.fields:
        a1, b1, _, _ = mf.quads[0]
        _, _, cn, dn = mf.quads[-1]
        boundary += 0.5 * (abs(a1) ** 2 + abs(b1) ** 2 - abs(cn) ** 2 - abs(dn) ** 2)
    assert sum(prof.total) == pytest.approx(boundary, abs=1e-12)


def test_approx_zeros_sit_exactly_on_the_lattice_points():
    # the small-zeta closed forms vanish exactly at lambda/8 and 3 lambda/8
    p = PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.01)
    for d in (0.125, 0.375):
        f1, f2 = pair_forces_approx(d, p)
        assert abs(f1) < 1e-12
        assert abs(f2) < 1e-12


def test_exact_crossings_frozen_values():
    # the exact engine's crossings are shifted by about -zeta/k from the
    # closed-form points; frozen positions located by bisection
    chain = ScattererChain((0.0, 0.3), 0.01)
    modes = symmetric_modes()

    def f1(d):
        return forces_exact(chain.with_positions((0.0, d)), modes).total[0]

    for lo, hi, frozen in (
        (0.10, 0.15, EXACT_CROSSING_LOW),
        (0.35, 0.40, EXACT_CROSSING_HIGH),
    ):
        a, b = lo, hi
        fa = f1(a)
        for _ in range(60):
            m = 0.5 * (a + b)
            fm = f1(m)
            if (fa < 0) == (fm < 0):
                a, fa = m, fm
            else:
                b = m
        root = 0.5 * (a + b)
        assert root == pytest.approx(frozen, abs=5e-9)
        # both splitters cross together in the symmetric scenario
        f2 = forces_exact(chain.with_positions((0.0, root)), modes).total[1]
        assert abs(f2) < 1e-10


@given(st.integers(0, 3), st.floats(0.001, 0.15), st.floats(0.05, 2.5))
def test_difference_form_matches_f1_minus_f2(n, zeta, p):
    # at equal wavenumbers F1 - F2 = 4 zeta^2 cos(2kd) (I_y + I_z) / (1 + 4 zeta^2 cos^2 kd)
    d = pair_stationary_distances(K_REF, n_max=3)[n][0]
    f1, f2 = pair_forces_approx(d, PairForceParams(p=p, k_y=K_REF, k_z=K_REF, zeta=zeta))
    assert f1 - f2 == pytest.approx(0.0, abs=1e-14 * zeta**2 * (1.0 + p))


def test_difference_scales_with_total_intensity():
    base = PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.02, i_y=1.0)
    double = PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.02, i_y=2.0)
    d = 0.21
    f1, f2 = pair_forces_approx(d, base)
    g1, g2 = pair_forces_approx(d, double)
    assert f1 - f2 != 0.0
    assert g1 - g2 == pytest.approx(2.0 * (f1 - f2), rel=1e-12)


@given(st.floats(0.03, 0.47))
def test_symmetric_pair_mirror_antisymmetry(d):
    # equal counter-propagating drives: F2(d) = -F1(d) exactly
    chain = ScattererChain((0.0, d), 0.03)
    f = forces_exact(chain, symmetric_modes()).total
    assert f[1] == pytest.approx(-f[0], rel=1e-9, abs=1e-14)


def test_approx_error_scales_cubically():
    # halving zeta cuts the worst-case truncation error by about 8x
    grid = [0.05 + 0.9 * i / 120 for i in range(121)]

    def sup_err(zeta):
        params = PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=zeta)
        chain = ScattererChain((0.0, 0.3), zeta)
        modes = symmetric_modes()
        worst = 0.0
        for d in grid:
            fe = forces_exact(chain.with_positions((0.0, d)), modes).total
            fa = pair_forces_approx(d, params)
            worst = max(worst, abs(fe[0] - fa[0]), abs(fe[1] - fa[1]))
        return worst

    ratio = sup_err(0.02) / sup_err(0.01)
    assert 5.0 < ratio < 12.0


def test_zero_distance_closed_forms_symmetric_case():
    # equal intensities and wavenumbers: zeros at (2n+1) lambda/8
    p = PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.01)
    low = pair_zero_force_distances(p, branch=1, n=0)
    high = pair_zero_force_distances(p, branch=-1, n=0)
    assert low.d1 == pytest.approx(0.125, rel=1e-12)
    assert low.d2 == pytest.approx(0.125, rel=1e-12)
    assert high.d1 == pytest.approx(0.375, rel=1e-12)
    assert high.d2 == pytest.approx(0.375, rel=1e-12)
    assert not high.notes
    shifted = pair_zero_force_distances(p, branch=-1, n=2)
    assert shifted.d1 == pytest.approx(0.375 + 1.0, rel=1e-12)


def test_zero_distance_reports_missing_roots():
    # one-beam limit: the right splitter has no zero, reported not raised
    p = PairForceParams(p=0.0, k_y=K_REF, k_z=K_REF, zeta=0.05)
    res = pair_zero_force_distances(p, branch=1, n=0)
    assert res.d1 is not None
    assert res.d2 is None
    assert "d2" in res.notes and "denominator" in res.notes["d2"]

    # large wavenumber ratio pushes the arccos argument out of range
    p2 = PairForceParams(p=1.0, k_y=K_REF, k_z=3.0 * K_REF, zeta=0.01)
    res2 = pair_zero_force_distances(p2, branch=1, n=0)
    assert res2.d1 is None
    assert "arccos" in res2.notes["d1"]


def test_zero_distance_verified_against_exact_engine():
    # at small zeta the reported distances nearly zero the exact forces
    p = PairForceParams(p=0.8, k_y=K_REF, k_z=K_REF, zeta=0.005)
    res = pair_zero_force_distances(p, branch=-1, n=0)
    modes = symmetric_modes(i_y=1.0, i_z=0.8)
    chain = ScattererChain((0.0, res.d1), 0.005)
    f1 = forces_exact(chain, modes).total[0]
    assert abs(f1) < 5e-4 * 2 * 0.005 ** 2 / 0.005  # small vs force scale
    chain2 = ScattererChain((0.0, res.d2), 0.005)
    f2 = forces_exact(chain2, modes).total[1]
    assert abs(f2) < 5e-4


def test_large_zeta_warns():
    with pytest.warns(UserWarning):
        PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.3)


def test_params_validation():
    with pytest.raises(ValueError):
        PairForceParams(p=-0.1, k_y=K_REF, k_z=K_REF, zeta=0.01)
    with pytest.raises(ValueError):
        pair_zero_force_distances(
            PairForceParams(p=1.0, k_y=K_REF, k_z=K_REF, zeta=0.01), branch=0
        )


def test_overflowing_chain_raises_library_error():
    # lossless, inside the band gap: the forward sweep overflows at N = 1000
    chain = ScattererChain([0.45 * j for j in range(1000)], 1.0)
    with pytest.raises(LightLatticeError, match="mode 'y'"):
        forces_exact(chain, symmetric_modes())


@given(varied_chains(), varied_modes(), st.integers(1, 8), st.integers(0, 2**32 - 1),
       st.data())
def test_forces_batch_matches_forces_exact_closely(chain, modes, rows, seed, data):
    assume(well_conditioned(chain, modes))
    # varied_chains keeps gaps >= 1e-3, so this jitter keeps rows increasing
    jitter = np.random.default_rng(seed).uniform(-4e-4, 4e-4, (rows, chain.n))
    positions = np.asarray(chain.positions) + jitter
    batch = forces_batch(chain, modes, positions)
    expected = np.array([forces_exact(chain.with_positions(row), modes).total
                         for row in positions])
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(batch - expected)) <= 1e-12 * scale
    # a row's bits do not depend on the block it is solved in
    cut = data.draw(st.integers(0, rows))
    split = np.concatenate([forces_batch(chain, modes, positions[:cut]),
                            forces_batch(chain, modes, positions[cut:])])
    assert split.tobytes() == batch.tobytes()


def test_forces_batch_raises_what_forces_exact_raises():
    modes = symmetric_modes()
    chain = ScattererChain((0.0, 0.3, 0.6), 0.05)
    bad_row = (0.0, 0.3, 0.3)
    # lossless, inside the band gap: the scalar sweep overflows at N = 1000
    thick = ScattererChain([0.45 * j for j in range(1000)], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as scalar:
            chain.with_positions(bad_row)
        with pytest.raises(ValueError) as batch:
            forces_batch(chain, modes, [chain.positions, bad_row])
        assert str(batch.value) == str(scalar.value)
        with pytest.raises(SingularBoundary) as scalar:
            forces_exact(thick, modes)
        with pytest.raises(SingularBoundary) as batch:
            forces_batch(thick, modes, [thick.positions])
        assert str(batch.value) == str(scalar.value)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("n_rows", [0, 1, 3])
@pytest.mark.parametrize("mode_set", ["none", "undriven", "driven", "mixed", "relabelled"])
def test_batch_edge_shapes(n, n_rows, mode_set):
    # one scatterer has no gap, so its m21 and m22 stay [M, 1] columns
    chain = ScattererChain(tuple(0.2 + 0.3 * j for j in range(n)), 0.1 + 0.02j)
    undriven = [Mode("u", 1.2 * K_REF)]
    relabelled = [Mode("y", 0.8 * K_REF, drive_right=0.7)] + symmetric_modes()
    modes = {"none": [], "undriven": undriven, "driven": symmetric_modes(),
             "mixed": symmetric_modes() + undriven, "relabelled": relabelled}[mode_set]
    rows = np.asarray(chain.positions) + 0.01 * np.arange(n_rows)[:, None]
    if mode_set == "relabelled":
        # a label names one mode, whatever the number of rows
        for batch in (lambda: batch_quads(chain, modes, rows),
                      lambda: forces_batch(chain, modes, rows)):
            with pytest.raises(ValueError, match="mode label 'y' is repeated"):
                batch()
        return
    quads = batch_quads(chain, modes, rows)
    forces = forces_batch(chain, modes, rows)
    assert quads.shape == (len(modes), n_rows, n, 4)
    assert forces.shape == (n_rows, n)
    for b, row in enumerate(rows):
        moved = chain.with_positions(row)
        for m, mf in enumerate(solve_fields(moved, modes).fields):
            assert np.max(np.abs(quads[m, b] - np.array(mf.quads))) <= 1e-12
        assert np.max(np.abs(forces[b] - forces_exact(moved, modes).total)) <= 1e-12


@pytest.mark.parametrize("zeta, rows, singular", [
    (-1j, [[0.0], [0.5]], [True, True]),  # m22 = 1 - i zeta = 0 at any position
    (-0.5j, [[0.0, 0.3], [0.0, 0.5]], [False, True]),  # m22 = 0 at gap 1/2 only
], ids=["single", "pair"])
def test_forces_batch_ends_a_gain_pole_in_singular_boundary(zeta, rows, singular):
    chain = ScattererChain(rows[0], zeta, allow_gain=True)
    modes = [Mode("y", K_REF, zeta_scale=1.0, drive_left=1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quads = batch_quads(chain, modes, rows)
        assert [bool(np.isnan(q).all()) for q in quads[0]] == singular
        assert np.isfinite(quads[0][np.logical_not(singular)]).all()
        with pytest.raises(SingularBoundary) as scalar:
            forces_exact(chain.with_positions(rows[singular.index(True)]), modes)
        with pytest.raises(SingularBoundary) as batch:
            forces_batch(chain, modes, rows)
    assert str(batch.value) == str(scalar.value)


def test_an_overflowing_m22_ends_in_singular_boundary():
    # inside the band gap m22 grows about 1.3x per scatterer; at N = 2656 its
    # parts are still finite but its modulus overflows
    chain = ScattererChain([0.48 * j for j in range(2656)], 0.35)
    modes = [Mode("y", K_REF, drive_left=1.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(batch_quads(chain, modes, [chain.positions])).all()
        with pytest.raises(SingularBoundary, match="overflows") as scalar:
            forces_exact(chain, modes)
        with pytest.raises(SingularBoundary) as batch:
            forces_batch(chain, modes, [chain.positions])
    assert str(batch.value) == str(scalar.value)


# |m22| is 2.3e15, 1.5e61, 2.7e14 and 3.4e122: a forward sweep from
# B_1 = (D_N - m21 A_1)/m22 was off by 3.5, 6.9e92, 2.4e-3 and 8.8e215
@pytest.mark.parametrize("zeta, n, modes", [
    (0.3 + 0.05j, 120, [Mode("y", K_REF, drive_left=1.0)]),
    (1.0, 200, THICK_MODES),
    (0.05 + 0.1j, 300, THICK_MODES),
    (1.0, 400, THICK_MODES),
], ids=["left-driven-120", "band-gap-200", "absorbing-300", "band-gap-400"])
def test_thick_chain_forces_match_mpmath(zeta, n, modes):
    mpmath = pytest.importorskip("mpmath")
    chain = ScattererChain([0.45 * j for j in range(n)], zeta)
    reference = np.array(reference_forces(mpmath, chain, modes))
    bound = 1e-12 * max(1.0, np.max(np.abs(reference)))
    assert np.max(np.abs(np.array(forces_exact(chain, modes).total) - reference)) <= bound
    assert np.max(np.abs(forces_batch(chain, modes, [chain.positions])[0] - reference)) <= bound


@pytest.mark.parametrize("zeta", [0.01, 0.001, 0.01 + 0.002j], ids=["0.01", "0.001", "lossy"])
@pytest.mark.parametrize("n", [1, 2, 10, 200])
@pytest.mark.parametrize("modes", [
    [Mode("y", K_REF, drive_left=math.sqrt(2.0)),
     Mode("z", 1.3 * K_REF, drive_right=math.sqrt(2.0))],
    [Mode("sw", K_REF, drive_left=1.0, drive_right=0.7),
     Mode("sx", 1.3 * K_REF, drive_left=0.02, drive_right=1.0)],
], ids=["one-sided", "two-sided"])
def test_forces_match_mpmath_at_small_zeta(zeta, n, modes):
    # A one-sided force is O(zeta^2) out of squares O(1): a reduction that
    # subtracts the four squares keeps only a few of its digits. The chain
    # is centred on x = 0, where the drive phases k x_1 and k x_N of a
    # two-sided mode are equal and opposite and so is their rounding; at
    # x_N ~ 100 that rounding alone moves its forces by up to 5e-14.
    mpmath = pytest.importorskip("mpmath")
    chain = ScattererChain([(j - (n - 1) / 2) * 0.4968 for j in range(n)], zeta)
    reference = np.array(reference_forces(mpmath, chain, modes))
    bound = 1e-14 * max(np.max(np.abs(reference_forces(mpmath, chain, [mode]))) for mode in modes)
    assert np.max(np.abs(np.array(forces_exact(chain, modes).total) - reference)) <= bound
    assert np.max(np.abs(forces_batch(chain, modes, [chain.positions])[0] - reference)) <= bound


@pytest.mark.xfail(strict=True, reason="drive phases e^{-ik x_N}, e^{ik x_1} are rounded: "
                   "a two-sided force is off by about ulp(k x_N), 5e-14 here")
def test_two_sided_forces_far_from_the_origin_match_mpmath():
    # as test_forces_match_mpmath_at_small_zeta, with the chain from x = 0.1 to 99
    mpmath = pytest.importorskip("mpmath")
    modes = [Mode("sw", K_REF, drive_left=1.0, drive_right=0.7),
             Mode("sx", 1.3 * K_REF, drive_left=0.02, drive_right=1.0)]
    chain = ScattererChain([0.1 + 0.4968 * j for j in range(200)], 0.001)
    reference = np.array(reference_forces(mpmath, chain, modes))
    bound = 1e-14 * max(np.max(np.abs(reference_forces(mpmath, chain, [mode]))) for mode in modes)
    assert np.max(np.abs(np.array(forces_exact(chain, modes).total) - reference)) <= bound


def _outcome(evaluate):
    """repr of each force or mode's quadruples evaluate() returns, or the error it raises."""
    try:
        return [repr(f) for f in evaluate()]
    except LightLatticeError as exc:
        return type(exc), str(exc)


def _swept_amplitudes(field, positions):
    solved = field.solve(positions)
    wavecore.check_amplitudes(solved)
    return [wavecore._amplitudes(*sweep) for _, *sweep in solved]


@given(varied_chains(), varied_modes(), st.floats(-1.0, 1.0))
def test_force_kernel_matches_forces_exact_bit_for_bit(chain, modes, shift):
    # the force kernel is a ForceField: prepared once, it serves every
    # placement of the same scatterers; its forces and solve_fields'
    # amplitudes read one sweep
    field = ForceField(chain, modes)
    for positions in (chain.positions, [x + shift for x in chain.positions]):
        moved = chain.with_positions(positions)
        got = _outcome(lambda: field.forces(moved.positions)[0])
        assert got == _outcome(lambda: forces_exact(moved, modes).total)
        quads = _outcome(lambda: [mf.quads for mf in solve_fields(moved, modes).fields])
        assert quads == _outcome(lambda: _swept_amplitudes(field, moved.positions))


def _gain_pole(label="y", **coupling):
    # m22 = 1 - i zeta vanishes for zeta = -i
    return Mode(label, K_REF, drive_left=1.0, **(coupling or {"zeta_scale": 1.0}))


@pytest.mark.parametrize("chain, modes, message", [
    (ScattererChain((0.0,), -1j, allow_gain=True), [_gain_pole()], "below 1e-14"),
    (ScattererChain([0.48 * j for j in range(2656)], 0.35),
     [Mode("y", K_REF, drive_left=1.0)], "|m22| overflows"),
    (ScattererChain((0.0, 0.5), -0.5j, allow_gain=True), [_gain_pole()], "below 1e-14"),
    (ScattererChain((0.0, 0.45), 1.0), [Mode("y", K_REF, drive_left=1e308)],
     "non-finite amplitude"),
    (ScattererChain([0.45 * j for j in range(1000)], 1.0), symmetric_modes(),
     "|amplitude|^2 overflows"),
    # finite amplitudes whose squares overflow: the reduction raises
    (ScattererChain((0.0, 0.45), 0.01), [Mode("y", K_REF, drive_left=1e300)],
     "|amplitude|^2 overflows in mode 'y'"),
    # every mode is solved before any is reduced, so the singular second mode
    # wins over the first mode's overflowing square
    (ScattererChain((0.0,), -1j, allow_gain=True),
     [Mode("a", K_REF, drive_left=1e300, zeta_override=0.1), _gain_pole("b")],
     "below 1e-14 for mode 'b'"),
    # a repeated label is rejected before any mode is solved, even a singular one
    (ScattererChain((0.0,), -1j, allow_gain=True),
     [_gain_pole(zeta_override=0.1), _gain_pole()], "mode label 'y' is repeated"),
], ids=["singular-m22", "overflowing-m22", "gain-pole", "non-finite", "overflowing-square",
        "overflowing-reduction", "solve-before-reduce", "repeated-label"])
def test_force_kernel_raises_what_forces_exact_raises(chain, modes, message):
    with pytest.raises((SingularBoundary, ValueError)) as reference:
        forces_exact(chain, modes)
    with pytest.raises((SingularBoundary, ValueError)) as field:
        ForceField(chain, modes).forces(chain.positions)
    assert message in str(reference.value)
    assert type(field.value) is type(reference.value)
    assert str(field.value) == str(reference.value)
    if str(reference.value).startswith("|amplitude|^2"):  # the reduction's error
        # solve_fields returns the amplitudes whose squares overflow
        quads = solve_fields(chain, modes)["y"].quads
        assert all(cmath.isfinite(v) for quad in quads for v in quad)
    else:
        with pytest.raises((SingularBoundary, ValueError)) as fields:
            solve_fields(chain, modes)
        assert type(fields.value) is type(reference.value)
        assert str(fields.value) == str(reference.value)


def test_force_kernel_rejects_a_repeated_label():
    # one label cannot name two modes: every entry point refuses before solving
    chain = ScattererChain((0.0, 0.3), 0.05)
    modes = [Mode("y", K_REF, drive_left=math.sqrt(2.0)),
             Mode("y", 1.3 * K_REF, drive_right=math.sqrt(2.0))]
    for call in (lambda: forces_exact(chain, modes), lambda: ForceField(chain, modes),
                 lambda: solve_fields(chain, modes),
                 lambda: forces_batch(chain, modes, [chain.positions])):
        with pytest.raises(ValueError, match="^mode label 'y' is repeated$"):
            call()
    # under distinct labels both modes push
    apart = [modes[0], Mode("z", 1.3 * K_REF, drive_right=math.sqrt(2.0))]
    both = forces_exact(chain, apart)
    for mode in apart:
        assert both.per_mode[mode.label] == forces_exact(chain, [mode]).total
    assert both.total == pytest.approx(np.add(both.per_mode["y"], both.per_mode["z"]))


@pytest.mark.parametrize("drives, invariant", [
    ([], True),
    ([(0j, 0j)], True),
    ([(cmath.exp(0.7j), 0j)], True),
    ([(0j, 0.5j), (1.0, 0j)], True),
    ([(1.0, cmath.exp(2.0j))], False),
    ([(0j, 0j), (1.0, 0j), (cmath.exp(1.0j), 0.3)], False),
], ids=["no-modes", "undriven", "left-with-phase", "opposite-beams", "standing-wave", "mixed"])
def test_a_field_is_translation_invariant_unless_a_mode_is_driven_from_both_sides(drives,
                                                                                invariant):
    modes = [Mode(f"m{i}", (1.0 + 0.1 * i) * K_REF, drive_left=left, drive_right=right)
             for i, (left, right) in enumerate(drives)]
    field = ForceField(ScattererChain((0.0, 0.3, 0.7), 0.05), modes)
    assert field.translation_invariant is invariant
    # a shift by 0.13 wavelengths moves a standing wave's forces, not the others'
    moved = np.subtract(field.forces((0.13, 0.43, 0.83))[0], field.forces()[0])
    assert bool(np.max(np.abs(moved)) <= 1e-13) is invariant
