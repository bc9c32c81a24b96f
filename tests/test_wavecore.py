import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from lightlattice import wavecore
from lightlattice.errors import NegativeDistance, SingularBoundary
from lightlattice.forcefield import force_kernel, forces_exact
from lightlattice.wavecore import (
    K_REF,
    IDENTITY,
    Mode,
    ScattererChain,
    beam_splitter_matrix,
    intensity_profile,
    mode_zetas,
    propagation_matrix,
    reflection_transmission,
    solve_fields,
    solve_fields_batch,
    total_transfer_matrix,
)

# shared strategies: modest couplings, absorption allowed, gain excluded
zetas = st.builds(
    complex,
    st.floats(-0.3, 0.3),
    st.floats(0.0, 0.1),
)
drives = st.builds(
    complex,
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
)


@st.composite
def chains(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    gaps = draw(
        st.lists(st.floats(1e-3, 1.2), min_size=n - 1, max_size=n - 1)
    )
    x0 = draw(st.floats(-2.0, 2.0))
    positions = [x0]
    for g in gaps:
        positions.append(positions[-1] + g)
    zeta = draw(zetas)
    return ScattererChain(tuple(positions), zeta)


def test_beam_splitter_entries():
    z = 0.17 + 0.05j
    m = beam_splitter_matrix(z)
    assert m.m11 == 1 + 1j * z
    assert m.m12 == 1j * z
    assert m.m21 == -1j * z
    assert m.m22 == 1 - 1j * z


@given(zetas)
def test_beam_splitter_unimodular(z):
    assert abs(beam_splitter_matrix(z).det() - 1.0) < 1e-12


def test_propagation_entries():
    k, d = 2.0 * math.pi, 0.37
    m = propagation_matrix(k, d)
    assert m.m11 == pytest.approx(cmath.exp(1j * k * d))
    assert m.m22 == pytest.approx(cmath.exp(-1j * k * d))
    assert m.m12 == 0 and m.m21 == 0


def test_propagation_rejects_negative_distance():
    with pytest.raises(NegativeDistance):
        propagation_matrix(K_REF, -0.1)


def test_matrix_algebra():
    a = beam_splitter_matrix(0.1 + 0.02j)
    b = propagation_matrix(K_REF, 0.3)
    left = (a @ b).apply(1.2 - 0.3j, 0.7j)
    c, d = b.apply(1.2 - 0.3j, 0.7j)
    right = a.apply(c, d)
    assert left[0] == pytest.approx(right[0])
    assert left[1] == pytest.approx(right[1])
    assert (a @ IDENTITY).m11 == a.m11


def test_mode_validation():
    with pytest.raises(ValueError):
        Mode("y", -1.0)
    with pytest.raises(ValueError):
        Mode("y", K_REF, zeta_scale=0.0)
    with pytest.raises(ValueError, match="finite"):
        Mode("y", math.inf)
    with pytest.raises(ValueError, match="finite"):
        Mode("y", K_REF, zeta_scale=math.inf)
    m = Mode("y", 1.3 * K_REF)
    assert m.effective_scale == pytest.approx(1.3)
    assert Mode("y", K_REF, zeta_scale=2.5).effective_scale == 2.5


def test_mode_zeta_override_replaces_wholesale():
    chain = ScattererChain((0.0, 0.4), (0.01, 0.02))
    mode = Mode("p", K_REF, zeta_override=0.1)
    assert mode_zetas(chain, mode) == (0.1 + 0j, 0.1 + 0j)
    scaled = mode_zetas(chain, Mode("y", 2.0 * K_REF))
    assert scaled == (0.02 + 0j, 0.04 + 0j)


def test_chain_validation():
    with pytest.raises(ValueError):
        ScattererChain((0.0, 0.0), 0.1)
    with pytest.raises(ValueError):
        ScattererChain((0.5, 0.1), 0.1)
    with pytest.raises(ValueError):
        ScattererChain((0.0, 0.1), (0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        ScattererChain((0.0,), -0.5j)
    gained = ScattererChain((0.0,), -0.5j, allow_gain=True)
    assert gained.zeta_base == (-0.5j,)
    assert ScattererChain((0.0, 0.25, 0.75), 0.1).gaps() == (0.25, 0.5)


def test_with_positions_matches_the_constructor():
    chain = ScattererChain((0.0, 0.5), (0.1, -0.2j), allow_gain=True)
    moved = chain.with_positions([1, 2.5])
    assert moved == ScattererChain((1.0, 2.5), (0.1, -0.2j), allow_gain=True)
    assert moved.positions == (1.0, 2.5)
    assert all(type(x) is float for x in moved.positions)
    for bad in ((0.5, 0.5), (0.5, 0.1), (0.0, float("nan")), (0.0, 0.1, 0.2)):
        with pytest.raises(ValueError):
            chain.with_positions(bad)


def test_single_splitter_coefficients():
    z = 0.2
    chain = ScattererChain((0.3,), z)
    r, t = reflection_transmission(chain, Mode("y", K_REF))
    assert r == pytest.approx(1j * z / (1 - 1j * z))
    assert t == pytest.approx(1 / (1 - 1j * z))
    assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0)


def test_singular_boundary_at_gain_pole():
    # zeta = -i makes m22 = 1 - i*zeta vanish identically
    chain = ScattererChain((0.0,), -1j, allow_gain=True)
    with pytest.raises(SingularBoundary):
        reflection_transmission(chain, Mode("y", K_REF, zeta_scale=1.0))
    with pytest.raises(SingularBoundary):
        solve_fields(chain, [Mode("y", K_REF, zeta_scale=1.0, drive_left=1.0)])


@given(chains())
def test_total_matrix_unimodular(chain):
    m = total_transfer_matrix(chain, Mode("y", K_REF))
    assert abs(m.det() - 1.0) < 1e-10


@given(chains())
def test_lossless_energy_conservation(chain):
    # restrict to real couplings for this property
    real_chain = ScattererChain(chain.positions, chain.zeta_base[0].real)
    r, t = reflection_transmission(real_chain, Mode("y", K_REF))
    assert abs(r) ** 2 + abs(t) ** 2 == pytest.approx(1.0, abs=1e-10)


@given(chains())
def test_transmission_direction_independent(chain):
    # det = 1 makes t identical for the mirrored chain
    mode = Mode("y", K_REF)
    _, t_fwd = reflection_transmission(chain, mode)
    mirrored = ScattererChain(
        tuple(-x for x in reversed(chain.positions)),
        tuple(reversed(chain.zeta_base)),
    )
    _, t_bwd = reflection_transmission(mirrored, mode)
    assert t_fwd == pytest.approx(t_bwd, rel=1e-9, abs=1e-12)


@given(chains(), drives, drives)
def test_field_continuity_and_propagation(chain, dl, dr):
    mode = Mode("y", K_REF, drive_left=dl, drive_right=dr)
    sol = solve_fields(chain, [mode])
    quads = sol["y"].quads
    scale = max(max(abs(v) for v in q) for q in quads) + 1.0
    for j, (a, b, c, d) in enumerate(quads):
        # the field is continuous across each thin scatterer
        assert abs((a + b) - (c + d)) < 1e-12 * scale
        if j + 1 < chain.n:
            gap = chain.positions[j + 1] - chain.positions[j]
            ph = cmath.exp(1j * mode.k * gap)
            a2, b2, _, _ = quads[j + 1]
            assert abs(c * ph - a2) < 1e-12 * scale
            assert abs(d / ph - b2) < 1e-12 * scale


@given(chains(max_n=6))
def test_boundary_solution_matches_rt(chain):
    mode = Mode("y", K_REF, drive_left=1.0)
    sol = solve_fields(chain, [mode])
    mf = sol["y"]
    r, t = reflection_transmission(chain, mode)
    a1, b1, _, _ = mf.quads[0]
    _, _, cn, dn = mf.quads[-1]
    # left drive only: B_1 = r A_1 and C_N = t A_1, D_N = 0
    assert b1 == pytest.approx(r * a1, rel=1e-9, abs=1e-12)
    assert cn == pytest.approx(t * a1, rel=1e-9, abs=1e-12)
    assert abs(dn) < 1e-12


def test_modes_solve_independently():
    chain = ScattererChain((0.0, 0.31, 0.9), 0.05)
    my = Mode("y", K_REF, drive_left=1.2)
    mz = Mode("z", 1.3 * K_REF, drive_right=0.7 - 0.2j)
    both = solve_fields(chain, [my, mz])
    alone_y = solve_fields(chain, [my])
    alone_z = solve_fields(chain, [mz])
    assert both["y"].quads == alone_y["y"].quads
    assert both["z"].quads == alone_z["z"].quads


def test_empty_chain_fields():
    chain = ScattererChain((), 0.1)
    my = Mode("y", K_REF, drive_left=1.0)
    mz = Mode("z", 1.3 * K_REF, drive_right=0.5)
    assert total_transfer_matrix(chain, my) is IDENTITY
    r, t = reflection_transmission(chain, my)
    assert r == 0 and t == 1
    profile = intensity_profile(solve_fields(chain, [my, mz]), [-1.0, 0.0, 2.3])
    for _, total, per in profile:
        # plane waves only: constant intensities everywhere
        assert total == pytest.approx(0.5 + 0.125)
        assert per["y"] == pytest.approx(0.5)
        assert per["z"] == pytest.approx(0.125)


def test_intensity_profile_standing_wave():
    # two counter-propagating unit drives of one mode form a standing wave
    # with I in [0, 2] and period lambda/2 (|amp|^2 = 2I convention)
    chain = ScattererChain((), 0.0)
    mode = Mode("y", K_REF, drive_left=1.0, drive_right=1.0)
    xs = [i / 400 for i in range(401)]
    prof = intensity_profile(solve_fields(chain, [mode]), xs)
    values = [row[1] for row in prof]
    assert min(values) == pytest.approx(0.0, abs=1e-12)
    assert max(values) == pytest.approx(2.0, rel=1e-9)
    assert prof[0][1] == pytest.approx(prof[200][1], rel=1e-9)  # half-period


def test_intensity_normalization():
    # |amp|^2 = 2 I: a drive of intensity I gives |E|^2/2 = I in free space
    chain = ScattererChain((), 0.0)
    i_in = 0.8
    mode = Mode("y", K_REF, drive_left=math.sqrt(2.0 * i_in))
    prof = intensity_profile(solve_fields(chain, [mode]), [0.123])
    assert prof[0][1] == pytest.approx(i_in)


def test_one_sided_drives_are_translation_invariant():
    # with every mode driven from a single side a rigid shift of the chain
    # only rotates phases; amplitude magnitudes stay put
    modes = [
        Mode("y", K_REF, drive_left=1.0),
        Mode("z", 1.3 * K_REF, drive_right=0.5),
    ]
    ref = None
    for shift in (0.0, 0.37, -1.4):
        chain = ScattererChain((shift, 0.4 + shift), 0.05)
        sol = solve_fields(chain, modes)
        mags = [
            tuple(abs(v) for v in q) for mf in sol.fields for q in mf.quads
        ]
        if ref is None:
            ref = mags
        else:
            for qa, qb in zip(ref, mags):
                for x, y in zip(qa, qb):
                    assert x == pytest.approx(y, rel=1e-9, abs=1e-12)


def test_two_sided_drive_pins_the_standing_wave():
    # a mode driven from both ends forms a standing wave with fixed nodes,
    # so shifting the chain moves it through the intensity pattern
    mode = Mode("y", K_REF, drive_left=1.0, drive_right=1.0)
    before = solve_fields(ScattererChain((0.0,), 0.1), [mode])["y"].quads[0]
    after = solve_fields(ScattererChain((0.2,), 0.1), [mode])["y"].quads[0]
    assert abs(before[0] + before[1]) != pytest.approx(
        abs(after[0] + after[1]), rel=1e-3
    )


def reference_sweep(chain, mode):
    """Total matrix, r, t and quadruples built from the public helpers."""
    zs = mode_zetas(chain, mode)
    m = beam_splitter_matrix(zs[0])
    for j in range(1, chain.n):
        d = chain.positions[j] - chain.positions[j - 1]
        m = beam_splitter_matrix(zs[j]) @ (propagation_matrix(mode.k, d) @ m)
    a = complex(mode.drive_left) * cmath.exp(1j * mode.k * chain.positions[0])
    dn = complex(mode.drive_right) * cmath.exp(-1j * mode.k * chain.positions[-1])
    b = (dn - m.m21 * a) / m.m22
    quads = []
    for j in range(chain.n):
        c, d = beam_splitter_matrix(zs[j]).apply(a, b)
        quads.append((a, b, c, d))
        if j + 1 < chain.n:
            gap = chain.positions[j + 1] - chain.positions[j]
            a, b = propagation_matrix(mode.k, gap).apply(c, d)
    return m, -m.m21 / m.m22, 1.0 / m.m22, tuple(quads)


# exact zeros (zero coupling, undriven sides) are where signed zeros show
wide_zetas = st.one_of(
    st.just(0j), st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.0, 0.3))
)


@st.composite
def varied_chains(draw):
    n = draw(st.integers(1, 50))
    gaps = draw(st.lists(st.floats(1e-3, 1.2), min_size=n - 1, max_size=n - 1))
    positions = [draw(st.floats(-2.0, 2.0))]
    for g in gaps:
        positions.append(positions[-1] + g)
    couplings = draw(st.lists(wide_zetas, min_size=n, max_size=n))
    return ScattererChain(tuple(positions), couplings)


@st.composite
def varied_modes(draw):
    modes = []
    for i in range(draw(st.integers(0, 3))):
        coupling = draw(st.sampled_from(["default", "scale", "override"]))
        sides = draw(st.sampled_from(["left", "right", "both", "none"]))
        modes.append(Mode(
            f"m{i}",
            draw(st.floats(0.5, 2.0)) * K_REF,
            drive_left=draw(drives) if sides in ("left", "both") else 0.0j,
            drive_right=draw(drives) if sides in ("right", "both") else 0.0j,
            zeta_scale=draw(st.floats(0.5, 2.0)) if coupling == "scale" else None,
            zeta_override=draw(wide_zetas) if coupling == "override" else None,
        ))
    return modes


def assert_kernel_matches_public_helpers_in_value(chain, modes):
    # == holds -0.0 and 0.0 equal: the kernel skips the helpers' products
    # with the exact zeros of the propagation matrix, which only set signs
    sol = solve_fields(chain, modes)
    for mode, mf in zip(modes, sol.fields):
        m, r, t, quads = reference_sweep(chain, mode)
        k = total_transfer_matrix(chain, mode)
        assert (k.m11, k.m12, k.m21, k.m22) == (m.m11, m.m12, m.m21, m.m22)
        assert reflection_transmission(chain, mode) == (r, t)
        assert (mf.r_tot, mf.t_tot) == (r, t)
        assert mf.quads == quads


@given(varied_chains(), varied_modes())
def test_kernel_matches_public_helpers_in_value(chain, modes):
    assert_kernel_matches_public_helpers_in_value(chain, modes)


def test_kernel_matches_public_helpers_on_a_zero_coupling_chain():
    # every amplitude of the undriven direction is an exact zero
    chain = ScattererChain((0.0, 0.37, 0.74), 0j)
    mode = Mode("a", K_REF, drive_right=1.0 + 0j)
    assert_kernel_matches_public_helpers_in_value(chain, [mode])
    mf = solve_fields(chain, [mode]).fields[0]
    assert mf.r_tot == 0
    assert all(a == c == 0 for a, _, c, _ in mf.quads)


def well_conditioned(chain, modes, bound=10.0):
    """Every total-matrix entry of every mode at most bound in size.

    Within that bound two evaluation orders of the sweep agree to round-off;
    thicker chains amplify round-off through the forward sweep.
    """
    matrices = [total_transfer_matrix(chain, mode) for mode in modes]
    return all(max(abs(m.m11), abs(m.m12), abs(m.m21), abs(m.m22)) <= bound
               for m in matrices)


@given(varied_chains(), varied_modes(), st.floats(-1.0, 1.0))
def test_batched_solve_matches_solve_fields_closely(chain, modes, shift):
    assume(well_conditioned(chain, modes))
    rows = np.array([chain.positions, [x + shift for x in chain.positions]])
    quads = solve_fields_batch(chain, modes, rows)
    assert quads.shape == (len(modes), 2, chain.n, 4)
    for b, row in enumerate(rows):
        sol = solve_fields(chain.with_positions(row), modes)
        for m, mf in enumerate(sol.fields):
            expected = np.array(mf.quads)
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(quads[m, b] - expected)) <= 1e-12 * scale


def mirrored(chain, modes):
    """chain reflected through x = 0, each mode driven from the other side."""
    image = ScattererChain(tuple(-x for x in reversed(chain.positions)),
                           tuple(reversed(chain.zeta_base)), chain.allow_gain)
    return image, [replace(m, drive_left=m.drive_right, drive_right=m.drive_left)
                   for m in modes]


def mirror_error(chain, modes):
    """max|F_j + F'_{N+1-j}| over the mirrored chain's forces F', and max|F|."""
    forces = np.array(forces_exact(chain, modes).total)
    image = np.array(forces_exact(*mirrored(chain, modes)).total)
    return np.max(np.abs(forces + image[::-1])), np.max(np.abs(forces))


def boundary_residual(chain, modes):
    """max|D_N - drive_right e^{-ikx_N}| over modes, and the largest amplitude."""
    residual = size = 0.0
    for mode, mf in zip(modes, solve_fields(chain, modes).fields):
        d_n = complex(mode.drive_right) * cmath.exp(-1j * mode.k * chain.positions[-1])
        residual = max(residual, abs(mf.quads[-1][3] - d_n))
        size = max(size, np.max(np.abs(mf.quads)))
    return residual, size


@given(varied_chains(), varied_modes())
def test_mirrored_chain_feels_mirrored_forces(chain, modes):
    # x -> -x with the drive sides swapped is a symmetry of the slab model
    assume(well_conditioned(chain, modes))
    error, size = mirror_error(chain, modes)
    assert error <= 1e-12 * max(1.0, size)


@given(varied_chains(), varied_modes())
def test_solved_fields_meet_the_right_boundary(chain, modes):
    # the solve imposes D_N through B_1; the sweep must arrive at it
    assume(well_conditioned(chain, modes))
    residual, size = boundary_residual(chain, modes)
    assert residual <= 1e-12 * max(1.0, size)


THICK_CHAINS = pytest.mark.parametrize("zeta, n", [(0.05 + 0.1j, 300), (1.0, 50)],
                                       ids=["absorbing-300", "band-gap-50"])
# y from the left, z from the right, both at intensity 1
THICK_MODES = [Mode("y", K_REF, drive_left=math.sqrt(2.0)),
               Mode("z", K_REF, drive_right=math.sqrt(2.0))]
FORWARD_SWEEP_DEFECT = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3, a reflection-ratio sweep: the forward sweep amplifies "
    "round-off in thick chains (mirror error 2.4e-3 and 4.2, boundary residual 0.15 and 1.1)")


@FORWARD_SWEEP_DEFECT
@THICK_CHAINS
def test_thick_chains_feel_mirrored_forces(zeta, n):
    error, size = mirror_error(ScattererChain([0.45 * j for j in range(n)], zeta), THICK_MODES)
    assert error <= 1e-12 * max(1.0, size)


@FORWARD_SWEEP_DEFECT
@THICK_CHAINS
def test_thick_chains_meet_the_right_boundary(zeta, n):
    chain = ScattererChain([0.45 * j for j in range(n)], zeta)
    residual, size = boundary_residual(chain, THICK_MODES)
    assert residual <= 1e-12 * max(1.0, size)


def test_scalar_and_batched_solves_share_one_sweep(monkeypatch):
    # a second copy of the transfer product or the sweep would bypass these
    calls = []
    for name in ("_transfer", "_sweep"):
        def spy(*args, _name=name, _kernel=getattr(wavecore, name)):
            calls.append(_name)
            return _kernel(*args)
        monkeypatch.setattr(wavecore, name, spy)
    chain = ScattererChain((0.0, 0.31, 0.9), 0.05)
    modes = [Mode("y", K_REF, drive_left=1.0), Mode("z", 1.3 * K_REF, drive_right=0.5)]
    solve_fields(chain, modes)
    assert calls == ["_transfer", "_sweep"] * 2
    calls.clear()
    solve_fields_batch(chain, modes, np.array([chain.positions]))
    assert calls == ["_transfer", "_sweep"]
    calls.clear()
    force_kernel(chain, modes)(chain.positions)
    assert calls == ["_transfer", "_sweep"] * 2
