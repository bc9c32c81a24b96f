import math
from dataclasses import replace

import pytest

from lightlattice.dynamics import (
    DynamicsParams,
    com_velocity,
    evolve,
    settle,
    step_overdamped,
)
from lightlattice.errors import SeparationViolation
from lightlattice.forcefield import ForceField, forces_exact
from lightlattice.scenario import scenario_from_document
from lightlattice.wavecore import K_REF, Mode, ScattererChain

EXACT_CROSSING_HIGH = 0.373400547


def symmetric_modes(i_y=1.0, i_z=1.0, k_z=K_REF):
    return [
        Mode("y", K_REF, drive_left=math.sqrt(2.0 * i_y)),
        Mode("z", k_z, drive_right=math.sqrt(2.0 * i_z)),
    ]


def test_params_validation():
    with pytest.raises(ValueError):
        DynamicsParams(regime="ballistic", dt=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        DynamicsParams(regime="overdamped", dt=-0.1, t_end=1.0)
    with pytest.raises(ValueError):
        DynamicsParams(regime="overdamped", dt=0.1, t_end=1.0, friction=0.0)
    with pytest.raises(ValueError):
        DynamicsParams(regime="newtonian", dt=0.1, t_end=1.0, mass=0.0)
    # frictionless inertial motion is allowed
    DynamicsParams(regime="newtonian", dt=0.1, t_end=1.0, friction=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name", ["dt", "t_end", "friction", "mass", "min_separation", "force_tol"]
)
def test_params_reject_non_finite_values(name, value):
    kwargs = {"regime": "newtonian", "dt": 0.1, "t_end": 1.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        DynamicsParams(**kwargs)


def test_free_flight_is_exact():
    # no coupling, no friction: RK4 integrates linear motion exactly
    chain = ScattererChain((0.0, 1.0), 0.0)
    params = DynamicsParams(regime="newtonian", dt=0.25, t_end=10.0, friction=0.0)
    traj = evolve(chain, symmetric_modes(), params,
                  initial_velocities=(0.02, -0.01))
    x1, x2 = traj.final_positions()
    assert x1 == pytest.approx(0.0 + 0.02 * 10.0, abs=1e-12)
    assert x2 == pytest.approx(1.0 - 0.01 * 10.0, abs=1e-12)
    assert traj.termination == "t_end"


def test_velocity_decays_exponentially():
    chain = ScattererChain((0.0,), 0.0)
    mu, m = 0.05, 1.0
    params = DynamicsParams(
        regime="newtonian", dt=0.05, t_end=40.0, friction=mu, mass=m
    )
    traj = evolve(chain, [Mode("y", K_REF)], params, initial_velocities=(0.3,))
    v_end = traj.velocities[-1][0]
    assert v_end == pytest.approx(0.3 * math.exp(-mu * 40.0 / m), rel=1e-8)


def test_overdamped_relaxes_to_stable_crossing():
    chain = ScattererChain((0.0, 0.36), 0.01)
    params = DynamicsParams(
        regime="overdamped", dt=5.0, t_end=200000.0, friction=1.0,
        force_tol=1e-11,
    )
    traj = evolve(chain, symmetric_modes(), params, capture_every=50)
    gap = traj.final_positions()[1] - traj.final_positions()[0]
    assert traj.termination == "force_tol"
    assert gap == pytest.approx(EXACT_CROSSING_HIGH, abs=1e-6)


def test_rk4_order_on_frozen_benchmark():
    # halving dt shrinks the final-state error about sixteenfold
    chain = ScattererChain((0.0, 0.3), 0.05)
    modes = symmetric_modes()

    def final_gap(dt):
        params = DynamicsParams(
            regime="newtonian", dt=dt, t_end=8.0, friction=0.2,
            force_tol=0.0,
        )
        traj = evolve(chain, modes, params, capture_every=10 ** 9)
        x = traj.final_positions()
        return x[1] - x[0]

    ref = final_gap(0.0125)
    e_coarse = abs(final_gap(0.4) - ref)
    e_fine = abs(final_gap(0.2) - ref)
    assert 10.0 < e_coarse / e_fine < 22.0


def test_newtonian_approaches_overdamped_limit():
    # fixed friction, small mass: inertial trajectory tracks the first-order
    # one after a transient of duration ~ m / mu
    chain = ScattererChain((0.0, 0.35), 0.02)
    modes = symmetric_modes()
    t_end = 20.0
    over = evolve(
        chain, modes,
        DynamicsParams(regime="overdamped", dt=0.1, t_end=t_end, friction=1.0,
                       force_tol=0.0),
        capture_every=10 ** 9,
    )
    newt = evolve(
        chain, modes,
        DynamicsParams(regime="newtonian", dt=0.002, t_end=t_end, friction=1.0,
                       mass=0.01),
        capture_every=10 ** 9,
    )
    for a, b in zip(over.final_positions(), newt.final_positions()):
        assert a == pytest.approx(b, abs=1e-4)


def test_separation_violation_carries_partial_trajectory():
    # below the first crossing the symmetric pair contracts and collides
    chain = ScattererChain((0.0, 0.06), 0.1)
    params = DynamicsParams(
        regime="overdamped", dt=5.0, t_end=100000.0, friction=1.0,
        min_separation=0.05,
    )
    with pytest.raises(SeparationViolation) as exc_info:
        evolve(chain, symmetric_modes(), params, capture_every=5)
    exc = exc_info.value
    assert exc.trajectory is not None
    assert exc.trajectory.termination == "separation_violation"
    assert exc.trajectory.n_snapshots >= 1
    assert exc.step is not None and exc.step >= 1


def test_step_functions_match_evolve():
    chain = ScattererChain((0.0, 0.3), 0.03)
    modes = symmetric_modes()
    params = DynamicsParams(regime="overdamped", dt=1.0, t_end=1.0, friction=2.0)
    stepped = step_overdamped(chain, modes, params)
    traj = evolve(chain, modes, params, capture_every=1)
    assert stepped == pytest.approx(traj.positions[1])


def test_capture_cadence():
    chain = ScattererChain((0.0, 0.3), 0.01)
    params = DynamicsParams(regime="overdamped", dt=1.0, t_end=10.0, friction=1.0)
    traj = evolve(chain, symmetric_modes(), params, capture_every=4)
    assert traj.times == [0.0, 4.0, 8.0, 10.0]  # final state always kept


def test_com_velocity_of_driven_pair():
    # asymmetric intensities leave a net force; in steady drift the center
    # of mass moves at (mean force)/friction
    chain = ScattererChain((0.0, 0.37), 0.05)
    modes = symmetric_modes(i_y=1.0, i_z=1.3)
    mu = 1.0
    params = DynamicsParams(
        regime="overdamped", dt=2.0, t_end=20000.0, friction=mu, force_tol=0.0
    )
    traj = evolve(chain, modes, params, capture_every=20)
    v = com_velocity(traj)
    f = forces_exact(chain.with_positions(traj.final_positions()), modes).total
    assert v == pytest.approx(sum(f) / len(f) / mu, rel=1e-6)
    assert abs(v) > 1e-6


def test_com_velocity_needs_snapshots():
    traj_like = evolve(
        ScattererChain((0.0,), 0.0),
        [Mode("y", K_REF)],
        DynamicsParams(regime="overdamped", dt=1.0, t_end=1.0, friction=1.0),
    )
    assert com_velocity(traj_like) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("regime", ["overdamped", "newtonian"])
def test_evolve_rejects_an_empty_chain(regime):
    params = DynamicsParams(regime=regime, dt=1.0, t_end=2.0)
    with pytest.raises(ValueError, match="empty chain"):
        evolve(ScattererChain((), 0.01), [Mode("y", K_REF, drive_left=1.0)], params)


def test_initial_velocities_validated():
    chain = ScattererChain((0.0, 0.4), 0.01)
    params = DynamicsParams(regime="newtonian", dt=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        evolve(chain, symmetric_modes(), params, initial_velocities=(0.1,))
    with pytest.raises(ValueError):
        evolve(chain, symmetric_modes(), params, capture_every=0)


@pytest.mark.parametrize("velocities", [(0.0,), (), (0.0, 0.0, 0.0)])
def test_a_one_step_newtonian_run_refuses_a_wrong_velocity_count(velocities):
    # RK4's zip would truncate the state and report a lost ordering instead
    chain = ScattererChain((0.0, 0.4), 0.01)
    params = DynamicsParams(regime="newtonian", dt=0.1, t_end=0.1)
    with pytest.raises(ValueError, match="^initial_velocities length must match chain size$"):
        evolve(chain, symmetric_modes(), params, initial_velocities=velocities)


@pytest.mark.parametrize("velocities", [(1.0, 2.0, 3.0), (0.0, 0.0)])
def test_an_overdamped_run_refuses_initial_velocities(velocities):
    # an overdamped state has no velocities: a value the run cannot use is an error
    chain = ScattererChain((0.0, 0.4), 0.01)
    params = DynamicsParams(regime="overdamped", dt=0.1, t_end=1.0)
    with pytest.raises(ValueError, match="^an overdamped run takes no initial_velocities$"):
        evolve(chain, symmetric_modes(), params, initial_velocities=velocities)


def test_overdamped_evolve_reuses_the_tolerance_force(monkeypatch):
    calls = []

    def counted(self, positions=None, _forces=ForceField.forces):
        calls.append(positions)
        return _forces(self, positions)

    monkeypatch.setattr(ForceField, "forces", counted)
    chain = ScattererChain((0.0, 0.36), 0.01)
    modes = symmetric_modes(i_z=1.2)  # drifts, so force_tol never fires
    steps = 7
    params = DynamicsParams(regime="overdamped", dt=1.0, t_end=float(steps))
    traj = evolve(chain, modes, params)
    assert traj.termination == "t_end"
    assert len(calls) == 4 * steps + 1

    stepped = [chain.positions]
    for _ in range(steps):
        moved = chain.with_positions(stepped[-1])
        stepped.append(step_overdamped(moved, modes, params))
    assert traj.positions == stepped

    calls.clear()
    params_n = DynamicsParams(regime="newtonian", dt=1.0, t_end=float(steps))
    evolve(chain, modes, params_n)
    assert len(calls) == 4 * steps


@pytest.mark.parametrize("regime", ["overdamped", "newtonian"])
def test_evolve_builds_the_splitters_once_per_mode(monkeypatch, regime):
    from lightlattice import wavecore

    calls = []
    couplings = wavecore.mode_zetas

    def spy(chain, mode):
        calls.append(mode.label)
        return couplings(chain, mode)

    monkeypatch.setattr(wavecore, "mode_zetas", spy)
    chain = ScattererChain((0.0, 0.36), 0.01)
    modes = symmetric_modes(i_z=1.2)
    for steps in (1, 5, 40):
        calls.clear()
        evolve(chain, modes, DynamicsParams(regime=regime, dt=1.0, t_end=float(steps)))
        assert calls == ["y", "z"], steps


def test_a_crossing_inside_a_stage_raises_separation_violation():
    # a stage of the first step already swaps the pair
    chain = ScattererChain((0.0, 0.06), 0.1)
    params = DynamicsParams(regime="overdamped", dt=10.0, t_end=50.0, min_separation=0.0)
    with pytest.raises(SeparationViolation) as exc:
        evolve(chain, symmetric_modes(), params)
    assert str(exc.value) == (
        "step 1: scatterer ordering lost during an integration stage: positions not "
        "strictly increasing: 0.11527709601093389 !< -0.05527709601093389"
    )
    assert exc.value.step == 1
    assert exc.value.trajectory.termination == "separation_violation"
    assert isinstance(exc.value.__cause__.__cause__, ValueError)


def test_evolve_raises_a_repeated_label_as_it_is():
    # rejected while the ForceField is prepared, before any stage; a
    # SeparationViolation is no ValueError
    chain = ScattererChain((0.0, 0.3), 0.05)
    modes = [Mode("y", K_REF, drive_left=1.0), Mode("y", 1.3 * K_REF, drive_right=1.0)]
    for regime in ("overdamped", "newtonian"):
        with pytest.raises(ValueError, match="^mode label 'y' is repeated$"):
            evolve(chain, modes, DynamicsParams(regime=regime, dt=1.0, t_end=5.0))


# Reference RK4 steps, one per regime, as they stood before the two regimes
# shared one tableau; the shared step must reproduce them bit for bit.
def _reference_rk4_overdamped(x, force, mu, dt, f0=None):
    def rhs(y, f=None):
        if f is None:
            f = force(y)
        return tuple(fi / mu for fi in f)

    k1 = rhs(x, f0)
    k2 = rhs(tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, k1)))
    k3 = rhs(tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, k2)))
    k4 = rhs(tuple(xi + dt * ki for xi, ki in zip(x, k3)))
    return tuple(
        xi + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for xi, a, b, c, d in zip(x, k1, k2, k3, k4)
    )


def _reference_rk4_newtonian(x, v, force, mass, mu, dt):
    def rhs(y, w):
        f = force(y)
        return w, tuple((fi - mu * wi) / mass for fi, wi in zip(f, w))

    ax1, av1 = rhs(x, v)
    x2 = tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, ax1))
    v2 = tuple(vi + 0.5 * dt * ki for vi, ki in zip(v, av1))
    ax2, av2 = rhs(x2, v2)
    x3 = tuple(xi + 0.5 * dt * ki for xi, ki in zip(x, ax2))
    v3 = tuple(vi + 0.5 * dt * ki for vi, ki in zip(v, av2))
    ax3, av3 = rhs(x3, v3)
    x4 = tuple(xi + dt * ki for xi, ki in zip(x, ax3))
    v4 = tuple(vi + dt * ki for vi, ki in zip(v, av3))
    ax4, av4 = rhs(x4, v4)
    xn = tuple(
        xi + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for xi, a, b, c, d in zip(x, ax1, ax2, ax3, ax4)
    )
    vn = tuple(
        vi + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for vi, a, b, c, d in zip(v, av1, av2, av3, av4)
    )
    return xn, vn


def _reference_force(chain, modes):
    return lambda x: forces_exact(chain.with_positions(x), modes).total


def test_shared_rk4_step_is_bit_identical_to_the_reference():
    chain = ScattererChain((0.0, 0.45, 0.9, 1.35, 1.8), 0.02)
    modes = symmetric_modes(i_z=1.2)
    force = _reference_force(chain, modes)
    v0 = (0.01, -0.02, 0.0, 0.015, -0.005)
    params = DynamicsParams(
        regime="newtonian", dt=0.5, t_end=10.0, friction=0.1, mass=1.5
    )
    traj = evolve(chain, modes, params, initial_velocities=v0)
    x, v = chain.positions, v0
    ref_x, ref_v = [x], [v]
    for _ in range(20):
        x, v = _reference_rk4_newtonian(x, v, force, 1.5, 0.1, 0.5)
        ref_x.append(x)
        ref_v.append(v)
    assert traj.termination == "t_end"
    assert repr(traj.positions) == repr(ref_x)
    assert repr(traj.velocities) == repr(ref_v)
    assert ref_v[-1] != v0

    # a one-step run from a captured state takes the same step
    one = replace(params, t_end=params.dt)
    stepped = evolve(chain.with_positions(ref_x[3]), modes, one, initial_velocities=ref_v[3])
    assert repr((stepped.positions[-1], stepped.velocities[-1])) == repr((ref_x[4], ref_v[4]))

    pair = ScattererChain((0.0, 0.36), 0.05)
    force = _reference_force(pair, symmetric_modes())
    params = DynamicsParams(
        regime="overdamped", dt=5.0, t_end=1.0e6, friction=1.3, force_tol=1e-9
    )
    traj = evolve(pair, symmetric_modes(), params)
    assert traj.termination == "force_tol"
    ref_x, f = [pair.positions], None
    while True:
        ref_x.append(_reference_rk4_overdamped(ref_x[-1], force, 1.3, 5.0, f))
        f = force(ref_x[-1])
        if max(abs(fi) for fi in f) < 1e-9:
            break
    assert repr(traj.positions) == repr(ref_x)
    assert repr(step_overdamped(pair, symmetric_modes(), params)) == repr(ref_x[1])


def _pair_document(zeta, positions, k_z, i_z, dynamics):
    return {
        "version": "1",
        "chain": {"zeta": zeta, "allow_gain": True, "positions": positions},
        "modes": [
            {"label": "y", "k": 1.0, "intensity_left": 1.0},
            {"label": "z", "k": k_z, "intensity_right": i_z},
        ],
        "dynamics": dict(regime="overdamped", **dynamics),
    }


@pytest.mark.parametrize("dt, verdict, gap, past_the_bound", [
    (0.5, "stable", 0.3176276090, False),
    (2.0, "not_stationary", 0.3027472698, True),
])
def test_settle_gives_a_sweep_cells_verdict_without_the_command_line(dt, verdict, gap,
                                                                     past_the_bound):
    # the (k_z, I_z) = (1.2, 2.0) cell of stationary_distance_map: at dt = 2
    # the pair sits on a fixed point of the RK4 map where F2 - F1 is not zero,
    # and dt |lambda| / mu is past RK4's real stability interval (-2.79, 0)
    doc = _pair_document([1.0 / 12.0, -1.0 / 150.0], [0.0, 0.25], 1.2, 2.0,
                         {"dt": dt, "t_end": 400.0, "force_tol": 1e-11})
    state = settle(scenario_from_document(doc))
    stability, stiffness = state.verdict()
    assert state.collision is None and stability == verdict
    assert state.gaps[0] == pytest.approx(gap, abs=1e-9)
    assert (stiffness > 2.79) is past_the_bound


def test_settle_records_a_collision_with_its_partial_trajectory():
    doc = _pair_document([0.1, 0.0], [0.0, 0.06], 1.0, 1.0,
                         {"dt": 5.0, "t_end": 100000.0, "min_separation": 0.05})
    state = settle(scenario_from_document(doc))
    assert state.collision.startswith("step ")
    assert state.trajectory.termination == "separation_violation"
    assert state.field.chain.positions == state.trajectory.final_positions()
    del doc["dynamics"]
    with pytest.raises(ValueError, match="dynamics block"):
        settle(scenario_from_document(doc))


def _standing_wave_document(positions, dt, friction):
    return {
        "version": "1",
        "chain": {"zeta": [0.05, 0.0], "positions": list(positions)},
        "modes": [{"label": "sw", "k": 1.0, "intensity_left": 1.0, "intensity_right": 1.0}],
        "dynamics": {"regime": "overdamped", "dt": dt, "t_end": dt, "friction": friction},
    }


def test_a_standing_wave_is_judged_without_projecting_out_the_shift():
    # the pair at its unstable root near (-0.242049, 0.0): eigenvalues +-2.5133.
    # Projecting out the uniform shift, no symmetry of a standing wave, left
    # only their mean and read "marginal"
    from lightlattice.equilibria import find_equilibrium
    sw = [Mode("sw", K_REF, drive_left=math.sqrt(2.0), drive_right=math.sqrt(2.0))]
    root = find_equilibrium(ScattererChain((-0.242049, 0.0), 0.05), sw)
    assert root.classification == "unstable" and not root.translation_projected
    state = settle(scenario_from_document(
        _standing_wave_document(map(float, root.positions), dt=0.01, friction=2.0)))
    assert state.trajectory.termination == "force_tol"
    stability, stiffness = state.verdict()
    assert stability == "unstable"
    assert stiffness == pytest.approx(0.01 * 2.5133 / 2.0, rel=1e-4)


def test_a_scatterer_sliding_in_a_standing_wave_is_not_stationary():
    # one scatterer has no gap, so its co-moving residual is 0; the standing
    # wave pins it, and its residual is sup|F|
    state = settle(scenario_from_document(_standing_wave_document([0.1], dt=0.01, friction=1.0)))
    assert state.comoving_residual == 0.0 and state.residual == pytest.approx(0.18822, abs=1e-5)
    assert state.verdict()[0] == "not_stationary"
