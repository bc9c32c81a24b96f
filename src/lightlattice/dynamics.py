"""Motional integration of the chain under optical forces.

Two regimes share one fixed-step RK4 step over a flat state:

  overdamped   mu * dx/dt = F(x)                  state x
  newtonian    m * d2x/dt2 = F(x) - mu * dx/dt    state x followed by v

Scatterer order is enforced after every step; a violation aborts the run
with the partial trajectory attached to the exception. settle runs a
scenario's dynamics and measures where they ended, collision included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SeparationViolation
from .wavecore import Mode, ScattererChain, check_number


@dataclass(frozen=True)
class DynamicsParams:
    regime: str
    dt: float
    t_end: float
    friction: float = 1.0
    mass: float = 1.0
    min_separation: float = 1e-3
    force_tol: float = 1e-10

    def __post_init__(self):
        if self.regime not in ("overdamped", "newtonian"):
            raise ValueError(f"unknown regime {self.regime!r}")
        # an overdamped run divides by friction, a newtonian one by mass
        check_number("dt", self.dt, positive=True)
        check_number("t_end", self.t_end, positive=True)
        check_number("friction", self.friction, minimum=0, positive=self.regime == "overdamped")
        check_number("mass", self.mass, positive=self.regime == "newtonian")
        check_number("min_separation", self.min_separation, minimum=0)
        check_number("force_tol", self.force_tol)


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    positions: list[tuple[float, ...]] = field(default_factory=list)
    velocities: list[tuple[float, ...]] | None = None
    termination: str = "incomplete"
    diagnostic: str | None = None

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    def final_positions(self) -> tuple[float, ...]:
        return self.positions[-1]


def _forces(field: ForceField, positions) -> tuple[float, ...]:
    # a crossing inside an RK4 substage is a collision in progress, so it
    # surfaces as SeparationViolation, not as the position check's ValueError
    try:
        return field.forces(positions)[0]
    except ValueError as exc:
        raise SeparationViolation(
            f"scatterer ordering lost during an integration stage: {exc}"
        ) from exc


def _rhs(field: ForceField, params: DynamicsParams, n: int, newtonian: bool):
    """Time derivative of the flat state: x (overdamped) or x then v."""
    mu = params.friction
    if not newtonian:
        return lambda x: tuple(fi / mu for fi in _forces(field, x))
    mass = params.mass

    def rhs(state):
        v = state[n:]
        f = _forces(field, state[:n])
        return v + tuple((fi - mu * vi) / mass for fi, vi in zip(f, v))

    return rhs


def _rk4(state, rhs, dt, k1=None):
    """One classical RK4 step; k1, when given, is rhs(state) already evaluated."""
    if k1 is None:
        k1 = rhs(state)
    k2 = rhs(tuple(s + 0.5 * dt * k for s, k in zip(state, k1)))
    k3 = rhs(tuple(s + 0.5 * dt * k for s, k in zip(state, k2)))
    k4 = rhs(tuple(s + dt * k for s, k in zip(state, k3)))
    return tuple(
        s + dt / 6.0 * (a + 2 * b + 2 * c + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


def _advance(state, rhs, params: DynamicsParams, n: int, k1=None):
    """One RK4 step, then the order check on the n positions leading the state."""
    new = _rk4(state, rhs, params.dt, k1)
    for j in range(n - 1):
        gap = new[j + 1] - new[j]
        if gap < params.min_separation:
            raise SeparationViolation(
                f"separation {gap:.6g} between scatterers {j + 1} and {j + 2} "
                f"fell below {params.min_separation:.6g}"
            )
    return new


def step_overdamped(chain: ScattererChain, modes: list[Mode], params: DynamicsParams) -> tuple[float, ...]:
    """One RK4 step of mu dx/dt = F; returns the new positions."""
    from .forcefield import ForceField
    rhs = _rhs(ForceField(chain, modes), params, chain.n, False)
    return _advance(chain.positions, rhs, params, chain.n)


def evolve(
    chain: ScattererChain,
    modes: list[Mode],
    params: DynamicsParams,
    capture_every: int = 1,
    initial_velocities: tuple[float, ...] | None = None,
) -> Trajectory:
    """Integrate to t_end (or, overdamped, until sup|F| < force_tol).

    Snapshots are kept every capture_every steps plus the initial and final
    states. On a separation violation the partial trajectory is attached to
    the raised exception. Only a newtonian run takes initial_velocities.
    """
    from .forcefield import ForceField
    check_number("capture_every", capture_every, minimum=1, kind=int)
    if chain.n == 0:
        raise ValueError("cannot evolve an empty chain")
    newtonian = params.regime == "newtonian"
    n = chain.n
    if not newtonian and initial_velocities is not None:
        raise ValueError("an overdamped run takes no initial_velocities")
    state = chain.positions
    if newtonian:  # positions followed by velocities, one per scatterer
        v = (0.0,) * n if initial_velocities is None else tuple(initial_velocities)
        for vi in v:
            check_number("initial_velocities", vi)
        if len(v) != n:
            raise ValueError("initial_velocities length must match chain size")
        state += v
    field = ForceField(chain, modes)
    rhs = _rhs(field, params, n, newtonian)
    traj = Trajectory(velocities=[] if newtonian else None)

    def capture(t):
        traj.times.append(t)
        traj.positions.append(state[:n])
        if newtonian:
            traj.velocities.append(state[n:])

    n_steps = max(1, math.ceil(params.t_end / params.dt - 1e-12))
    capture(0.0)
    # overdamped: the force behind the sup|F| check gives the next step's k1
    k1 = None
    for step in range(1, n_steps + 1):
        try:
            state = _advance(state, rhs, params, n, k1)
        except SeparationViolation as exc:
            traj.termination = "separation_violation"
            traj.diagnostic = str(exc)
            raise SeparationViolation(
                f"step {step}: {exc}", trajectory=traj, step=step
            ) from exc
        t = step * params.dt
        if step % capture_every == 0:
            capture(t)
        if not newtonian:
            f = _forces(field, state)
            if max(abs(fi) for fi in f) < params.force_tol:
                if step % capture_every != 0:
                    capture(t)
                traj.termination = "force_tol"
                traj.diagnostic = f"sup|F| below {params.force_tol:g} at t={t:g}"
                return traj
            k1 = tuple(fi / params.friction for fi in f)
    if n_steps % capture_every != 0:
        capture(n_steps * params.dt)
    traj.termination = "t_end"
    return traj


def com_velocity(trajectory: Trajectory) -> float:
    """Mean center-of-mass drift rate over the last quarter of the run.

    Linear least-squares fit; needs at least two snapshots in the window.
    """
    times = trajectory.times
    if len(times) < 2:
        raise ValueError("trajectory too short for a drift estimate")
    t0 = times[-1] - 0.25 * (times[-1] - times[0])
    idx = [i for i, t in enumerate(times) if t >= t0]
    if len(idx) < 2:
        idx = [len(times) - 2, len(times) - 1]
    ts = [times[i] for i in idx]
    coms = [
        sum(trajectory.positions[i]) / len(trajectory.positions[i]) for i in idx
    ]
    tbar = sum(ts) / len(ts)
    cbar = sum(coms) / len(coms)
    denom = sum((t - tbar) ** 2 for t in ts)
    if denom == 0.0:
        return 0.0
    return sum((t - tbar) * (c - cbar) for t, c in zip(ts, coms)) / denom


@dataclass(frozen=True)
class SteadyState:
    """Where a scenario's run ended (settle).

    field is the ForceField of the final chain, residual its sup|F| and
    comoving_residual sup_j |F_j - <F>|. com_velocity is 0.0 for a run with
    fewer than two snapshots. collision is the SeparationViolation message
    of a run that collided, whose trajectory is then the partial one.
    """

    trajectory: Trajectory
    field: ForceField
    gaps: tuple[float, ...]
    residual: float
    comoving_residual: float
    com_velocity: float
    collision: str | None
    params: DynamicsParams

    def verdict(self) -> tuple[str, float]:
        """(stability, dt_stiffness) of the final state, from the force Jacobian.

        stability is ForceField.stability's, in the field's own frame, or
        "not_stationary" while the residual in that frame exceeds force_tol:
        the co-moving residual for a translation-invariant field, sup|F| for
        one that pins the chain. A fixed point of the RK4 map need not be one
        of the dynamics. dt_stiffness, dt max|lambda| / friction, shows an
        explicit step too large for the state; it is NaN for a newtonian run,
        whose stiffness also depends on the mass.
        """
        import numpy as np
        _, eigs, stability = self.field.stability()
        params = self.params
        stiffness = math.nan
        if params.regime == "overdamped":
            stiffness = params.dt * float(np.abs(eigs).max(initial=0.0)) / params.friction
        invariant = self.field.translation_invariant
        if (self.comoving_residual if invariant else self.residual) > params.force_tol:
            stability = "not_stationary"
        return stability, stiffness


def settle(scenario) -> SteadyState:
    """Run a scenario.Scenario's dynamics block with evolve and measure where it ended.

    A collision is recorded with its partial trajectory, not raised; a
    SeparationViolation that carries no trajectory still raises.
    """
    from .forcefield import ForceField
    if scenario.dynamics is None:
        raise ValueError("settle needs a scenario with a dynamics block")
    modes = scenario.mode_list()
    collision = None
    try:
        traj = evolve(scenario.chain, modes, scenario.dynamics,
                      capture_every=scenario.capture_every,
                      initial_velocities=scenario.initial_velocities)
    except SeparationViolation as exc:
        if exc.trajectory is None:
            raise
        traj, collision = exc.trajectory, str(exc)
    final = traj.final_positions()
    field = ForceField(scenario.chain.with_positions(final), modes)
    total = field.forces()[0]
    mean = sum(total) / len(final)
    return SteadyState(
        trajectory=traj,
        field=field,
        gaps=field.chain.gaps(),
        residual=max(abs(f) for f in total),
        comoving_residual=max(abs(f - mean) for f in total),
        com_velocity=com_velocity(traj) if len(traj.times) >= 2 else 0.0,
        collision=collision,
        params=scenario.dynamics,
    )
