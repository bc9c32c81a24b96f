"""Motional integration of the chain under optical forces.

Two regimes share a fixed-step RK4 integrator:

  overdamped   mu * dx/dt = F(x)
  newtonian    m * d2x/dt2 = F(x) - mu * dx/dt

Scatterer order is enforced after every step; a violation aborts the run
with the partial trajectory attached to the exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import SeparationViolation
from .forcefield import forces_exact
from .wavecore import Mode, ScattererChain


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
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.regime == "overdamped" and self.friction <= 0:
            raise ValueError("overdamped regime needs friction > 0")
        if self.regime == "newtonian" and self.mass <= 0:
            raise ValueError("newtonian regime needs mass > 0")
        if self.friction < 0:
            raise ValueError("friction must be non-negative")
        if self.min_separation < 0:
            raise ValueError("min_separation must be non-negative")


@dataclass
class Trajectory:
    times: list[float] = field(default_factory=list)
    positions: list[tuple[float, ...]] = field(default_factory=list)
    velocities: list[tuple[float, ...]] | None = None
    forces: list[tuple[float, ...]] | None = None
    termination: str = "incomplete"
    diagnostic: str | None = None

    @property
    def n_snapshots(self) -> int:
        return len(self.times)

    def final_positions(self) -> tuple[float, ...]:
        return self.positions[-1]


def _force_fn(chain: ScattererChain, modes: list[Mode]):
    # a crossing inside an RK4 substage is a collision in progress, so it
    # surfaces as SeparationViolation rather than a bare constructor error
    def fn(positions: tuple[float, ...]) -> tuple[float, ...]:
        try:
            moved = chain.with_positions(positions)
        except ValueError as exc:
            raise SeparationViolation(
                f"scatterer ordering lost during an integration stage: {exc}"
            ) from exc
        return forces_exact(moved, modes).total

    return fn


def _check_order(positions: tuple[float, ...], min_sep: float) -> str | None:
    for j in range(len(positions) - 1):
        gap = positions[j + 1] - positions[j]
        if gap < min_sep:
            return (
                f"separation {gap:.6g} between scatterers {j + 1} and {j + 2} "
                f"fell below {min_sep:.6g}"
            )
    return None


def _rk4_overdamped(x, force, mu, dt, f0=None):
    """One RK4 step; f0, when given, is force(x) already evaluated."""
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


def _rk4_newtonian(x, v, force, mass, mu, dt):
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


def step_overdamped(chain: ScattererChain, modes: list[Mode], params: DynamicsParams) -> tuple[float, ...]:
    """One RK4 step of mu dx/dt = F; returns the new positions."""
    force = _force_fn(chain, modes)
    new = _rk4_overdamped(chain.positions, force, params.friction, params.dt)
    msg = _check_order(new, params.min_separation)
    if msg is not None:
        raise SeparationViolation(msg)
    return new


def step_newtonian(
    chain: ScattererChain,
    velocities: tuple[float, ...],
    modes: list[Mode],
    params: DynamicsParams,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One RK4 step of m x'' = F - mu x'; returns (positions, velocities)."""
    force = _force_fn(chain, modes)
    new_x, new_v = _rk4_newtonian(
        chain.positions, velocities, force, params.mass, params.friction, params.dt
    )
    msg = _check_order(new_x, params.min_separation)
    if msg is not None:
        raise SeparationViolation(msg)
    return new_x, new_v


def evolve(
    chain: ScattererChain,
    modes: list[Mode],
    params: DynamicsParams,
    capture_every: int = 1,
    capture_forces: bool = False,
    initial_velocities: tuple[float, ...] | None = None,
) -> Trajectory:
    """Integrate to t_end (or, overdamped, until sup|F| < force_tol).

    Snapshots are kept every capture_every steps plus the initial and final
    states. On a separation violation the partial trajectory is attached to
    the raised exception.
    """
    if capture_every < 1:
        raise ValueError("capture_every must be >= 1")
    newtonian = params.regime == "newtonian"
    x = chain.positions
    v = initial_velocities if initial_velocities is not None else (0.0,) * chain.n
    if newtonian and len(v) != chain.n:
        raise ValueError("initial_velocities length must match chain size")
    force = _force_fn(chain, modes)
    traj = Trajectory(velocities=[] if newtonian else None,
                      forces=[] if capture_forces else None)

    def capture(t):
        traj.times.append(t)
        traj.positions.append(x)
        if newtonian:
            traj.velocities.append(v)
        if capture_forces:
            traj.forces.append(force(x))

    n_steps = max(1, math.ceil(params.t_end / params.dt - 1e-12))
    capture(0.0)
    # overdamped: the force behind the sup|F| check is the next step's k1
    f = None
    for step in range(1, n_steps + 1):
        try:
            if newtonian:
                x, v = _rk4_newtonian(
                    x, v, force, params.mass, params.friction, params.dt
                )
            else:
                x = _rk4_overdamped(x, force, params.friction, params.dt, f)
        except SeparationViolation as exc:
            traj.termination = "separation_violation"
            traj.diagnostic = str(exc)
            raise SeparationViolation(
                f"step {step}: {exc}", trajectory=traj, step=step
            ) from exc
        msg = _check_order(x, params.min_separation)
        if msg is not None:
            traj.termination = "separation_violation"
            traj.diagnostic = msg
            raise SeparationViolation(
                f"step {step}: {msg}", trajectory=traj, step=step
            )
        t = step * params.dt
        if step % capture_every == 0:
            capture(t)
        if not newtonian:
            f = force(x)
            if max(abs(fi) for fi in f) < params.force_tol:
                if step % capture_every != 0:
                    capture(t)
                traj.termination = "force_tol"
                traj.diagnostic = f"sup|F| below {params.force_tol:g} at t={t:g}"
                return traj
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
