"""Time-averaged radiation forces on chain scatterers.

Exact forces come from the solved field quadruples; the two-splitter
closed-form approximations (small real zeta, error O(zeta^3)) are provided
for analysis and design work. Positive force points toward +x.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SingularBoundary, WavenumberMismatch
from .wavecore import (
    FieldSolution,
    Mode,
    ScattererChain,
    check_amplitudes,
    quads_kernel,
    solve_fields_batch,
)

# rows per block of forces_batch: about 0.5 MB of working set. At 1024 rows
# (1.6 MB) a block outgrew what the zerolines CSV rows take and raised the
# peak RSS of a grid scan.
_BATCH_ROWS = 256


@dataclass(frozen=True)
class ForceProfile:
    """Per-scatterer total force and per-mode decomposition."""

    total: tuple[float, ...]
    per_mode: dict[str, tuple[float, ...]]

    @property
    def sup(self) -> float:
        return max((abs(f) for f in self.total), default=0.0)


def _mode_forces(quads, w, dn) -> tuple[float, ...] | None:
    """F(j) = (|A|^2 + |B|^2 - |C|^2 - |D|^2)/2 of one mode, or None if not finite.

    The mode's amplitudes are those of quads scaled by w / dn, as
    quads_kernel gives them, so each force is |w / dn|^2 times that of
    quads.
    """
    try:
        g = 0.5 * abs(w / dn) ** 2
        forces = tuple([g * (abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2)
                        for a, b, c, d in quads])
    except OverflowError:
        return None
    return forces if math.isfinite(sum(forces)) else None


def _reduce(solved, n: int) -> tuple[tuple[float, ...], dict[str, tuple[float, ...]]]:
    """Total and per-mode forces from (label, quads, w, dn) per mode on n scatterers.

    A mode whose forces are not finite raises SingularBoundary: for the
    first mode with a non-finite amplitude, as solve_fields reports it, and
    otherwise for that mode's overflowing square.
    """
    per_mode = {}
    for label, quads, w, dn in solved:
        forces = _mode_forces(quads, w, dn)
        if forces is None:
            check_amplitudes(solved)
            raise SingularBoundary(f"|amplitude|^2 overflows in mode {label!r}")
        per_mode[label] = forces
    if per_mode:
        return tuple(map(sum, zip(*per_mode.values()))), per_mode
    return (0.0,) * n, per_mode


def forces_from_solution(solution: FieldSolution) -> ForceProfile:
    """F_mode(j) = (|A|^2 + |B|^2 - |C|^2 - |D|^2)/2, summed over modes.

    A mode that solve_fields solved is reduced from its unscaled sweep,
    as forces_exact reduces it.
    """
    return ForceProfile(*_reduce(
        [(mf.label, *(mf.sweep or (mf.quads, 1.0, 1.0))) for mf in solution.fields],
        solution.chain.n))


def force_kernel(chain: ScattererChain, modes: list[Mode]):
    """forces_exact as a function of positions, prepared once per chain and modes.

    The returned function takes positions as ScattererChain.with_positions
    does, raising its ValueError, and gives (total, per_mode) of forces_exact
    on chain's scatterers moved there, bit for bit; without positions it
    reads chain's own, unchecked (quads_kernel). It raises what
    forces_exact raises: every mode is solved before any is reduced.
    """
    solve = quads_kernel(chain, modes)
    n = chain.n
    return lambda positions=None: _reduce(solve(positions), n)


def forces_exact(chain: ScattererChain, modes: list[Mode]) -> ForceProfile:
    # the chain's constructor checked its positions: the kernel does not again
    return ForceProfile(*force_kernel(chain, modes)())


def forces_batch(chain: ScattererChain, modes: list[Mode], positions) -> np.ndarray:
    """Total forces [B, N] on chain's scatterers placed at each row of positions [B, N].

    Row b is forces_exact(chain.with_positions(positions[b]), modes).total
    to round-off (solve_fields_batch runs in complex128). A row's bits do not
    depend on the other rows, so the result is byte-stable across block
    sizes. Rows are solved side by side in blocks of _BATCH_ROWS. A block
    holding a row that forces_exact rejects (not strictly increasing,
    singular, non-finite or overflowing) is re-run row by row through
    forces_exact, which raises its own error.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2:
        raise ValueError(f"positions must be a [B, N] array, got shape {positions.shape}")
    total = np.empty(positions.shape)
    for start in range(0, len(positions), _BATCH_ROWS):
        rows = positions[start:start + _BATCH_ROWS]
        block = _block_forces(chain, modes, rows)
        if block is None:
            block = [forces_exact(chain.with_positions(row), modes).total for row in rows]
        total[start:start + len(rows)] = block
    return total


@np.errstate(all="ignore")  # a row forces_exact rejects may overflow on the way
def _block_forces(chain: ScattererChain, modes: list[Mode], rows: np.ndarray):
    """forces_batch of one block, or None when forces_exact must judge it."""
    if rows.shape[1] != chain.n or not (rows[:, 1:] > rows[:, :-1]).all():
        return None
    quads = solve_fields_batch(chain, modes, rows)
    squares = quads.real * quads.real + quads.imag * quads.imag
    per_mode = 0.5 * (squares[..., 0] + squares[..., 1] - squares[..., 2] - squares[..., 3])
    total = sum(per_mode, 0.0)
    return total if np.isfinite(total).all() else None


@dataclass(frozen=True)
class PairForceParams:
    """Parameters of the two-splitter closed forms.

    p is the intensity ratio I_z/I_y of the right-incident to the
    left-incident beam; zeta is the (real) coupling at k_y.
    """

    p: float
    k_y: float
    k_z: float
    zeta: float
    i_y: float = 1.0

    def __post_init__(self):
        for name in ("p", "k_y", "k_z", "zeta", "i_y"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.p < 0 or self.i_y < 0:
            raise ValueError("intensities must be non-negative")
        if isinstance(self.zeta, complex):
            raise ValueError("closed forms hold for real zeta only")
        if abs(self.zeta) > 0.2:
            warnings.warn(
                f"|zeta| = {abs(self.zeta)} above 0.2; O(zeta^3) truncation is poor",
                stacklevel=3,
            )


def pair_forces_approx(d: float, p: PairForceParams) -> tuple[float, float]:
    """Closed-form pair forces to O(zeta^2), valid for small real zeta.

    The coupling of the z beam scales as (k_z/k_y)*zeta with the fixed
    polarizability.
    """
    z = p.zeta
    zz = (p.k_z / p.k_y) * z
    iy = p.i_y
    iz = p.p * p.i_y
    cy2 = math.cos(d * p.k_y) ** 2
    cz2 = math.cos(d * p.k_z) ** 2
    den_y = 1.0 + 4.0 * z * z * cy2
    den_z = 1.0 + 4.0 * zz * zz * cz2
    f1 = 2.0 * (iy * z * z * (4.0 * cy2 - 1.0) / den_y - iz * zz * zz / den_z)
    f2 = 2.0 * (iy * z * z / den_y - iz * zz * zz * (4.0 * cz2 - 1.0) / den_z)
    return f1, f2


def pair_force_difference(d: float, p: PairForceParams) -> float:
    """F1 - F2 for equal wavenumbers; vanishes exactly at d = (2n+1)pi/(4k)."""
    if p.k_y != p.k_z:
        raise WavenumberMismatch(
            f"equal-wavenumber form called with k_y={p.k_y}, k_z={p.k_z}"
        )
    k = p.k_y
    z = p.zeta
    c = math.cos(d * k)
    return (
        4.0 * z * z * math.cos(2.0 * d * k) * (p.i_y + p.p * p.i_y)
        / (1.0 + 4.0 * z * z * c * c)
    )


@dataclass(frozen=True)
class PairZeroDistances:
    """Approximate distances of vanishing force on each splitter.

    d1 (d2) zeroes the force on the left (right) splitter. A None entry
    means no real solution exists for these parameters; the notes say why.
    """

    d1: float | None
    d2: float | None
    notes: dict


def pair_zero_force_distances(p: PairForceParams, branch: int = -1, n: int = 0) -> PairZeroDistances:
    """Small-zeta closed forms for the single-splitter zero-force distances.

    branch picks the sign in front of the arccos argument (+1 or -1); n the
    period index. Out-of-domain arguments are reported, not raised: the
    corresponding distance does not exist physically.
    """
    if branch not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    iy = p.i_y
    iz = p.p * p.i_y
    z2 = p.zeta * p.zeta
    num = p.k_y ** 2 * iy + p.k_z ** 2 * iz
    notes: dict = {}

    def solve(k_pref: float, den: float, key: str) -> float | None:
        if den <= 0.0:
            notes[key] = f"denominator {den:.6g} <= 0"
            return None
        arg = branch * math.sqrt(num / den) / (2.0 * k_pref)
        if abs(arg) > 1.0:
            notes[key] = f"arccos argument {arg:.6g} outside [-1, 1]"
            return None
        return (math.acos(arg) + n * math.pi) / k_pref

    d1 = solve(p.k_y, iy + (p.k_z / p.k_y) ** 2 * z2 * (iy - iz), "d1")
    d2 = solve(p.k_z, iz - z2 * (iy - iz), "d2")
    return PairZeroDistances(d1, d2, notes)
