"""Time-averaged radiation forces on chain scatterers.

Exact forces come from each solve's (A, B, s) triples, and their exact
Jacobian from one tangent pass; ForceField.stability judges a state from
that Jacobian's eigenvalues, projecting out the uniform shift exactly when
the field is translation invariant. The two-splitter closed-form
approximations (small real zeta, error O(zeta^3)) are provided for
analysis and design work. Positive force points toward +x.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import SingularBoundary
from .wavecore import ChainSweeps, Mode, ScattererChain, check_amplitudes, check_number

# rows per block of forces_batch: about 0.5 MB of working set. At 1024 rows
# (1.6 MB) a block outgrew what the zerolines CSV rows take and raised the
# peak RSS of a grid scan.
_BATCH_ROWS = 256
# up to this many scatterers a Python loop assembles the Jacobian faster than numpy
_LOOP_N = 6
_EIG_TOL = 1e-9


@dataclass(frozen=True)
class ForceProfile:
    """Per-scatterer total force and per-mode decomposition."""

    total: tuple[float, ...]
    per_mode: dict[str, tuple[float, ...]]

    @property
    def sup(self) -> float:
        return max((abs(f) for f in self.total), default=0.0)


def _mode_forces(const, triples, w, dn, mirrored) -> tuple[float, ...] | None:
    """F_j = (|A|^2 + |B|^2 - |C|^2 - |D|^2)/2 of one mode solved by ChainSweeps.solve, or None.

    None if a force is not finite. With s = i zeta (A + B), F = -Re(conj(2A + s) s) +
    Re(i zeta)|A + B|^2, which does not cancel where A is the smaller wave, as in the frame
    the mode is solved in; an image's forces are the chain's reversed and negated.
    """
    try:
        g = abs(w / dn) ** 2 if mirrored else -abs(w / dn) ** 2
        triples = reversed(triples) if mirrored else triples  # in chain order
        if const.lossy:
            forces = tuple([g * (((a + a + s).conjugate() * s).real - iz.real * abs(a + b) ** 2)
                            for iz, (a, b, s) in zip(const.couplings, triples)])
        else:  # the same bits without the zero term, which took a sixth of a long-chain run
            forces = tuple([g * ((a + a + s).conjugate() * s).real for a, _, s in triples])
    except OverflowError:
        return None
    return forces if math.isfinite(sum(forces)) else None


def _reduce(solved, n: int) -> tuple[tuple[float, ...], dict[str, tuple[float, ...]]]:
    """Total and per-mode forces from ChainSweeps.solve's sweeps on n scatterers.

    A mode whose forces are not finite raises SingularBoundary: for the
    first mode with a non-finite amplitude, as solve_fields reports it, and
    otherwise for that mode's overflowing square.
    """
    per_mode = {}
    for sweep in solved:
        forces, label = _mode_forces(*sweep), sweep[0].label
        if forces is None:
            check_amplitudes(solved)
            raise SingularBoundary(f"|amplitude|^2 overflows in mode {label!r}")
        per_mode[label] = forces
    # unpacked at its exact size: tuple(map(...)) guesses a size and shrinks,
    # parking a spare tuple on the interpreter's free list per evaluation
    return ((*map(sum, zip(*per_mode.values())),) if per_mode else (0.0,) * n), per_mode


class ForceField(ChainSweeps):
    """Forces and their exact Jacobian at any placement of chain's scatterers under modes.

    Build one per chain and mode set: forces_exact, forces_batch (through
    sweep_batch) and force_jacobian each read one. Its forces read the same
    sweeps whose scaled amplitudes are solve_fields' ModeFields.quads.
    """

    def forces(self, positions=None):
        """(total, per_mode) of forces_exact at positions, bit for bit, raising what it raises."""
        return _reduce(self.solve(positions), self.n)

    def tangent(self, source, positions=None):
        """Each mode's forces, and the response of the total force to a source at each scatterer.

        A mode's field is psi = right * w_R / dn_R + left * w_L / dn_L (pairs).
        source(constants, x_k, zeta_k, A_k, B_k) is the jump in (C_k, D_k)
        that perturbing scatterer k adds to psi, whose incident amplitudes
        there are (A_k, B_k). The drives fix A_1 and D_N, so psi changes by
        rho_k * right on j < k and by gamma_k * left on j > k, where rho_k
        and gamma_k make the jump. Returns (forces per mode, matrix), whose
        [j, k] sums Re(conj(psi_j) . dpsi_j), the change of F_j, over modes:
        a list of rows up to _LOOP_N scatterers, an ndarray beyond.
        """
        x, pairs = self.pairs(positions)
        n, forces, rows = self.n, [], []
        for const, (rq, rw, rd), (lq, lw, ld) in pairs:
            sr, sl = rw / rd, lw / ld
            wronskian = -rd  # C^R D^L - C^L D^R, the same at every scatterer
            image, mode_forces = const.sides[0], []
            for xk, zeta, (ra, rb, rs), (la, lb, ls) in zip(x, const.zetas, rq, lq):
                rc, rdd, lc, ldd = ra + rs, rb - rs, la + ls, lb - ls
                a, b, s = sr * ra + sl * la, sr * rb + sl * lb, sr * rs + sl * ls
                v1, v2 = source(const, xk, zeta, a, b)
                rho = (lc * v2 - ldd * v1) / wronskian
                gamma = (rc * v2 - rdd * v1) / wronskian
                # _mode_forces' form, inline (a call per mode cost design 10%); image: A' = B - s
                u = b - s if image else a
                f = (((u + u + s).conjugate() * s).real
                     + zeta.imag * ((a + b) * (a + b).conjugate()).real)
                mode_forces.append(f if image else -f)
                a, b, c, d = a.conjugate(), b.conjugate(), (a + s).conjugate(), (b - s).conjugate()
                incident, outgoing = a * ra + b * rb, c * lc + d * ldd
                rows.append((incident - c * rc - d * rdd, a * la + b * lb - outgoing, rho, gamma,
                             rho * incident - gamma * outgoing))
            forces.append(mode_forces)
        if n <= _LOOP_N:
            matrix = [[0.0] * n for _ in range(n)]
            for start in range(0, len(rows), n):
                block = rows[start:start + n]
                for j, (y, z, _, _, diagonal), row in zip(range(n), block, matrix):
                    for k, (_, _, rho, gamma, _) in enumerate(block):
                        row[k] += (rho * y if j < k else gamma * z if j > k else diagonal).real
            return forces, matrix
        import numpy as np
        y, z, rho, gamma, diagonal = np.array(rows, dtype=complex).T.reshape(5, len(pairs), n)

        def response(psi_dot, amplitude):  # sum over modes of Re(psi_dot[m, j] * amplitude[m, k])
            return (np.concatenate([psi_dot.real, -psi_dot.imag]).T
                    @ np.concatenate([amplitude.real, amplitude.imag]))

        below = np.arange(n)[:, None] > np.arange(n)
        matrix = np.where(below, response(z, gamma), response(y, rho))
        matrix[np.diag_indices(n)] = diagonal.real.sum(axis=0)
        return forces, matrix

    def _jacobian(self, positions=None):
        """jacobian's matrix as tangent gives it: rows up to _LOOP_N scatterers."""
        jac = self.tangent(_shift, positions)[1] if self.n else []
        if self.n > _LOOP_N:
            import numpy as np
            finite = np.isfinite(jac).all()
        else:  # a finite sum needs finite entries; only an overflowing one is checked entry by entry
            finite = math.isfinite(sum(map(sum, jac))) or all(map(math.isfinite, sum(jac, [])))
        if not finite:
            self.forces(positions)
            raise SingularBoundary("the force Jacobian is not finite")
        return jac

    def jacobian(self, positions=None) -> np.ndarray:
        """Exact Jacobian dF_j/dx_k of the forces at positions.

        Moving scatterer k perturbs its splitter alone; the field's response
        is the right sweep to the left of k and the left sweep to its right,
        so one tangent pass gives every column. A mode whose m22 forces
        rejects raises its SingularBoundary; so does a Jacobian that is not
        finite, with the error forces raises when it has one.
        """
        import numpy as np
        return np.asarray(self._jacobian(positions)).reshape(self.n, self.n)

    @property
    def translation_invariant(self) -> bool:
        """True when no mode is driven from both sides: a uniform shift then only rotates phases."""
        return all(len(c.sides) == 1 for c in self.constants)

    def stability(self, positions=None):
        """(jacobian, eigenvalues, classification) of the forces at positions.

        A translation-invariant field's Jacobian is first restricted to the
        orthonormal complement of the uniform shift. Eigenvalues come back
        sorted by descending real part; the classification is "stable" when all
        real parts are below -1e-9, "unstable" when any is above +1e-9, and
        "marginal" otherwise (also when no eigenvalue is left). Up to 2x2 after
        restriction, they are closed-form and come back as lists, as does the
        Jacobian; beyond, numpy's eigvals gives them, and both are ndarrays.
        """
        jacobian = matrix = self._jacobian(positions)
        invariant = self.translation_invariant
        if self.n - invariant <= 2:
            if invariant:  # normalised Helmert columns: (1, ..., 1, -i, 0, ...) / sqrt(i (i + 1))
                q = [[((r < i) - (r == i) * i) / math.sqrt(i * (i + 1.0)) for r in range(self.n)]
                     for i in range(1, self.n)]
                jq = [[sum(x * y for x, y in zip(row, col)) for row in jacobian] for col in q]
                matrix = [[sum(x * y for x, y in zip(left, right)) for right in jq] for left in q]
            eigs = _eigenvalues(matrix)
        else:
            import numpy as np
            jacobian = matrix = np.asarray(jacobian)
            if invariant:  # the same columns
                i = np.arange(1, self.n)
                rows = np.arange(self.n)[:, None]
                q = ((rows < i) - (rows == i) * i) / np.sqrt(i * (i + 1.0))
                matrix = q.T @ jacobian @ q
            eigs = np.linalg.eigvals(matrix)
            eigs = eigs[np.argsort(eigs.real)[::-1]]
        top = eigs[0].real if len(eigs) else 0.0
        label = "stable" if top < -_EIG_TOL else "unstable" if top > _EIG_TOL else "marginal"
        return jacobian, eigs, label


def _eigenvalues(matrix) -> list:
    """Closed-form eigenvalues of a matrix (rows) of at most 2x2, in stability's order: real
    ones larger first, a complex pair as numpy leaves it (negative imaginary part first)."""
    if len(matrix) < 2:
        return [row[0] for row in matrix]
    (a, b), (c, d) = matrix
    h, e = (a + d) / 2.0, (a - d) / 2.0
    r = cmath.sqrt(e * e + b * c)
    return [h + r.real, h - r.real] if not r.imag else [h - r, h + r]


def _shift(const, x, zeta, a, b):
    # moving scatterer k by dx turns its splitter S into D(-dx) S D(dx),
    # D = diag(e^{ik dx}, e^{-ik dx}), and leaves the drives' A_1 and D_N
    return 2.0 * const.k * zeta * b, 2.0 * const.k * zeta * a


def forces_exact(chain: ScattererChain, modes: list[Mode]) -> ForceProfile:
    # the chain's constructor checked its positions: the field does not again
    return ForceProfile(*ForceField(chain, modes).forces())


def forces_batch(chain: ScattererChain, modes: list[Mode], positions) -> np.ndarray:
    """Total forces [B, N] on chain's scatterers placed at each row of positions [B, N].

    Row b is forces_exact(chain.with_positions(positions[b]), modes).total
    to round-off, byte-stable across block sizes (sweep_batch). Rows are
    solved in blocks of _BATCH_ROWS from one ForceField. A block holding a
    row that forces_exact rejects (not strictly increasing, singular,
    non-finite or overflowing) is re-run row by row through its forces,
    which raise their own error.
    """
    import numpy as np
    field = ForceField(chain, modes)
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2:
        raise ValueError(f"positions must be a [B, N] array, got shape {positions.shape}")
    total = np.empty(positions.shape)
    for start in range(0, len(positions), _BATCH_ROWS):
        rows = positions[start:start + _BATCH_ROWS]
        block = _block_forces(field, rows)
        if block is None:
            block = [field.forces(row)[0] for row in rows]
        total[start:start + len(rows)] = block
    return total


def _block_forces(field: ForceField, rows: np.ndarray):
    """forces_batch of one block, or None when forces_exact must judge it."""
    import numpy as np
    with np.errstate(all="ignore"):  # a row forces_exact rejects may overflow on the way
        if rows.shape[1] != field.n or not (rows[:, 1:] > rows[:, :-1]).all():
            return None
        total = np.zeros(rows.shape)
        for const, (a, b, s), mirrored in field.sweep_batch(rows):  # as _mode_forces reads them
            u, v = a + a + s, a + b
            iz = np.array(const.mirrored if mirrored else const.couplings)
            forces = (u.real * s.real + u.imag * s.imag
                      - iz.real * (v.real * v.real + v.imag * v.imag))
            total += forces[:, ::-1] if mirrored else -forces
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
        check_number("p", self.p, minimum=0)
        check_number("k_y", self.k_y, positive=True)
        check_number("k_z", self.k_z, positive=True)
        check_number("zeta", self.zeta)  # the closed forms hold for real zeta only
        check_number("i_y", self.i_y, minimum=0)
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
    try:
        cy2 = math.cos(d * p.k_y) ** 2
        cz2 = math.cos(d * p.k_z) ** 2
    except ValueError:  # math.cos of an infinite phase
        return math.nan, math.nan
    den_y = 1.0 + 4.0 * z * z * cy2
    den_z = 1.0 + 4.0 * zz * zz * cz2
    f1 = 2.0 * (iy * z * z * (4.0 * cy2 - 1.0) / den_y - iz * zz * zz / den_z)
    f2 = 2.0 * (iy * z * z / den_y - iz * zz * zz * (4.0 * cz2 - 1.0) / den_z)
    return f1, f2


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
    corresponding distance does not exist physically. Where a wavenumber's
    square overflows, both distances are NaN.
    """
    if branch not in (-1, 1):
        raise ValueError("branch must be +1 or -1")
    iy = p.i_y
    iz = p.p * p.i_y
    z2 = p.zeta * p.zeta
    try:
        num = p.k_y ** 2 * iy + p.k_z ** 2 * iz
        ratio2 = (p.k_z / p.k_y) ** 2
    except OverflowError:  # float ** 2 raises past the largest double
        return PairZeroDistances(math.nan, math.nan, {})
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

    d1 = solve(p.k_y, iy + ratio2 * z2 * (iy - iz), "d1")
    d2 = solve(p.k_z, iz - z2 * (iy - iz), "d2")
    return PairZeroDistances(d1, d2, notes)
