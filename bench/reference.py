"""Reference force evaluator and artifact spot-checks.

The evaluator re-derives the exact per-scatterer forces from the model
definition in 30-digit mpmath arithmetic, without importing lightlattice:
per mode, thin slabs with transfer matrix [[1+iz, iz], [-iz, 1-iz]],
free propagation diag(e^{ikd}, e^{-ikd}), incoming amplitudes anchored at
x = 0 (A_1 = drive_left e^{ikx_1}, D_N = drive_right e^{-ikx_N}), and
F_j = (|A_j|^2 + |B_j|^2 - |C_j|^2 - |D_j|^2) / 2 summed over modes.

Artifacts are compared row by row within a relative tolerance instead of
byte for byte, so that a later change may move the last bits of a result
(a reordered sum, a different but stable solver) without failing. The
tolerance is relative to max(|reference|, force scale), where the force
scale sum_modes I |zeta|^2 is the size of a typical force; that keeps the
check meaningful at zero crossings.

Dynamics results are checked against the reference too, not only the
forces at wherever a run ended: sweep cells must end at a zero of the
reference relative force with the reference drift and stability, and an
evolve run's final positions must match a textbook RK4 integration of the
same scenario with the reference forces in double precision.
"""

from __future__ import annotations

import cmath
import copy
import json
import math

import mpmath

from artifacts import read_csv

mpmath.mp.dps = 30

RTOL = 1e-9
# com_velocity is a fit over the last quarter of a run, so it also carries
# what is left of the approach to the co-moving equilibrium
DRIFT_RTOL = 1e-6
STIFFNESS_STEP = 1e-6
K_REF = 2.0 * math.pi
# rows compared per analysis-maps artifact
ZEROLINES_SAMPLES = 24
FORCES_SAMPLES = 16
DESIGN_SAMPLES = 16
# the y beam of `design`: the CLI defaults, which design_args leaves alone
DESIGN_K_Y = 1.0
DESIGN_I_Y = 1.0


class RefMode:
    """One incoherent mode: wavenumber, coupling and incoming amplitudes."""

    def __init__(self, k, zeta, drive_left=0.0, drive_right=0.0):
        self.k = k
        self.zeta = complex(zeta)
        self.drive_left = complex(drive_left)
        self.drive_right = complex(drive_right)

    @property
    def intensity(self) -> float:
        return (abs(self.drive_left) ** 2 + abs(self.drive_right) ** 2) / 2.0


def modes_from_document(doc: dict) -> list[RefMode]:
    """Modes of a scenario document, read by the document's own rules."""
    re, im = doc["chain"]["zeta"]
    zeta = complex(re, im)
    out = []
    for m in doc["modes"]:
        drives = []
        for side in ("left", "right"):
            amp = math.sqrt(2.0 * m.get(f"intensity_{side}", 0.0))
            ph = m.get(f"phase_{side}", 0.0)
            drives.append(amp * complex(math.cos(ph), math.sin(ph)))
        override = m.get("zeta_override")
        # default coupling scales with the wavenumber (fixed polarizability)
        z = complex(*override) if override is not None else zeta * m["k"]
        out.append(RefMode(m["k"] * K_REF, z, *drives))
    return out


def force_scale(modes: list[RefMode]) -> float:
    return sum(m.intensity * abs(m.zeta) ** 2 for m in modes)


def _mul(p, q):
    return (
        (p[0][0] * q[0][0] + p[0][1] * q[1][0], p[0][0] * q[0][1] + p[0][1] * q[1][1]),
        (p[1][0] * q[0][0] + p[1][1] * q[1][0], p[1][0] * q[0][1] + p[1][1] * q[1][1]),
    )


def _forces(xs, modes, cplx, expj) -> list[float]:
    n = len(xs)
    total = [0] * n
    for mode in modes:
        iz = 1j * cplx(mode.zeta)
        bs = ((1 + iz, iz), (-iz, 1 - iz))
        m = bs
        for j in range(1, n):
            ph = expj(mode.k * (xs[j] - xs[j - 1]))
            m = _mul(bs, _mul(((ph, 0), (0, 1 / ph)), m))
        a = cplx(mode.drive_left) * expj(mode.k * xs[0])
        d_n = cplx(mode.drive_right) * expj(-mode.k * xs[-1])
        b = (d_n - m[1][0] * a) / m[1][1]
        for j in range(n):
            c = bs[0][0] * a + bs[0][1] * b
            d = bs[1][0] * a + bs[1][1] * b
            total[j] += (abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2) / 2
            if j + 1 < n:
                ph = expj(mode.k * (xs[j + 1] - xs[j]))
                a, b = c * ph, d / ph
    return [float(f) for f in total]


def forces(positions, modes: list[RefMode]) -> list[float]:
    """Exact total force on every scatterer."""
    return _forces([mpmath.mpf(x) for x in positions], modes, mpmath.mpc, mpmath.expj)


def forces_double(positions, modes: list[RefMode]) -> list[float]:
    """The same forces in double precision, fast enough to integrate with."""
    return _forces(list(positions), modes, complex, lambda t: cmath.exp(1j * t))


def rk4_newtonian(positions, modes: list[RefMode], mass, friction, dt, steps):
    """Final positions of m x'' = F - mu x' from rest, by textbook RK4."""
    n = len(positions)

    def rhs(y):
        f = forces_double(y[:n], modes)
        return y[n:] + [(fi - friction * vi) / mass for fi, vi in zip(f, y[n:])]

    def shifted(y, h, k):
        return [yi + h * ki for yi, ki in zip(y, k)]

    y = list(positions) + [0.0] * n
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(shifted(y, 0.5 * dt, k1))
        k3 = rhs(shifted(y, 0.5 * dt, k2))
        k4 = rhs(shifted(y, dt, k3))
        y = [yi + dt / 6.0 * (a + 2 * b + 2 * c + d)
             for yi, a, b, c, d in zip(y, k1, k2, k3, k4)]
    return y[:n]


def _agrees(value: float, ref: float, scale: float, rtol: float = RTOL) -> bool:
    return abs(value - ref) <= rtol * max(abs(ref), scale)


def _sample(rows, rng, count):
    return rows if len(rows) <= count else rng.sample(rows, count)


class SpotChecks:
    """Collects (label, passed, detail) for every spot-check made."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def record(self, label: str, passed: bool, detail: str = "") -> None:
        self.results.append((label, passed, detail))

    def compare(self, label: str, got, ref, scale: float) -> None:
        bad = [
            f"{g!r} vs {r!r}" for g, r in zip(got, ref) if not _agrees(g, r, scale)
        ]
        self.record(label, not bad, f"{len(bad)} off: " + "; ".join(bad[:3]) if bad else "")

    def zerolines(self, path, doc, rng):
        modes = modes_from_document(doc)
        x1 = doc["chain"]["positions"][0]
        cols, rows = read_csv(path)
        for row in _sample(rows, rng, ZEROLINES_SAMPLES):
            d1, d2, *got = (float(v) for v in row)
            ref = forces((x1, x1 + d1, x1 + d1 + d2), modes)
            self.compare(f"zerolines d1={d1:.4f} d2={d2:.4f}", got, ref, force_scale(modes))

    def forces_table(self, path, doc, rng):
        modes = modes_from_document(doc)
        x1 = doc["chain"]["positions"][0]
        cols, rows = read_csv(path)
        i1, i2 = cols.index("f1_exact"), cols.index("f2_exact")
        for row in _sample(rows, rng, FORCES_SAMPLES):
            d = float(row[0])
            ref = forces((x1, x1 + d), modes)
            got = (float(row[i1]), float(row[i2]))
            self.compare(f"forces d={d:.4f}", got, ref, force_scale(modes))

    def design(self, path, zeta, rng):
        cols, rows = read_csv(path)
        col = {name: i for i, name in enumerate(cols)}
        physical = [r for r in rows if r[col["physical"]] == "true"]
        self.record("design has physical rows", bool(physical))
        for row in _sample(physical, rng, DESIGN_SAMPLES):
            d, k_z, p = (float(row[col[c]]) for c in ("d", "k_z", "p"))
            modes = [
                RefMode(DESIGN_K_Y * K_REF, zeta, drive_left=math.sqrt(2.0 * DESIGN_I_Y)),
                RefMode(k_z * K_REF, zeta * k_z / DESIGN_K_Y,
                        drive_right=math.sqrt(2.0 * p * DESIGN_I_Y)),
            ]
            ref = [abs(f) for f in forces((0.0, d), modes)]
            got = (float(row[col["residual_f1"]]), float(row[col["residual_f2"]]))
            self.compare(f"design d={d:.4f} k_z={k_z:.4f}", got, ref, force_scale(modes))

    def sweep(self, path, doc):
        """Every cell of an N = 2 overdamped sweep against its end state.

        Each cell must end at a zero of the reference's relative force
        F2 - F1 (to the run's force_tol, the overdamped stop rule), drift
        there at the reference's mean force / friction, and be classified
        by the sign of the reference's d(F2 - F1)/d gap.
        """
        # every mode is one-sided, so the forces depend on the gap alone
        cols, rows = read_csv(path)
        col = {name: i for i, name in enumerate(cols)}
        friction = doc["dynamics"]["friction"]
        force_tol = doc["dynamics"]["force_tol"]
        # the sweep axis is modes.z.intensity_right (scenarios.py)
        for row in rows:
            if row[col["stability"]] == "failed":
                continue  # counted as a failed sweep cell already
            cell = copy.deepcopy(doc)
            cell["modes"][1]["intensity_right"] = float(row[0])
            modes = modes_from_document(cell)
            scale = force_scale(modes)
            label = f"sweep I_z={float(row[0]):.4f}"
            gap = float(row[col["gap_1"]])
            f1, f2 = forces((0.0, gap), modes)
            self.compare(f"{label} residual", [float(row[col["residual"]])],
                         [max(abs(f1), abs(f2))], scale)
            self.record(f"{label} relative force", abs(f2 - f1) / 2 <= force_tol,
                        f"|F2 - F1| / 2 = {abs(f2 - f1) / 2:.3e} at gap {gap!r}")
            drift = (f1 + f2) / (2 * friction)
            got = float(row[col["com_velocity"]])
            self.record(f"{label} com_velocity",
                        _agrees(got, drift, scale / friction, DRIFT_RTOL),
                        f"{got!r} vs {drift!r}")
            h = STIFFNESS_STEP
            (a1, a2), (b1, b2) = forces((0.0, gap + h), modes), forces((0.0, gap - h), modes)
            expected = "stable" if (a2 - a1) - (b2 - b1) < 0 else "unstable"
            self.record(f"{label} stability", row[col["stability"]] == expected,
                        f"{row[col['stability']]} vs {expected}")

    def evolve_summary(self, path, doc):
        """An evolve summary against a reference RK4 run of its scenario."""
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        modes = modes_from_document(doc)
        final = summary["final_positions"]
        ref = max(abs(f) for f in forces(final, modes))
        self.compare("final residual_force_sup", [summary["residual_force_sup"]],
                     [ref], force_scale(modes))
        dyn = doc["dynamics"]
        start = doc["chain"]["positions"]
        ref_final = rk4_newtonian(start, modes, dyn["mass"], dyn["friction"], dyn["dt"],
                                  round(dyn["t_end"] / dyn["dt"]))
        moved = [x - x0 for x, x0 in zip(final, start)]
        ref_moved = [x - x0 for x, x0 in zip(ref_final, start)]
        self.compare("final displacements vs reference RK4", moved, ref_moved,
                     max(abs(x) for x in ref_moved))
        return summary
