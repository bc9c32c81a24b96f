"""Machine-speed calibration owned by the benchmark.

On a shared VM the speed of one core drifts by 20-40 % over seconds to
minutes as neighbours load the host, so a raw wall time mostly measures
the neighbours. The calibration is a fixed piece of pure-Python work in
the same style as the package's hot path (complex 2x2 transfer sweeps,
small tuples, cmath), timed between the passes of a run. The program
under test cannot change it, so time(pass) / time(calibration) follows the
program and not the host's load.
"""

from __future__ import annotations

import cmath
import math
import time

# median calibration time on the machine the bounds were set on
# (2-vCPU Intel Xeon VM, Python 3.11); it only scales the reported seconds
REFERENCE_S = 0.030


def _sweep(xs, k, zeta, drive_left, drive_right):
    iz = 1j * zeta
    b11, b12, b21, b22 = 1 + iz, iz, -iz, 1 - iz
    m = (b11, b12, b21, b22)
    for j in range(1, len(xs)):
        ph = cmath.exp(1j * k * (xs[j] - xs[j - 1]))
        p = (ph * m[0], ph * m[1], m[2] / ph, m[3] / ph)
        m = (b11 * p[0] + b12 * p[2], b11 * p[1] + b12 * p[3],
             b21 * p[0] + b22 * p[2], b21 * p[1] + b22 * p[3])
    a = drive_left * cmath.exp(1j * k * xs[0])
    b = (drive_right * cmath.exp(-1j * k * xs[-1]) - m[2] * a) / m[3]
    out = []
    for j in range(len(xs)):
        c, d = b11 * a + b12 * b, b21 * a + b22 * b
        out.append((abs(a) ** 2 + abs(b) ** 2 - abs(c) ** 2 - abs(d) ** 2) / 2)
        if j + 1 < len(xs):
            ph = cmath.exp(1j * k * (xs[j + 1] - xs[j]))
            a, b = c * ph, d / ph
    return out


def calibration_time() -> float:
    """Seconds taken by the fixed calibration work (about 30 ms)."""
    xs = [0.4968 * j for j in range(20)]
    k = 2.0 * math.pi
    t = time.perf_counter()
    for _ in range(400):
        _sweep(xs, k, 0.01, 1.4, 0.0)
        _sweep(xs, k, 0.01, 0.0, 1.4)
    return time.perf_counter() - t
