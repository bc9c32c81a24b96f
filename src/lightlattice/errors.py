"""Exception types shared across the package.

Every error that carries physical meaning (no trapping possible, degenerate
resonance, chain collapse) gets its own class so callers can react without
string matching. Plumbing errors (bad scenario files) use ScenarioError.
"""


class LightLatticeError(Exception):
    """Base class for all package-specific errors."""


class NegativeDistance(LightLatticeError):
    """Propagation over d < 0 requested; the chain is unsorted upstream."""


class SingularBoundary(LightLatticeError):
    """|m22| of the total transfer matrix is below threshold.

    The boundary solve divides by m22; this only happens at a degenerate
    resonance (requires gain). Reported, never silently continued.
    """


class NoSolution(LightLatticeError):
    """A closed-form inverse has no real solution for these parameters."""

    def __init__(self, message, radicand=None):
        super().__init__(message)
        self.radicand = radicand


class SeparationViolation(LightLatticeError):
    """A trajectory step brought two scatterers below min_separation.

    The partial trajectory up to the offending step is attached.
    """

    def __init__(self, message, trajectory=None, step=None):
        super().__init__(message)
        self.trajectory = trajectory
        self.step = step


class NoConvergence(LightLatticeError):
    """Equilibrium search exhausted its iteration budget.

    best_positions / best_residual hold the best iterate found.
    """

    def __init__(self, message, best_positions=None, best_residual=None):
        super().__init__(message)
        self.best_positions = best_positions
        self.best_residual = best_residual


class InconsistentLinearization(LightLatticeError):
    """The base point of a force linearization is not an equilibrium."""


class UnstableMode(LightLatticeError):
    """A normal-mode frequency argument is negative.

    imaginary_magnitude is the growth rate |omega| of the unstable mode.
    """

    def __init__(self, message, imaginary_magnitude=None):
        super().__init__(message)
        self.imaginary_magnitude = imaginary_magnitude


class NoLattice(LightLatticeError):
    """No standing-wave lattice.

    The closed-form radicand is negative, or no trap seed polishes to a
    stable site.
    """


class NoTrap(LightLatticeError):
    """Centre-of-mass trapping position undefined (arccos argument out of range)."""


class SingularDenominator(LightLatticeError):
    """A closed-form denominator is numerically zero."""


class ScenarioError(LightLatticeError):
    """Scenario file failed validation. Maps to CLI exit code 2."""
