"""Exception types shared across the package."""


class EquilabError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EquilabError):
    """Invalid configuration; carries the list of violated invariants."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonConvergenceError(EquilabError):
    """A solve did not finish: a singular system, or an active-set solve on
    the unit simplex (the saddle guard) that hit its step cap or a singular
    KKT system.  Carries the step count and the achieved KKT
    residual when there is one."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class DiscretizationError(EquilabError):
    """The grid is too coarse for the problem: its collocation system (the
    coupled problem's or a balayage's) gives a negative weight."""


class QuadratureError(EquilabError):
    """Quadrature failed its self-convergence check."""


class PrecisionError(EquilabError):
    """Working precision is insufficient; escalation requested."""


class PrecisionDiagnosticWarning(UserWarning):
    """Non-fatal diagnostic about precision-limited output."""
