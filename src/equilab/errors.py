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
    """A solve did not finish: a singular dense system."""


class DiscretizationError(EquilabError):
    """The grid is too coarse for the problem: a collocation system gives a
    negative weight."""


class QuadratureError(EquilabError):
    """Quadrature failed its self-convergence check."""


class PrecisionError(EquilabError):
    """Working precision is insufficient; escalation requested."""


class PrecisionDiagnosticWarning(UserWarning):
    """Non-fatal diagnostic about precision-limited output."""
