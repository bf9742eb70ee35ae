"""Exception hierarchy shared across the package.

The CLI maps these classes onto distinct exit codes: configuration
problems exit 2, infeasible instances exit 3, integrity violations
(stale tables, off-table states, oracle disagreement) exit 4.
"""


class PacesError(Exception):
    """Base class for all errors raised by this package."""


class ModelError(PacesError):
    """Invalid domain value or mismatched model dimensions."""


class ConfigError(PacesError):
    """Configuration input rejected (schema, units, or cross-field rules)."""


class StateSpaceError(ConfigError):
    """Discretized state space exceeds the configured cap.

    ``count`` and ``cap`` are states unless ``message`` names another
    measure of the instance's size.
    """

    def __init__(self, count: int, cap: int, message: str | None = None):
        super().__init__(
            message
            or f"state explosion: instance enumerates {count} states, cap is {cap}"
        )
        self.count = count
        self.cap = cap


class InfeasibleError(PacesError):
    """No decision trajectory satisfies every constraint.

    ``lambda_hint_w`` carries the smallest privacy bound found feasible by
    a bisection probe, when one was run; it is a diagnostic only.
    """

    def __init__(self, message: str, lambda_hint_w: float | None = None):
        super().__init__(message)
        self.lambda_hint_w = lambda_hint_w


class IntegrityError(PacesError):
    """Artifact inconsistent with the live configuration or table."""
