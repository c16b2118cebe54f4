"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible shapes; ``key`` names a model's rejected field."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision (condition estimate too large)."""


class InfeasibleError(ValueError):
    """A stability condition required by the requested quantity does not hold."""


class DivergenceError(RuntimeError):
    """An iterate became non-finite or exceeded the divergence guard.

    Carries the iteration index of the first offending value, the replication
    that produced it, that replication's last finite iterate ``last_state``
    (at index ``step - 1``), and (when available) the trace prefix collected
    so far.
    """

    def __init__(self, message, step=None, replication=None, trace=None, last_state=None):
        super().__init__(message)
        self.step = step
        self.replication = replication
        self.trace = trace
        self.last_state = last_state


class ConfigError(ValueError):
    """Bad configuration text or an inconsistent experiment setup."""

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key


class DegenerateDataError(ValueError):
    """Input data carries no usable signal (e.g. zero RMS at a checkpoint)."""
