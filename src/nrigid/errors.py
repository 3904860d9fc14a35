"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible or unexpected shapes."""


class OutOfRangeError(ValueError):
    """A numeric input lies outside the admissible range of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solver did not reach its tolerance.

    Attributes:
        best: best iterate found so far, when the solver tracks one.
        reason: short tag, one of "max_iter" (iteration budget exhausted),
            "line_search" (the line search stalled with no restart left) or
            "fixed_point" (an implicit midpoint step did not converge).
        step_index: the integration step that failed, for "fixed_point".
    """

    def __init__(self, message, best=None, reason="max_iter", step_index=None):
        super().__init__(message)
        self.best = best
        self.reason = reason
        self.step_index = step_index


class DivergenceError(RuntimeError):
    """Time integration produced a non-finite state."""

    def __init__(self, message, step_index):
        super().__init__(message)
        self.step_index = step_index


class RankLossError(RuntimeError):
    """A phase-space state left the set of full-rank matrices."""

    def __init__(self, message, step_index=None, min_singular_value=None):
        super().__init__(message)
        self.step_index = step_index
        self.min_singular_value = min_singular_value


class LevelSetError(ValueError):
    """Two phase points do not lie on a common momentum level set."""


class CertificationError(RuntimeError):
    """A constructed object failed its numerical certification check."""
