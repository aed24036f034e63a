"""Exception hierarchy shared by all mpckit modules."""


class MpcError(Exception):
    """Base class for all mpckit errors."""


class ShapeError(MpcError, ValueError):
    """Incompatible matrix/vector dimensions."""


class NonFiniteError(MpcError, ValueError):
    """NaN or infinite entry where the solver needs finite numbers."""


class SingularMatrixError(MpcError):
    """Matrix singular to working precision (or zero where rank is required)."""


class InvalidHorizonError(MpcError, ValueError):
    """Horizon outside the allowed range (N >= 1, 1 <= N_C <= N, N <= N_T)."""


class InvalidWeightError(MpcError, ValueError):
    """Weight matrix fails symmetry or definiteness requirements."""


class SteadyStateError(MpcError):
    """No steady-state input found for the requested reference.

    Carries the final residual norm in ``residual``.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ReferenceInfeasibleError(MpcError):
    """Reference state or its steady input violates the constraint sets."""


class InfeasibleStepError(MpcError):
    """The per-step optimization was infeasible at the current state.

    Carries the offending state in ``state``, the step index in ``step``
    and, when raised from a closed-loop run, the partial ``trajectory``.
    """

    def __init__(self, message, state=None, step=None, trajectory=None):
        super().__init__(message)
        self.state = state
        self.step = step
        self.trajectory = trajectory


class ConfigError(MpcError, ValueError):
    """Experiment configuration failed to parse or validate."""
