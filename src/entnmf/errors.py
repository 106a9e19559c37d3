"""Exception types shared across the package.

Two failure categories matter to callers: bad input (rejected before any
numerical work) and numerical breakdown during iteration. The CLI maps them
to exit codes 1 and 2.
"""


class InputError(ValueError):
    """Invalid user input: bad shapes, negative data, malformed files/configs."""


class NumericalError(RuntimeError):
    """Numerical failure during iteration (NaN/Inf, degenerate residuals).

    `iteration` is the 1-based outer iteration at which the failure was
    detected (0 for the starting point), when known. `objective` carries the
    objective values recorded up to the failure so callers can inspect the
    partial trace.
    """

    def __init__(self, message, iteration=None, objective=None):
        super().__init__(message)
        self.iteration = iteration
        self.objective = objective
