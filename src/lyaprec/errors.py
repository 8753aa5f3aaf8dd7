"""Exception types shared across the package.

The split mirrors how callers need to react: bad inputs (DomainError),
a computation that would exceed a stated resource budget (BudgetError),
and numerical machinery that failed to converge (NumericsError and its
subclasses). The CLI maps these onto distinct exit codes.
"""
from contextlib import contextmanager


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


class BudgetError(RuntimeError):
    """The requested computation exceeds a hard resource budget."""


class NumericsError(RuntimeError):
    """A numerical routine failed to converge or lost its bracket.

    A solver that lets one escape records where: ``stage`` names the
    step, ``rho`` and ``beta`` the model point (``beta`` is None for a
    step that runs before any beta is chosen), and the message leads
    with all three.
    """

    stage = None
    rho = None
    beta = None


class AccuracyError(NumericsError):
    """Adaptive quadrature could not meet the requested tolerance.

    Carries the best available estimate and its error bound so callers
    can decide whether the partial answer is still usable.
    """

    def __init__(self, message: str, best_estimate: float, error_bound: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_bound = error_bound


class EvaluationError(NumericsError):
    """A function returned a non-finite value during a scan.

    ``abscissa`` records where the evaluation failed.
    """

    def __init__(self, message: str, abscissa: float):
        super().__init__(message)
        self.abscissa = abscissa


@contextmanager
def _stage(name, rho, beta=None):
    """Name the solver step and the model point (as plain floats) on a
    NumericsError that leaves the block; an error already named by an
    inner step keeps its name."""
    try:
        yield
    except NumericsError as exc:
        if exc.stage is None:
            exc.stage, exc.rho = name, float(rho)
            exc.beta = None if beta is None else float(beta)
            exc.args = ("%s at rho=%r, beta=%r: %s" % (name, exc.rho, exc.beta, exc),)
        raise
