"""Exception types shared across the package.

The split mirrors how callers need to react: bad inputs (DomainError),
a computation that would exceed a stated resource budget (BudgetError),
and numerical machinery that failed to converge (NumericsError and its
subclasses). The CLI maps these onto distinct exit codes. The
amplitude check (_check_rho) and the moment-order check (_check_q1)
live here too, so that every module raises the same DomainError for a
bad rho and for a q that a q = 1 solver would ignore.
"""
import math

__all__ = [
    "DomainError",
    "BudgetError",
    "NumericsError",
    "AccuracyError",
    "EvaluationError",
]


class DomainError(ValueError):
    """An argument is outside the documented domain of an operation."""


def _check_rho(rho):
    """DomainError unless the amplitude rho is a positive finite real."""
    if not (rho > 0 and math.isfinite(rho)):
        raise DomainError("rho must be a positive finite real")


def _check_q1(params):
    """DomainError unless params.q is 1, for the functions that solve the
    plain growth rate only; lyapunov_q handles every q."""
    if params.q != 1:
        raise DomainError(
            "this function solves q = 1 only; use lyapunov_q for q = %d" % params.q
        )


class BudgetError(RuntimeError):
    """The requested computation exceeds a hard resource budget."""


class NumericsError(RuntimeError):
    """A numerical routine failed to converge or lost its bracket.

    A solver that lets one escape records where: ``stage`` names the
    step, ``rho``, ``beta`` and ``q`` the model point (``beta`` is None
    for a step that runs before any beta is chosen), and the message
    leads with them (with ``q`` only where it is not 1). A batched
    evaluation that fails at one of its elements records that element's
    position as ``index``.
    """

    stage = None
    rho = None
    beta = None
    q = None
    index = None


class AccuracyError(NumericsError):
    """The boundary kernel's 15-point Gauss-Kronrod rule and its embedded
    7-point Gauss check disagree by more than 1e-6 relative.

    Carries the Kronrod value as the best available estimate and the
    difference of the two rules as its error bound, so callers can
    decide whether the partial answer is still usable.
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


class _stage:
    """Name the solver step and the model point (as plain floats) on a
    NumericsError that leaves the block; an error already named by an
    inner step keeps its name. For a batched step, beta holds one value
    per element, and the error names the one at its index (the first
    where the index is unknown). A class, not a generator, as solvers
    enter one per step."""

    __slots__ = ("name", "rho", "beta", "q")

    def __init__(self, name, rho, beta=None, q=1):
        self.name, self.rho, self.beta, self.q = name, rho, beta, q

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, NumericsError) and exc.stage is None:
            beta = self.beta
            if hasattr(beta, "__len__"):
                beta = beta[exc.index or 0]
            exc.stage, exc.rho, exc.q = self.name, float(self.rho), int(self.q)
            exc.beta = None if beta is None else float(beta)
            point = "rho=%r, beta=%r" % (exc.rho, exc.beta)
            if exc.q != 1:
                point += ", q=%d" % exc.q
            exc.args = ("%s at %s: %s" % (self.name, point, exc),)
        return False
