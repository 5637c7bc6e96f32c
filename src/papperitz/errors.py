"""Exception types for the solver library; each declares its CLI exit code."""


class PapperitzError(Exception):
    """Base class for all library errors."""

    exit_code = 3


class PointError(PapperitzError):
    """One evaluation point cannot be evaluated."""


class InvalidGamma(PapperitzError):
    """Lower hypergeometric parameter is a nonpositive integer with no
    polynomial escape."""

    exit_code = 2


class NoConvergence(PapperitzError):
    """Series failed to terminate within the term budget."""


class OnBranchCut(PointError):
    """Argument lies on the principal branch cut t in [1, inf)."""


class EvaluationUnreachable(PointError):
    """No argument-reduction strategy covers this point."""

    def __init__(self, t, mod_t, mod_pfaff, mod_1mt):
        self.t = t
        self.mod_t = mod_t
        self.mod_pfaff = mod_pfaff
        self.mod_1mt = mod_1mt
        super().__init__(
            f"no evaluation strategy reaches t={t}: "
            f"|t|={mod_t:.6g}, |t/(t-1)|={mod_pfaff:.6g}, |1-t|={mod_1mt:.6g}"
        )


class PoleAtMinusI(PointError):
    """z is at (or numerically on top of) the singular point z = -i."""


class MapOverflow(PointError):
    """z is so large that the jets of the forward map overflow."""


class ZeroBaseNonpositiveExponent(PointError):
    """0**e requested with Re e <= 0."""


class DegenerateBasis(PapperitzError):
    """Requested basis member does not exist for these parameters."""

    exit_code = 2


class DegenerateWronskian(PapperitzError):
    """Basis members are (numerically) dependent; IVP fit impossible."""

    exit_code = 2


class StepLimitExceeded(PapperitzError):
    """Adaptive integrator hit its step budget."""


class PathTooCloseToSingularity(PapperitzError):
    """An integration segment passes too close to z = +i or z = -i."""


class NonFinitePath(PapperitzError):
    """A path has a waypoint that is not finite or lies beyond |z| = 1e77,
    where the equation's coefficient (1 + z^2)^2 overflows."""


class NonFiniteParameters(PapperitzError):
    """A parameter derived from (a, b, c) overflowed to an infinity or NaN."""


class NonFiniteSolution(PapperitzError):
    """The integrated solution overflowed to an infinity or NaN."""
