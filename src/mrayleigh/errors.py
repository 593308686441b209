"""Exception types shared across the package."""


class MrayleighError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(MrayleighError):
    """Arguments disagree on the number of time variables."""


class DegenerateA(MrayleighError):
    """The reduced leading coefficient a(z) vanishes at a probed point."""


class ZeroLeadingSpeed(MrayleighError):
    """Structure synthesis requires a nonzero leading speed lambda_1."""


class WrongVariant(MrayleighError):
    """Operation applied to a structure or coefficient set of the other variant."""


class BadParameters(MrayleighError):
    """Closed-form family parameters violate a sign or nonzero condition."""


class EmptyDomain(MrayleighError):
    """No interval around the anchor satisfies the required positivity."""


class DomainExceeded(MrayleighError):
    """Evaluation point lies outside the validity interval."""


class CompatibilityViolated(MrayleighError):
    """Coefficients fail the compatibility relation (a/d)' = c/d."""


class ConditionViolated(MrayleighError):
    """The index-1 algebraic condition fails at a sampled jet point."""


class NoBracket(MrayleighError):
    """Root finding could not isolate the requested branch."""


class StiffnessFailure(MrayleighError):
    """The adaptive integrator collapsed its step without blowing up."""


class BlowUp(MrayleighError):
    """An integrated state or a series coefficient left the float range."""

    def __init__(self, message, z_reached=None):
        super().__init__(message)
        self.z_reached = z_reached


class CFLViolation(MrayleighError):
    """The method-of-lines time integration failed on the given grid."""
