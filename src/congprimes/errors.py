"""Exception types shared across the package."""


class PreconditionViolation(ValueError):
    """An argument violates a documented precondition."""


class NotSplitError(ValueError):
    """The prime does not split completely in the quartic field."""


class GeneratorNotFound(RuntimeError):
    """Lattice search finished without certifying a generator.

    Raised instead of ever returning an unverified element: callers never
    receive a wrong answer.
    """


class BoundExceeded(ValueError):
    """An enumeration oracle was asked to go beyond its configured bound."""


class ComputeFailed(RuntimeError):
    """A certified classification could not be produced for this prime."""
