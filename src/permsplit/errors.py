"""Exception types shared across the package."""


class PreconditionError(ValueError):
    """An operation was called on inputs that violate its stated precondition."""


class VerificationError(RuntimeError):
    """A construction failed the runtime check of a guarantee it must satisfy."""

