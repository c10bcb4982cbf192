"""Exception hierarchy shared by all finsum engines."""

from __future__ import annotations


class FinsumError(Exception):
    """Base class for every error this package raises deliberately."""


class EvaluationError(FinsumError):
    """A term or integrand came out non-finite (or failed to evaluate).

    ``at`` names the offending index or abscissa when known.
    """

    def __init__(self, message: str, *, at=None):
        if at is not None:
            message = f"{message} (at {at!r})"
        super().__init__(message)
        self.at = at


class DomainError(FinsumError):
    """A parameter lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """An evaluation point landed on (or within 1e-12 |z|, and 1e-3, of) a
    pole z of a kernel; ``pole`` is that z when known."""

    def __init__(self, message: str, *, pole=None):
        if pole is not None:
            message = f"{message} (pole at {pole!r})"
        super().__init__(message)
        self.pole = pole


class PreconditionError(FinsumError):
    """A structural precondition was violated (e.g. odd N with an alternating variant)."""


class CapabilityError(FinsumError):
    """The request is well-formed but outside what this routine can do."""


class RecognitionError(CapabilityError):
    """The summand has no decomposition into transformable terms, or a term
    has no entry in the catalog of the route that asked."""


class ParseError(FinsumError):
    """Syntax error in an input expression.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        hint = f" at offset {offset}"
        if expected:
            hint += f"; expected one of: {', '.join(sorted(expected))}"
        super().__init__(message + hint)
        self.offset = offset
        self.expected = frozenset(expected)


class ConditioningWarning(UserWarning):
    """Evaluation is legal but badly conditioned (e.g. trig angle near 0 or 2*pi)."""
