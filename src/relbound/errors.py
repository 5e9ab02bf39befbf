"""Exception types shared across the package."""

from contextlib import contextmanager


class RelboundError(Exception):
    """Base class for all relbound errors."""


class InvalidProfileError(RelboundError):
    """An operational profile violates its invariants."""


class InvalidDatasetError(RelboundError):
    """A measured dataset violates its invariants."""


class InvalidDecompositionError(RelboundError):
    """An error decomposition has a negative or overweight component."""


class InvalidDistributionError(RelboundError):
    """A discrete prior distribution violates its invariants."""


class InvalidCoverageError(RelboundError):
    """Verification coverage lies outside the input domain."""


class InfeasibleConstraintsError(RelboundError):
    """No prior distribution satisfies the stated partial knowledge."""


class ZeroEvidenceError(RelboundError):
    """Every admissible prior assigns zero probability to the observation."""


class SamplingFailureError(RelboundError):
    """Feasible-prior sampling exhausted its retry budget."""


class ParseError(RelboundError):
    """An input document could not be parsed; the message carries position info."""


@contextmanager
def parsing(what: str, at: str | None = None):
    """Turn a malformed document's ``KeyError`` into "<what> missing field
    'x'" and its ``TypeError``, ``ValueError``, ``AttributeError`` or
    ``OverflowError`` (a number too large for a float) into "bad <what>:
    <reason>", after "<at>: " when given (a path or path:line). Every other
    error, ``ParseError`` and the domain errors among them, passes through."""
    prefix = "" if at is None else f"{at}: "
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"{prefix}{what} missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"{prefix}bad {what}: {exc}") from None
