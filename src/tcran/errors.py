"""Exception hierarchy shared across the package.

Violation classes map one-to-one onto CLI exit codes; see tcran.cli.
"""


class TcranError(Exception):
    """Base class for every error raised by this package."""


class NegativeCredit(TcranError):
    """A subtraction would have produced a negative credit.

    Credits are a conserved nonnegative quantity; going below zero is
    always a bug in the caller, never a representable state.
    """


class ZeroCredit(TcranError):
    """A zero credit was asked to be split into positive shares."""


class AlreadyActive(TcranError):
    """External start requested on a node that is already computing."""


class InsufficientCredit(TcranError):
    """A distribution would leave the sender with nothing retained."""


class NoActivePeer(TcranError):
    """A new chief executive was requested but no candidate is active."""


class NotChiefExecutive(TcranError):
    """A role-addressed message reached a node not holding the role."""


class ParseError(TcranError):
    """Scenario or trace text failed to parse.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(TcranError):
    """A parsed scenario violates a structural invariant."""


class HorizonExceeded(TcranError):
    """The simulation clock passed the configured horizon before quiescence."""


class SafetyViolation(TcranError):
    """A run broke a safety property (conservation, false announcement, ...)."""


class BoundsViolation(TcranError):
    """A per-kind message counter exceeded its complexity bound."""


class ReplayDivergence(TcranError):
    """Re-executing a trace produced different events than recorded."""
