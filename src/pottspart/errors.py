"""Exception hierarchy; ``cli.main`` exits with the raised class's ``exit_code``."""


class PottspartError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class PreconditionError(PottspartError):
    """An operation's precondition does not hold (bad input, bad domain)."""

    exit_code = 1


class ParseError(PreconditionError):
    """Malformed graph text; the message names the offending line."""


class VerificationError(PottspartError):
    """A certified quantity failed verification against an exact check."""

    exit_code = 2


class BudgetError(PottspartError):
    """A computation would exceed its enumeration or iteration budget."""

    exit_code = 3
