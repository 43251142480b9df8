"""Exception types shared across the package.

Every error raised for bad user input derives from EntchargeError; the CLI
maps that hierarchy to exit code 2 and anything else to exit code 1.
"""


class EntchargeError(Exception):
    """Base class for input, shape and precondition failures."""


class ValidationError(EntchargeError):
    """An invariant on states, probabilities, ensembles or files is violated."""


class ShapeError(ValidationError):
    """Dimensions of an input do not match what the operation requires."""


class PreconditionError(EntchargeError):
    """A bound or exact formula was requested outside its hypothesis."""


class ParseError(ValidationError):
    """An ensemble file is syntactically or structurally invalid."""
