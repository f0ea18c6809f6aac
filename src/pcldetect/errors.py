"""Shared exception types so callers can tell failure modes apart.

Every type derives from `PcldetectError`, so a caller can catch all library
failures at once, and also from the builtin exception it has always been.
"""


class PcldetectError(Exception):
    """Base class of every error the library raises on purpose."""


class ShapeError(PcldetectError, ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NumericsError(PcldetectError, ValueError):
    """Input values are outside the numeric domain (non-finite logits or scores)."""


class GatherError(PcldetectError, IndexError):
    """Embedding lookup index is outside the table."""


class ContractError(PcldetectError, ValueError):
    """A documented precondition was violated by the caller."""


class TapeReuseError(PcldetectError, RuntimeError):
    """A gradient tape was asked to run backward a second time."""


class ConfigError(PcldetectError, ValueError):
    """Invalid configuration value or combination."""


class ParseError(PcldetectError, ValueError):
    """Malformed input file content."""


class StratificationError(PcldetectError, ValueError):
    """Stratified splitting is impossible for the given label counts."""


class DegenerateDistributionError(PcldetectError, ValueError):
    """A class-ratio computation received a single-class label set."""


class TrainingDivergedError(PcldetectError, RuntimeError):
    """Training produced a non-finite loss; carries diagnostics in the message."""


class HelperError(PcldetectError, RuntimeError):
    """A forked helper process ended before it finished the work handed to it."""
