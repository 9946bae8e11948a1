"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError -> 3.
"""


class TrendgatError(Exception):
    """Base class for all package errors."""


class ConfigError(TrendgatError):
    """Invalid configuration value, unknown key, or out-of-range setting."""


class DataError(TrendgatError):
    """Problem with input data files or their contents."""


class ParseError(DataError):
    """Unparsable row; carries file and line number in the message."""


class InsufficientDataError(DataError):
    """Fewer usable trading days than the operation requires."""


class FormatError(DataError):
    """Unreadable, corrupt, truncated or unsupported model checkpoint.  For a
    bad magic, a format version other than 2, a CRC32 mismatch, or a header
    that is not UTF-8 JSON or disagrees with the payload, the message
    includes a byte offset."""


class NumericError(TrendgatError):
    """Non-finite value where a finite one is required."""


class ShapeError(TrendgatError):
    """Incompatible matrix shapes; message names the operation and shapes."""


class DegenerateRowError(TrendgatError):
    """A graph row with no edge, so its attention softmax has no position."""


class LabelError(TrendgatError):
    """Label matrix rows are not one-hot per trend block."""


class TapeError(TrendgatError):
    """Backward called twice on one recording, or on a non-scalar."""


class TrainingDivergedError(NumericError):
    """Training loss became non-finite; carries history up to the last finite epoch."""

    def __init__(self, message: str, history: list | None = None):
        super().__init__(message)
        self.history = history or []
