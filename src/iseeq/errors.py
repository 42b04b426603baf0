"""Exception hierarchy shared across the package.

``DataError`` covers anything wrong with user-supplied files or records
(the CLI maps it to exit code 2). Plain ``ValueError`` is reserved for
out-of-range arguments and other caller errors; the CLI maps every one
to exit code 1, as it does a usage error. Any other ``IseeqError``
exits 3.
"""


class IseeqError(Exception):
    """Base class for package-specific failures."""


class DataError(IseeqError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """A record in an input file failed to parse."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class EmptyInputError(DataError):
    """An input that must be non-empty (graph, document, store) was empty."""
