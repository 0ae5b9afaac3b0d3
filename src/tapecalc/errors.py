"""Shared exception types."""


class TapecalcError(Exception):
    """Base class for all library errors."""


class UnknownSortError(TapecalcError):
    pass


class UnknownGeneratorError(TapecalcError):
    pass


class UnknownOperationError(TapecalcError):
    pass


class TypeCheckError(TapecalcError):
    pass


class DimensionError(TapecalcError):
    pass


class ModelError(TapecalcError):
    pass


class SizeError(TapecalcError):
    """Work refused before it is done, as its size exceeds a fixed bound."""


class ParseError(TapecalcError):
    """Syntax or resolution error with source position."""

    def __init__(self, message, line=None, col=None, expected=None):
        self.line = line
        self.col = col
        self.expected = tuple(sorted(expected)) if expected else ()
        loc = f"{line}:{col}: " if line is not None else ""
        exp = f" (expected one of: {', '.join(self.expected)})" if self.expected else ""
        super().__init__(f"{loc}{message}{exp}")
