"""Exception types shared across the library."""


class DomainError(ValueError):
    """An operation was called outside its mathematical domain."""


class RingMismatchError(DomainError):
    """Operands belong to different rings."""


class NotACoverError(DomainError):
    """The given family does not cover the requested basic open set."""


class NotASectionError(DomainError):
    """The given local data fails section validation."""


class OutOfDomainError(DomainError):
    """A prime lies outside the domain of the section."""


class InternalError(AssertionError):
    """A broken invariant of the library itself, never a fault of the input."""


class InputError(ValueError):
    """Malformed input beyond syntax: a bad option value, or a certificate
    document with a missing or mistyped field."""


class ParseError(ValueError):
    """Syntax error in a polynomial or ring expression."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column
