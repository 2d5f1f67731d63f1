"""Diagnostics for the C frontend."""

from __future__ import annotations

from .source import Location


class CFrontError(Exception):
    """Base class for all frontend diagnostics."""

    def __init__(self, message: str, location: Location | None = None):
        self.message = message
        self.location = location or Location.unknown()
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.location.is_unknown:
            return self.message
        return f"{self.location}: {self.message}"


class LexError(CFrontError):
    """A malformed token (unterminated string, bad character, ...)."""


class PreprocessorError(CFrontError):
    """A malformed or unsatisfiable preprocessing directive."""


class ParseError(CFrontError):
    """A syntax error discovered by the parser."""
