"""Source text handling and source locations.

Every token, AST node, primitive assignment and dependence-chain step in the
system carries a :class:`Location` so results can be rendered in the
``object <file:line>`` style the paper uses (Figure 1).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class Location:
    """A position in a source file (1-based line and column).

    A value: equal and hashed by its fields.  Not frozen, because a frozen
    dataclass pays one ``object.__setattr__`` per field on every build and
    the lexer builds one per token; but nothing assigns to a field, and
    nothing may: one location is shared by many holders (the object-file
    reader gives all the rows and objects of one (file, line) the same
    one, and a macro expansion gives its tokens the invocation's).
    """

    filename: str
    line: int
    column: int = 0

    #: Sentinel used for synthesised constructs (compiler temporaries,
    #: standardized function-argument variables, linker-created records).
    @staticmethod
    def unknown() -> "Location":
        return _UNKNOWN

    @property
    def is_unknown(self) -> bool:
        return self.filename == "<unknown>"

    def __str__(self) -> str:
        if self.is_unknown:
            return "<unknown>"
        if self.column:
            return f"{self.filename}:{self.line}:{self.column}"
        return f"{self.filename}:{self.line}"

    def brief(self) -> str:
        """Render as ``<file:line>`` like the paper's dependence chains."""
        if self.is_unknown:
            return "<unknown>"
        return f"<{self.filename}:{self.line}>"


_UNKNOWN = Location("<unknown>", 0, 0)


class SourceFile:
    """An in-memory source file with offset -> line/column translation."""

    def __init__(self, filename: str, text: str):
        self.filename = filename
        self.text = text
        # Offsets of the first character of every line; binary-searched by
        # location_at().  Built lazily since the preprocessor rarely needs it.
        self._line_starts: list[int] | None = None

    def _ensure_line_starts(self) -> list[int]:
        if self._line_starts is None:
            starts = [0]
            find = self.text.find
            i = find("\n")
            while i != -1:
                starts.append(i + 1)
                i = find("\n", i + 1)
            self._line_starts = starts
        return self._line_starts

    def location_at(self, offset: int) -> Location:
        """Translate a character offset into a :class:`Location`."""
        starts = self._ensure_line_starts()
        line = bisect.bisect_right(starts, offset)
        column = offset - starts[line - 1] + 1
        return Location(self.filename, line, column)

    def line_text(self, line: int) -> str:
        """Return the text of a 1-based line (without trailing newline)."""
        starts = self._ensure_line_starts()
        if not 1 <= line <= len(starts):
            return ""
        begin = starts[line - 1]
        end = starts[line] - 1 if line < len(starts) else len(self.text)
        return self.text[begin:end].rstrip("\n")


def count_source_lines(text: str) -> int:
    """Count uncommented, non-blank source lines.

    This is the paper's LOC metric for Table 2: "uncommented non-blank lines
    of source, before pre-processing".  Lines holding only comment text or
    whitespace do not count; a line with both code and a comment counts once.
    A string or character literal is code, whatever it holds: ``"/*"``
    opens no comment.
    """
    count = 0
    in_block_comment = False
    for line in text.splitlines():
        if not in_block_comment and "/" not in line:
            # No comment starts, ends or continues here.
            if line and not line.isspace():
                count += 1
            continue
        significant = False
        i = 0
        n = len(line)
        while i < n:
            if in_block_comment:
                end = line.find("*/", i)
                if end == -1:
                    break
                in_block_comment = False
                i = end + 2
                continue
            ch = line[i]
            if ch == "/" and line.startswith("*", i + 1):
                in_block_comment = True
                i += 2
            elif ch == "/" and line.startswith("/", i + 1):
                break  # rest of line is a // comment
            elif ch == '"' or ch == "'":
                significant = True
                i = _literal_end(line, i)
            else:
                if not ch.isspace():
                    significant = True
                i += 1
        if significant:
            count += 1
    return count


def _literal_end(line: str, start: int) -> int:
    """The offset just past the literal opening at ``line[start]``, or the
    line's end if it is not closed on that line."""
    quote = line[start]
    i = start + 1
    n = len(line)
    while i < n:
        ch = line[i]
        if ch == "\\":
            i += 2
        elif ch == quote:
            return i + 1
        else:
            i += 1
    return n
