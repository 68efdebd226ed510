"""Regex-driven lexer for MiniC.

Handles ``//`` and ``/* */`` comments, decimal/hex/octal/binary integer
literals with optional ``u``/``U`` suffix, character literals with the
usual escapes, and string literals.  One master pattern with a named
group per token class scans the source in a single left-to-right pass;
the last alternatives catch what no token matches, so every lexical
error is a :class:`CompileError` at its line and column.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import CompileError
from repro.cc.tokens import KEYWORDS, PUNCTUATORS, Token, TokenType

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0",
    "\\": "\\", "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f",
    "v": "\v",
}

#: the lookahead makes a ``\x`` run take every hex digit, so a literal
#: parses one way only and a failed match backtracks in linear time
_ESCAPE = r"\\(?:x[0-9a-fA-F]+(?![0-9a-fA-F])|[ntr0\\'\"abfv])"
#: one character of a literal's body: an escape or anything but ``\``
_CHAR_BODY = re.compile(rf"{_ESCAPE}|[^\\]")
#: a string literal's body up to its closing quote or first bad escape
_STRING_BODY = re.compile(rf"(?:[^\"\\]|{_ESCAPE})*")
_ESCAPE_RE = re.compile(r"\\(x[0-9a-fA-F]+|.)", re.DOTALL)

_TOKEN_RE = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<comment>//[^\n]*|/\*.*?\*/)",
    r"(?P<open_comment>/\*)",
    r"(?P<ident>[^\W\d]\w*)",
    r"(?P<number>(?:0[xX][0-9a-fA-F]*|0[bB][01]*|\d+)[uUlL]*)",
    rf"(?P<char>'(?:{_CHAR_BODY.pattern})')",
    rf"(?P<string>\"{_STRING_BODY.pattern}\")",
    r"(?P<bad_literal>['\"])",
    "(?P<punct>" + "|".join(map(re.escape, PUNCTUATORS)) + ")",
    r"(?P<stray>.)",
]), re.DOTALL)


def _escape(match: re.Match) -> str:
    body = match.group(1)
    if body[0] == "x":
        return chr(int(body[1:], 16) & 0xFF)
    return _ESCAPES[body]


def _number_value(text: str) -> int:
    """The value of an integer literal's text, or ``ValueError``."""
    body = text.rstrip("uUlL")
    if body[:2] in ("0x", "0X"):
        return int(body[2:], 16)
    if body[:2] in ("0b", "0B"):
        return int(body[2:], 2)
    return int(body, 8 if len(body) > 1 and body[0] == "0" else 10)


class _Lexer:
    def __init__(self, source: str, filename: str = "<minic>"):
        self.source = source
        self.filename = filename

    def _error_at(self, message: str, offset: int) -> CompileError:
        """An error at ``offset``, with its (line, col) counted out."""
        line = self.source.count("\n", 0, offset) + 1
        col = offset - self.source.rfind("\n", 0, offset)
        return CompileError(message, line, col, self.filename)

    def _bad_literal(self, start: int) -> CompileError:
        """Why the char or string literal opening at ``start`` did not
        match: a bad escape, or a missing closing quote."""
        source = self.source
        if source[start] == "'":
            body = _CHAR_BODY.match(source, start + 1)
            if body:
                return self._error_at("unterminated char literal",
                                      body.end())
            kind, end = "char", start + 1
        else:
            kind = "string"
            end = _STRING_BODY.match(source, start + 1).end()
        if source.startswith("\\", end):
            if source.startswith("x", end + 1):
                return self._error_at("bad \\x escape", end + 2)
            return self._error_at(
                f"unknown escape \\{source[end + 1:end + 2]}", end + 1)
        return self._error_at(f"unterminated {kind} literal", end)

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        append = tokens.append
        filename = self.filename
        line, line_start = 1, 0
        for match in _TOKEN_RE.finditer(self.source):
            kind = match.lastgroup
            text = match.group()
            start = match.start()
            col = start - line_start + 1
            if kind == "ident":
                if not (text[0].isalpha() or text[0] == "_"):
                    raise self._error_at(
                        f"stray character {text[0]!r}", start)
                append(Token(TokenType.KEYWORD if text in KEYWORDS
                             else TokenType.IDENT, text, line, col))
            elif kind == "punct":
                append(Token(TokenType.PUNCT, text, line, col))
            elif kind == "number":
                try:
                    value = _number_value(text)
                except ValueError:
                    raise CompileError(
                        f"malformed integer literal {text}", line, col,
                        filename) from None
                if value > 0xFFFF:
                    raise CompileError(
                        f"integer literal {text} exceeds 16 bits", line,
                        col, filename)
                append(Token(TokenType.NUMBER, text, line, col, value))
            elif kind == "char":
                char = _ESCAPE_RE.sub(_escape, text[1:-1])
                append(Token(TokenType.CHAR, f"'{char}'", line, col,
                             ord(char) & 0xFF))
            elif kind == "string":
                append(Token(TokenType.STRING,
                             _ESCAPE_RE.sub(_escape, text[1:-1]),
                             line, col))
            elif kind == "open_comment":
                raise CompileError("unterminated comment", line, 0,
                                   filename)
            elif kind == "bad_literal":
                raise self._bad_literal(start)
            elif kind == "stray":
                raise CompileError(f"stray character {text!r}", line, col,
                                   filename)
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        append(Token(TokenType.EOF, "", line,
                     len(self.source) - line_start + 1))
        return tokens


def tokenize(source: str, filename: str = "<minic>") -> List[Token]:
    return _Lexer(source, filename).tokenize()
