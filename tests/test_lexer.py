"""MiniC lexer."""

import signal

import pytest

from repro.errors import CompileError
from repro.cc.lexer import tokenize
from repro.cc.tokens import TokenType


def kinds(source):
    return [t.type for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokens:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("int foo while whilefoo")
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[1].type is TokenType.IDENT
        assert tokens[2].type is TokenType.KEYWORD
        assert tokens[3].type is TokenType.IDENT

    def test_decimal_hex_octal_binary(self):
        tokens = tokenize("10 0x1F 017 0b101")
        assert [t.value for t in tokens[:-1]] == [10, 31, 15, 5]

    def test_unsigned_suffix_accepted(self):
        assert tokenize("42u")[0].value == 42
        assert tokenize("42U")[0].value == 42

    def test_literal_too_big_rejected(self):
        with pytest.raises(CompileError):
            tokenize("70000")

    def test_char_literals(self):
        assert tokenize("'A'")[0].value == 65
        assert tokenize(r"'\n'")[0].value == 10
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_string_literal_with_escapes(self):
        token = tokenize(r'"a\tb"')[0]
        assert token.type is TokenType.STRING
        assert token.text == "a\tb"

    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            tokenize('"oops')

    def test_multichar_punctuators_greedy(self):
        assert texts("a <<= b >> c >= d") == \
            ["a", "<<=", "b", ">>", "c", ">=", "d"]
        assert texts("x->y") == ["x", "->", "y"]
        assert texts("i++ + ++j") == ["i", "++", "+", "++", "j"]

    def test_comments(self):
        assert texts("a // line\n b /* block\nstill */ c") == \
            ["a", "b", "c"]

    def test_unterminated_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* never ends")

    def test_positions_tracked(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].col) == (1, 1)
        assert (tokens[1].line, tokens[1].col) == (2, 3)

    def test_stray_character(self):
        with pytest.raises(CompileError):
            tokenize("a $ b")

    def test_eof_token_present(self):
        assert tokenize("")[-1].type is TokenType.EOF


#: every token kind across tabs, ``//`` comments and a multi-line
#: ``/* */`` comment (a tab is one column)
POSITIONED = ("int\tx = 0x1F;\n"
              "\t// line comment\n"
              "  char c = '\\n'; /* multi\n"
              "   line */ y += 017u;\n"
              "s = \"a\\tb\";\t->\n"
              "/* tail */")


class TestPositions:
    """(line, col) of every token, as the character-at-a-time lexer
    reported them."""

    def test_every_kind_positioned(self):
        got = [(t.type, t.text, t.line, t.col, t.value)
               for t in tokenize(POSITIONED)]
        K, I, N, C, S, P, E = (
            TokenType.KEYWORD, TokenType.IDENT, TokenType.NUMBER,
            TokenType.CHAR, TokenType.STRING, TokenType.PUNCT,
            TokenType.EOF)
        assert got == [
            (K, "int", 1, 1, None), (I, "x", 1, 5, None),
            (P, "=", 1, 7, None), (N, "0x1F", 1, 9, 31),
            (P, ";", 1, 13, None),
            (K, "char", 3, 3, None), (I, "c", 3, 8, None),
            (P, "=", 3, 10, None), (C, "'\n'", 3, 12, 10),
            (P, ";", 3, 16, None),
            (I, "y", 4, 12, None), (P, "+=", 4, 14, None),
            (N, "017u", 4, 17, 15), (P, ";", 4, 21, None),
            (I, "s", 5, 1, None), (P, "=", 5, 3, None),
            (S, "a\tb", 5, 5, None), (P, ";", 5, 11, None),
            (P, "->", 5, 13, None),
            (E, "", 6, 11, None),
        ]

    def test_newline_inside_string_advances_line(self):
        tokens = tokenize('"a\nb" c')
        assert tokens[0].text == "a\nb"
        assert (tokens[1].line, tokens[1].col) == (2, 4)

    def test_eof_after_trailing_newline(self):
        assert (tokenize("a\n")[-1].line, tokenize("a\n")[-1].col) == \
            (2, 1)


def error_of(source):
    with pytest.raises(CompileError) as info:
        tokenize(source)
    return str(info.value), info.value.line, info.value.col


class TestErrorPositions:
    """Each lexical error's message and (line, col)."""

    @pytest.mark.parametrize("source,message,line,col", [
        ("a $ b", "stray character '$'", 1, 3),
        ("x\n  /* never\nends", "unterminated comment", 2, 0),
        ("x = 70000;", "integer literal 70000 exceeds 16 bits", 1, 5),
        ("0x10000", "integer literal 0x10000 exceeds 16 bits", 1, 1),
        ("'\\q'", "unknown escape \\q", 1, 3),
        ('"a\\', "unknown escape \\", 1, 4),
        ("'\\x'", "bad \\x escape", 1, 4),
        ("'a", "unterminated char literal", 1, 3),
        ("'", "unterminated char literal", 1, 2),
        ("'ab'", "unterminated char literal", 1, 3),
        ('\n  "oops', "unterminated string literal", 2, 8),
    ])
    def test_message_and_position(self, source, message, line, col):
        assert error_of(source) == (f"<minic>:{line}:{col}: {message}",
                                    line, col)


class TestLinearTime:
    """A literal that fails to match is rejected in linear time: a run
    of multi-digit ``\\x`` escapes parses one way only, so the scanner
    does not try every split of every escape before it reports."""

    @staticmethod
    def error_within(source, seconds=2.0):
        """``error_of(source)``, failing instead of hanging when the
        scan takes longer than ``seconds``."""
        def expire(signum, frame):
            raise TimeoutError(f"tokenize took over {seconds} s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return error_of(source)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("tail,message,col", [
        ("", "unterminated string literal", 162),
        ("\\q\"", "unknown escape \\q", 163),
    ])
    def test_hex_escapes_then_bad_ending(self, tail, message, col):
        source = '"' + "\\xFF" * 40 + tail
        assert self.error_within(source) == (
            f"<minic>:1:{col}: {message}", 1, col)


class TestMalformedLiterals:
    """A literal with no digits for its base is a CompileError at the
    literal, not a crash."""

    @pytest.mark.parametrize("source,text,line,col", [
        ("0x", "0x", 1, 1),
        ("int a = 0X;", "0X", 1, 9),
        ("\n 0b", "0b", 2, 2),
        ("0b2", "0b", 1, 1),
        ("09", "09", 1, 1),
        ("x = 08u;", "08u", 1, 5),
    ])
    def test_compile_error_at_literal(self, source, text, line, col):
        assert error_of(source) == (
            f"<minic>:{line}:{col}: malformed integer literal {text}",
            line, col)
