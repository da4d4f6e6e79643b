"""Tokenizer for the HDL subset.

`<=` is emitted as a single LE token; the parser disambiguates non-blocking
assignment from less-or-equal by context, as any Verilog front end must.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

from .errors import ParseError, UnsupportedConstruct


class T(Enum):
    MODULE = auto()
    ENDMODULE = auto()
    INPUT = auto()
    OUTPUT = auto()
    WIRE = auto()
    REG = auto()
    ASSIGN = auto()
    ALWAYS = auto()
    POSEDGE = auto()
    IF = auto()
    ELSE = auto()
    CASE = auto()
    ENDCASE = auto()
    DEFAULT = auto()
    BEGIN = auto()
    END = auto()
    IDENT = auto()
    NUMBER = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    SEMI = auto()
    COLON = auto()
    COMMA = auto()
    DOT = auto()
    AT = auto()
    STAR = auto()
    QUESTION = auto()
    EQ = auto()        # =
    OP = auto()        # any operator from the subset's expression grammar
    LE = auto()        # <= (comparison or non-blocking assign)
    EOF = auto()


_KEYWORDS = {
    "module": T.MODULE,
    "endmodule": T.ENDMODULE,
    "input": T.INPUT,
    "output": T.OUTPUT,
    "wire": T.WIRE,
    "reg": T.REG,
    "assign": T.ASSIGN,
    "always": T.ALWAYS,
    "posedge": T.POSEDGE,
    "if": T.IF,
    "else": T.ELSE,
    "case": T.CASE,
    "endcase": T.ENDCASE,
    "default": T.DEFAULT,
    "begin": T.BEGIN,
    "end": T.END,
}

_REJECTED_KEYWORDS = {
    "parameter", "localparam", "generate", "endgenerate", "genvar",
    "negedge", "inout", "tri", "integer", "function", "endfunction",
    "task", "endtask", "initial", "for", "while", "casex", "casez",
    "signed", "logic",
}

# Longest-match operator table; '=' and '<=' are carved out as distinct
# token kinds because they double as assignment syntax.
_TWO_CHAR_OPS = {"==", "!=", ">=", "&&", "||", "<<", ">>"}
_ONE_CHAR_OPS = {"<", ">", "+", "-", "&", "|", "^", "~", "!"}


@dataclass(frozen=True)
class Token:
    kind: T
    text: str
    line: int
    col: int


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def error(message: str) -> ParseError:
        return ParseError(message, file, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise error("unterminated block comment")
            for c in text[i:end + 2]:
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue

        start_line, start_col = line, col

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _REJECTED_KEYWORDS:
                raise UnsupportedConstruct(
                    f"construct {word!r} is outside the supported HDL subset",
                    file, line, col,
                )
            kind = _KEYWORDS.get(word, T.IDENT)
            tokens.append(Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue

        if ch.isdigit() or (ch == "'" and i + 1 < n):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "'_"):
                j += 1
            tokens.append(Token(T.NUMBER, text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue

        two = text[i:i + 2]
        if two == "<=":
            tokens.append(Token(T.LE, two, start_line, start_col))
            i += 2
            col += 2
            continue
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(T.OP, two, start_line, start_col))
            i += 2
            col += 2
            continue

        single = {
            "(": T.LPAREN, ")": T.RPAREN, "[": T.LBRACKET, "]": T.RBRACKET,
            ";": T.SEMI, ":": T.COLON, ",": T.COMMA, ".": T.DOT,
            "@": T.AT, "*": T.STAR, "?": T.QUESTION, "=": T.EQ,
        }
        if ch in single:
            tokens.append(Token(single[ch], ch, start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(T.OP, ch, start_line, start_col))
            i += 1
            col += 1
            continue

        raise error(f"unexpected character {ch!r}")

    tokens.append(Token(T.EOF, "", line, col))
    return tokens


def _is_decimal(text: str) -> bool:
    # str.isdigit alone also accepts digits that int() rejects, such as "²".
    return text.isascii() and text.isdigit()


def parse_number(tok: Token, file: str) -> tuple[int, int, bool]:
    """Resolve a literal token to (value, width, sized).

    Accepts decimal (42), and sized binary/decimal/hex (4'b1010, 16'd9,
    8'hFF). Unsized literals default to width 32.
    """
    raw = tok.text.replace("_", "")
    if "'" not in raw:
        if not _is_decimal(raw):
            raise ParseError(f"malformed literal {tok.text!r}", file, tok.line, tok.col)
        return int(raw), 32, False
    size_str, rest = raw.split("'", 1)
    if not rest:
        raise ParseError(f"malformed literal {tok.text!r}", file, tok.line, tok.col)
    base_char = rest[0].lower()
    digits = rest[1:]
    bases = {"b": 2, "d": 10, "h": 16}
    if base_char not in bases:
        raise ParseError(
            f"unsupported literal base {base_char!r} in {tok.text!r}",
            file, tok.line, tok.col,
        )
    if not _is_decimal(size_str) or not digits:
        raise ParseError(f"malformed literal {tok.text!r}", file, tok.line, tok.col)
    width = int(size_str)
    try:
        value = int(digits, bases[base_char])
    except ValueError:
        raise ParseError(f"bad digits in literal {tok.text!r}", file, tok.line, tok.col)
    if width < 1:
        raise ParseError(f"literal width must be >= 1: {tok.text!r}", file, tok.line, tok.col)
    if value >= (1 << width):
        raise ParseError(
            f"literal value {value} does not fit in {width} bits", file, tok.line, tok.col
        )
    return value, width, True
