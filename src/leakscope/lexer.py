"""Tokenizer for the HDL subset.

`scan` is a generator: it yields each token as it is scanned, and the parser
pulls the next one only when it needs it, so a file's tokens die young
instead of all living until its parse ends. A scan error is raised when the
scan reaches it; the parser's entry points drain the rest of the scan
before they report an error of their own, so the first scan error in the
text still wins, as when the whole text was scanned first. `tokenize` is
`list(scan(...))`.

`<=` is emitted as a single LE token; the parser disambiguates non-blocking
assignment from less-or-equal by context, as any Verilog front end must.
"""

from __future__ import annotations

import re
from enum import Enum, auto
from typing import Iterator, NamedTuple

from .errors import ParseError, UnsupportedConstruct
from .hdl_ast import BINARY_PRECEDENCE, PREFIX_OPS


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


# Every kind bound to a module-level name of its own, for the scanner and the
# parser. On CPython 3.11 `EnumType` defines `__getattr__`, so each `T.X`
# read costs about 100 ns, against under 10 ns for a global.
(
    MODULE, ENDMODULE, INPUT, OUTPUT, WIRE, REG, ASSIGN, ALWAYS, POSEDGE, IF,
    ELSE, CASE, ENDCASE, DEFAULT, BEGIN, END, IDENT, NUMBER, LPAREN, RPAREN,
    LBRACKET, RBRACKET, SEMI, COLON, COMMA, DOT, AT, STAR, QUESTION, EQ, OP, LE,
    EOF,
) = T


_KEYWORDS = {
    "module": MODULE,
    "endmodule": ENDMODULE,
    "input": INPUT,
    "output": OUTPUT,
    "wire": WIRE,
    "reg": REG,
    "assign": ASSIGN,
    "always": ALWAYS,
    "posedge": POSEDGE,
    "if": IF,
    "else": ELSE,
    "case": CASE,
    "endcase": ENDCASE,
    "default": DEFAULT,
    "begin": BEGIN,
    "end": END,
}

_REJECTED_KEYWORDS = {
    "parameter", "localparam", "generate", "endgenerate", "genvar",
    "negedge", "inout", "tri", "integer", "function", "endfunction",
    "task", "endtask", "initial", "for", "while", "casex", "casez",
    "signed", "logic",
}

_PUNCT = {
    "(": LPAREN, ")": RPAREN, "[": LBRACKET, "]": RBRACKET,
    ";": SEMI, ":": COLON, ",": COMMA, ".": DOT,
    "@": AT, "*": STAR, "?": QUESTION, "=": EQ,
}

# Every operator of the expression table, longest first.
_OPERATORS = sorted(BINARY_PRECEDENCE.keys() | PREFIX_OPS, key=lambda op: (-len(op), op))

# One pattern scans a token and the blanks before it. Only "\n" breaks a
# line; a column counts characters. An identifier starts with a letter or
# "_" and goes on over `str.isalnum` characters, which is what `\w` matches;
# a number starts with a digit, or with a "'" that is not the last
# character, and also takes in "'". A word that starts with a non-ASCII
# character takes the `word` branch, which sorts it by that character.
_SCAN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + r")"
    r"|(?P<punct>[" + re.escape("".join(_PUNCT)) + r"])"  # after "==" and "<="
    r"|(?P<newline>\n[ \t\r\n]*)"
    r"|(?P<number>(?:[0-9]|'(?!\Z))[\w']*)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<word>\w[\w']*)"
    r"|(?P<bad>.|\Z)"
    r")",
    re.DOTALL,
)


class Token(NamedTuple):
    kind: T
    text: str
    line: int
    col: int


def scan(text: str, file: str = "<input>") -> Iterator[Token]:
    """Yield the tokens of `text` one at a time, ending with EOF."""
    token = tuple.__new__  # half the cost of the namedtuple's own __new__
    match = _SCAN.match
    pos = 0
    line = 1
    line_start = 0  # index of the first character of the current line
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = m.start(kind)
        pos = m.end()
        col = start - line_start + 1
        if kind == "word":
            first = text[start]
            if first.isdigit():
                kind = "number"
            elif first.isalpha() or first == "_":
                # An identifier stops short of a "'"; the scan resumes there.
                kind = "ident"
                pos = start + len(m.group("word").split("'", 1)[0])
            else:
                kind = "bad"
        if kind == "ident":
            word = text[start:pos]
            if word in _REJECTED_KEYWORDS:
                raise UnsupportedConstruct(
                    f"construct {word!r} is outside the supported HDL subset",
                    file, line, col,
                )
            yield token(Token, (_KEYWORDS.get(word, IDENT), word, line, col))
        elif kind == "op":
            op = text[start:pos]
            yield token(Token, (LE if op == "<=" else OP, op, line, col))
        elif kind == "punct":
            yield token(Token, (_PUNCT[text[start]], text[start], line, col))
        elif kind == "number":
            yield token(Token, (NUMBER, text[start:pos], line, col))
        elif kind == "comment":
            if pos == len(text):
                pos = start  # the column stays where the comment began
                break
        elif kind == "newline" or kind == "block":
            if kind == "block":
                end = text.find("*/", pos)
                if end < 0:
                    raise ParseError("unterminated block comment", file, line, col)
                pos = end + 2
            breaks = text.count("\n", start, pos)
            if breaks:
                line += breaks
                line_start = text.rindex("\n", start, pos) + 1
        elif start == len(text):
            break
        else:
            raise ParseError(f"unexpected character {text[start]!r}", file, line, col)

    yield token(Token, (EOF, "", line, pos - line_start + 1))


def tokenize(text: str, file: str = "<input>") -> list[Token]:
    return list(scan(text, file))


_BASES = {"b": 2, "d": 10, "h": 16}


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
    if base_char not in _BASES:
        raise ParseError(
            f"unsupported literal base {base_char!r} in {tok.text!r}",
            file, tok.line, tok.col,
        )
    if not _is_decimal(size_str) or not digits:
        raise ParseError(f"malformed literal {tok.text!r}", file, tok.line, tok.col)
    width = int(size_str)
    try:
        value = int(digits, _BASES[base_char])
    except ValueError:
        raise ParseError(f"bad digits in literal {tok.text!r}", file, tok.line, tok.col)
    if width < 1:
        raise ParseError(f"literal width must be >= 1: {tok.text!r}", file, tok.line, tok.col)
    if value >= (1 << width):
        raise ParseError(
            f"literal value {value} does not fit in {width} bits", file, tok.line, tok.col
        )
    return value, width, True
