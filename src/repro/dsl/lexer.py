"""Tokenizer for the textual Darkroom-like DSL.

The surface syntax follows the fragment shown in Sec. 4 of the paper::

    input K0;
    K1 = im(x,y) K0(x-1,y-1) + K0(x,y-1) + ... end
    output K2 = im(x,y) K0(x,y) + K1(x+1,y+1) end
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DSLSyntaxError

KEYWORDS = {"input", "output", "im", "end"}

_SYMBOLS = (
    "<=",
    ">=",
    "==",
    "!=",
    "(",
    ")",
    ",",
    ";",
    "=",
    "+",
    "-",
    "*",
    "/",
    "<",
    ">",
)


@dataclass(frozen=True)
class Token:
    """A single lexical token with source position (1-based)."""

    kind: str  # 'name', 'number', 'keyword', 'symbol', 'eof'
    value: str
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind}, {self.value!r}, {self.line}:{self.column})"


def tokenize(source: str) -> list[Token]:
    """Convert DSL source text into a token list terminated by an EOF token."""
    tokens: list[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]

        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue
        if source.startswith("/*", index):
            end = source.find("*/", index + 2)
            if end == -1:
                raise DSLSyntaxError("Unterminated block comment", line, column)
            skipped = source[index : end + 2]
            line += skipped.count("\n")
            column = 1 if "\n" in skipped else column + len(skipped)
            index = end + 2
            continue

        if char.isdigit() or (char == "." and index + 1 < length and source[index + 1].isdigit()):
            start = index
            start_col = column
            seen_dot = False
            while index < length and (source[index].isdigit() or (source[index] == "." and not seen_dot)):
                if source[index] == ".":
                    seen_dot = True
                index += 1
                column += 1
            tokens.append(Token("number", source[start:index], line, start_col))
            continue

        if char.isalpha() or char == "_":
            start = index
            start_col = column
            while index < length and (source[index].isalnum() or source[index] == "_"):
                index += 1
                column += 1
            word = source[start:index]
            kind = "keyword" if word in KEYWORDS else "name"
            tokens.append(Token(kind, word, line, start_col))
            continue

        matched = False
        for symbol in _SYMBOLS:
            if source.startswith(symbol, index):
                # A lone '/' followed by '/' would be a comment, handled above.
                tokens.append(Token("symbol", symbol, line, column))
                index += len(symbol)
                column += len(symbol)
                matched = True
                break
        if matched:
            continue

        if source.startswith("...", index):
            raise DSLSyntaxError(
                "The ellipsis in the paper's listing is informal; spell out every term",
                line,
                column,
            )
        raise DSLSyntaxError(f"Unexpected character {char!r}", line, column)

    tokens.append(Token("eof", "", line, column))
    return tokens
