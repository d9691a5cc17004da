"""Tokenizer for E-SQL text.

E-SQL is SQL's SELECT-FROM-WHERE fragment plus parenthesized evolution
parameter lists (Fig. 2).  The lexer produces a flat token stream with
line/column positions for error reporting; keywords are case-insensitive,
identifiers keep their case.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

from repro.errors import ParseError

KEYWORDS = frozenset(
    {
        "CREATE", "VIEW", "AS", "SELECT", "FROM", "WHERE", "AND",
        "TRUE", "FALSE", "VE", "AD", "AR", "CD", "CR", "RD", "RR",
    }
)

_SYMBOLS = ("<=", ">=", "<>", "==", "(", ")", ",", ".", "<", ">", "=")


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.kind is TokenKind.SYMBOL and self.text in symbols

    def __str__(self) -> str:
        if self.kind is TokenKind.EOF:
            return "<end of input>"
        return self.text


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on bad characters."""
    tokens: list[Token] = []
    line, column = 1, 1
    index, length = 0, len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", index):  # line comment
            while index < length and text[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if char.isdigit() or (
            char in "+-"
            and index + 1 < length
            and text[index + 1].isdigit()
        ):
            end = index + 1
            seen_dot = False
            while end < length and (
                text[end].isdigit() or (text[end] == "." and not seen_dot)
            ):
                # "R.A" style dots follow identifiers, never digits-only
                if text[end] == ".":
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    seen_dot = True
                end += 1
            lexeme = text[index:end]
            advance(end - index)
            tokens.append(Token(TokenKind.NUMBER, lexeme, start_line, start_column))
            continue
        if char.isalpha() or char == "_":
            end = index + 1
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            lexeme = text[index:end]
            advance(end - index)
            kind = (
                TokenKind.KEYWORD
                if lexeme.upper() in KEYWORDS
                else TokenKind.IDENT
            )
            # View texts repeat the same relation and attribute names;
            # interned, every parsed view shares one copy of each.
            canonical = (
                lexeme.upper()
                if kind is TokenKind.KEYWORD
                else sys.intern(lexeme)
            )
            tokens.append(Token(kind, canonical, start_line, start_column))
            continue
        if char in "'\"":
            quote = char
            end = index + 1
            while end < length and text[end] != quote:
                end += 1
            if end >= length:
                raise ParseError("unterminated string literal", start_line, start_column)
            lexeme = text[index + 1 : end]
            advance(end - index + 1)
            tokens.append(Token(TokenKind.STRING, lexeme, start_line, start_column))
            continue
        for symbol in _SYMBOLS:
            if text.startswith(symbol, index):
                advance(len(symbol))
                canonical = "=" if symbol == "==" else symbol
                tokens.append(
                    Token(TokenKind.SYMBOL, canonical, start_line, start_column)
                )
                break
        else:
            raise ParseError(f"unexpected character {char!r}", line, column)

    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens
