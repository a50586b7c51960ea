"""Tokenizer shared by the C and Fortran front ends.

Directive lines (``#pragma omp ...`` / ``!$omp ...``) are captured whole
as PRAGMA tokens; everything else is split into identifiers, numbers,
operators, and punctuation.  Comments are stripped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT NUM OP PUNCT PRAGMA NEWLINE KEYWORD
    text: str
    line: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Token({self.kind}, {self.text!r}, L{self.line})"


class LexError(ValueError):
    pass


_C_KEYWORDS = {"int", "long", "float", "double", "for", "if", "else", "return", "void"}
_F_KEYWORDS = {
    "integer", "real", "do", "end", "if", "then", "else", "program",
    "implicit", "none", "dimension", "parameter", "call", "continue",
}

_OPS = [
    "<<", ">>", "<=", ">=", "==", "!=", "/=", "+=", "-=", "*=", "//",
    "++", "--", "+", "-", "*", "/", "%", "<", ">", "=",
]
_OP_RE = re.compile("|".join(re.escape(o) for o in _OPS))
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
_NUM_RE = re.compile(r"\d+(\.\d+)?")
_PUNCT = set("()[]{};,:")


def _strip_c_comments(src: str) -> str:
    """Drop comments.  A block comment reads as one space, as in C, so a
    directive runs on past a comment that spans lines; the newlines it
    held go back in at the end of the line it ends on, so every later
    line keeps its source line number."""
    out: list[str] = []
    pos = held = 0
    for m in re.finditer(r"/\*.*?\*/", src, flags=re.DOTALL):
        text = src[pos:m.start()]
        if held and "\n" in text:
            text, held = text.replace("\n", "\n" * (held + 1), 1), 0
        out.append(text + " ")
        held += m.group().count("\n")
        pos = m.end()
    tail = src[pos:]
    out.append(tail.replace("\n", "\n" * (held + 1), 1) if "\n" in tail else tail + "\n" * held)
    return re.sub(r"//[^\n]*", "", "".join(out))


def tokenize(src: str, language: str) -> list[Token]:
    """Tokenize ``src``; ``language`` is ``"C/C++"`` or ``"Fortran"``."""
    keywords = _C_KEYWORDS if language == "C/C++" else _F_KEYWORDS
    if language == "C/C++":
        src = _strip_c_comments(src)
    tokens: list[Token] = []
    for lineno, line in enumerate(src.splitlines(), start=1):
        stripped = line.strip()
        if language == "Fortran":
            # Fortran comments: '!' starts a comment unless it is a
            # directive sentinel '!$omp'.
            low = stripped.lower()
            if low.startswith("!$omp"):
                tokens.append(Token("PRAGMA", stripped[5:].strip(), lineno))
                tokens.append(Token("NEWLINE", "", lineno))
                continue
            cut = stripped.find("!")
            if cut >= 0:
                stripped = stripped[:cut].strip()
            if not stripped:
                continue
        else:
            low = stripped.lower()
            if low.startswith("#pragma"):
                body = stripped[len("#pragma"):].strip()
                if not body.lower().startswith("omp"):
                    raise LexError(f"line {lineno}: unsupported pragma {stripped!r}")
                tokens.append(Token("PRAGMA", body[3:].strip(), lineno))
                continue
            if low.startswith("#include") or low.startswith("#define"):
                continue  # harmless preprocessor noise in templates
            if not stripped:
                continue

        pos = 0
        text = stripped
        while pos < len(text):
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _IDENT_RE.match(text, pos)
            if m:
                word = m.group()
                kind = "KEYWORD" if word.lower() in keywords else "IDENT"
                word_out = word.lower() if language == "Fortran" else word
                tokens.append(Token(kind, word_out, lineno))
                pos = m.end()
                continue
            m = _NUM_RE.match(text, pos)
            if m:
                tokens.append(Token("NUM", m.group(), lineno))
                pos = m.end()
                continue
            m = _OP_RE.match(text, pos)
            if m:
                tokens.append(Token("OP", m.group(), lineno))
                pos = m.end()
                continue
            if ch in _PUNCT:
                tokens.append(Token("PUNCT", ch, lineno))
                pos += 1
                continue
            raise LexError(f"line {lineno}: cannot tokenize {text[pos:pos+10]!r}")
        if language == "Fortran":
            tokens.append(Token("NEWLINE", "", lineno))
    return tokens
