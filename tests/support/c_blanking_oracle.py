"""A character-at-a-time C blanker and brace walker, the parity oracle
for :func:`repro.scan.extractor._c_comment_free` and
:func:`repro.scan.extractor._c_function_spans`.

The blanker is a state machine over normal text, block comments, ``//``
comments, string literals and char literals.  A block comment with no
closing ``*/``, or a literal that meets the end of its line first, is
not one: its opening character stays as it is and the scan resumes
right after it, as in a regex scan that finds no match there."""

from __future__ import annotations

import re

from repro.scan.extractor import _header_line

#: The lazy DOTALL block-comment pattern ``BLOCK_COMMENT_RE`` replaced.
LAZY_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)

NORMAL, BLOCK, LINE, STRING, CHAR = range(5)


def reference_c_comment_free(text: str) -> str:
    """Comments and literals blanked to spaces, newlines kept."""
    out: list[str] = []
    state, start, i, n = NORMAL, 0, 0, len(text)

    def close(end: int) -> int:
        out.append("".join(c if c == "\n" else " " for c in text[start:end]))
        return end

    while True:
        if i >= n:
            if state == LINE:
                close(n)
            elif state != NORMAL:  # unterminated: not a comment or literal
                out.append(text[start])
                state, i = NORMAL, start + 1
                continue
            return "".join(out)
        ch = text[i]
        if state == NORMAL:
            if text.startswith("/*", i):
                state, start, i = BLOCK, i, i + 2
            elif text.startswith("//", i):
                state, start, i = LINE, i, i + 2
            elif ch in "\"'":
                state, start, i = (STRING if ch == '"' else CHAR), i, i + 1
            else:
                out.append(ch)
                i += 1
        elif state == BLOCK:
            if text.startswith("*/", i):
                state, i = NORMAL, close(i + 2)
            else:
                i += 1
        elif state == LINE:
            if ch == "\n":
                state, i = NORMAL, close(i)
            else:
                i += 1
        else:
            quote = '"' if state == STRING else "'"
            if ch == quote:
                state, i = NORMAL, close(i + 1)
            elif ch == "\n" or (ch == "\\" and text[i + 1 : i + 2] in ("", "\n")):
                out.append(text[start])  # unterminated on its line
                state, i = NORMAL, start + 1
            else:
                i += 2 if ch == "\\" else 1


#: The conditional-compilation directives, by what they do.
OPENS = ("if", "ifdef", "ifndef")
SWITCHES = ("elif", "elifdef", "elifndef", "else")


def _conditional(line: str) -> str | None:
    """The directive word of a ``#`` line, or None for any other line."""
    rest = line.lstrip()
    if not rest.startswith("#"):
        return None
    rest = rest[1:].lstrip()
    end = 0
    while end < len(rest) and (rest[end].isalnum() or rest[end] == "_"):
        end += 1
    return rest[:end]


def reference_c_function_spans(text: str) -> tuple[str, list[tuple[int, int]]]:
    """``(comment_free, spans)``, walking the blanked text one
    character at a time for brace depth and line numbers.  Braces count
    only in the first branch of each preprocessor conditional: a line
    holding ``#elif``/``#else`` and every line after it up to the
    matching ``#endif`` line are skipped, nested conditionals too."""
    comment_free = reference_c_comment_free(text)

    def line_of(pos: int) -> int:
        return comment_free.count("\n", 0, pos) + 1

    spans: list[tuple[int, int]] = []
    depth = 0
    open_pos = 0
    in_alternative: list[bool] = []  # per open conditional
    pos = 0
    for line in comment_free.split("\n"):
        word = _conditional(line)
        if word in OPENS:
            in_alternative.append(False)
        elif word in SWITCHES and in_alternative:
            in_alternative[-1] = True
        elif word == "endif" and in_alternative:
            in_alternative.pop()
        active = not any(in_alternative)
        for ch in line:
            if not active:
                pass
            elif ch == "{":
                if depth == 0:
                    open_pos = pos
                depth += 1
            elif ch == "}" and depth:  # a "}" at depth 0 is stray: ignored
                depth -= 1
                if depth == 0:
                    start_line = _header_line(comment_free, open_pos, line_of)
                    spans.append((start_line, line_of(pos)))
            pos += 1
        pos += 1  # the "\n"
    return comment_free, spans
