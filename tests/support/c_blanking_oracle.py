"""The character-at-a-time C blanking the kernel extractor used before
it blanked line by line with the unrolled comment pattern, kept as the
parity oracle for :func:`repro.scan.extractor._c_comment_free` and
:func:`repro.scan.extractor._c_function_spans`."""

from __future__ import annotations

import re

from repro.scan.extractor import _header_line, _line_index

#: The lazy DOTALL block-comment pattern ``BLOCK_COMMENT_RE`` replaced.
LAZY_BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)


def reference_c_function_spans(text: str) -> tuple[str, list[tuple[int, int]]]:
    """``(comment_free, spans)`` as the old ``_c_function_spans`` built them."""
    blank = lambda m: re.sub(r"[^\n]", " ", m.group())  # noqa: E731
    comment_free = LAZY_BLOCK_COMMENT.sub(blank, text)
    comment_free = re.sub(r"//[^\n]*", "", comment_free)
    comment_free = re.sub(r"\"(?:\\.|[^\"\\\n])*\"", blank, comment_free)
    comment_free = re.sub(r"'(?:\\.|[^'\\\n])*'", blank, comment_free)
    line_of = _line_index(comment_free)
    spans: list[tuple[int, int]] = []
    depth = 0
    open_pos = 0
    for pos, ch in enumerate(comment_free):
        if ch == "{":
            if depth == 0:
                open_pos = pos
            depth += 1
        elif ch == "}":
            depth = max(0, depth - 1)
            if depth == 0:
                start_line = _header_line(comment_free, open_pos, line_of)
                spans.append((start_line, line_of(pos)))
    return comment_free, spans
