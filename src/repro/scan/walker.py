"""Source-tree walker: find the C/C++ and Fortran files worth scanning.

Deterministic (sorted by relative path), defensive (unreadable or
oversized files are skipped and counted, never fatal), and quiet about
the usual junk directories.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.languages import language_for_path, normalize_language

#: Directories that never contain scannable first-party sources.
SKIP_DIRS = {
    ".git", ".hg", ".svn", "__pycache__", ".repro_cache",
    "build", "dist", "node_modules", "venv", ".venv",
}

#: Per-file size cap — anything larger is generated/vendored output.
DEFAULT_MAX_BYTES = 2 * 1024 * 1024


@dataclass(frozen=True)
class SourceFile:
    """One candidate source file."""

    path: str           # path on disk, as reached from the scan root
    relpath: str        # path relative to the scan root (report key)
    language: str       # canonical language name
    text: str


@dataclass
class WalkStats:
    """What the walk saw (for report totals)."""

    files_seen: int = 0
    files_taken: int = 0
    skipped_size: int = 0
    skipped_unreadable: int = 0
    skipped_language: int = 0
    errors: list[str] = field(default_factory=list)


def walk_tree(
    root: str | Path,
    languages: tuple[str, ...] | list[str] | None = None,
    max_bytes: int = DEFAULT_MAX_BYTES,
) -> tuple[list[SourceFile], WalkStats]:
    """Collect scannable sources under ``root``.

    ``languages`` optionally restricts the walk (any accepted alias);
    ``root`` may also be a single source file.
    """
    root = Path(root)
    wanted = {normalize_language(l) for l in languages} if languages else None
    stats = WalkStats()
    if not root.exists():
        raise FileNotFoundError(f"scan root {root} does not exist")

    if root.is_file():
        candidates, prefix = [str(root)], len(str(root)) - len(root.name)
    else:
        top = str(root)
        candidates = _walk_pruned(top)
        prefix = len(os.path.join(top, ""))
    files: list[SourceFile] = []
    for path in candidates:
        stats.files_seen += 1
        language = language_for_path(path)
        if language is None:
            continue
        if wanted is not None and language not in wanted:
            stats.skipped_language += 1
            continue
        try:
            # One open per file: its size from the open descriptor, then
            # the read (text mode: universal newlines, as read_text).
            with open(path, encoding="utf-8", errors="replace") as fh:
                if os.fstat(fh.fileno()).st_size > max_bytes:
                    stats.skipped_size += 1
                    continue
                text = fh.read()
        except OSError as exc:
            stats.skipped_unreadable += 1
            stats.errors.append(f"{path}: {exc}")
            continue
        files.append(SourceFile(path=path, relpath=path[prefix:], language=language, text=text))
        stats.files_taken += 1
    return files, stats


def _walk_pruned(top: str) -> list[str]:
    """Files under ``top`` in the order of sorting them as ``Path``s
    (component by component), pruning skip directories *before*
    descending (a repo's ``.git``/``node_modules`` can dwarf the
    sources — never enumerate them)."""
    out: list[str] = []
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(
            d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
        )
        out.extend(os.path.join(dirpath, name) for name in filenames)
    out.sort(key=lambda path: path.split(os.sep))
    return out
