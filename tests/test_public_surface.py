"""Every name a ``repro`` package exports, and every function, class
and method under ``src/``, is used by the code that runs.

A name in a package's ``__all__`` must be referenced somewhere in
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``: outside its
own definition and outside every ``__init__.py`` (which only re-export).
The same holds for every ``def`` and ``class`` under ``src/``, with
perfbench's dotted patch targets (strings such as
``"VerdictCache.get"``) counted as references.  A name that only tests
call is a capability the system does not have.

The match is by name, so a definition whose name collides with a used
one (``Tensor.zeros`` with ``np.zeros``) can hide; a definition that a
non-test caller uses is never flagged.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
USER_DIRS = ("src", "benchmarks", "perfbench", "examples")
#: Exports that are metadata, not code.
ALLOWED = {"__version__"}
#: Definitions that code outside this repository calls: the
#: ``http.server`` handler hooks, the model's ``Module.__call__`` target,
#: and the documented HTTP client calls for the async scan and update jobs.
FRAMEWORK_HOOKS = {
    "HPCGPTRequestHandler.do_GET",
    "HPCGPTRequestHandler.do_POST",
    "HPCGPTRequestHandler.log_message",
    "HPCGPTClient.scan_start",
    "HPCGPTClient.scan_wait",
    "HPCGPTClient.update_start",
    "HPCGPTClient.update_wait",
}
#: Classes whose members are interface declarations, not code.
PROTOCOLS = {"ServingSystem"}
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _module_path(module: str) -> Path:
    base = SRC.joinpath(*module.split("."))
    package = base / "__init__.py"
    return package if package.exists() else base.with_suffix(".py")


def _exports(init: Path) -> list[str]:
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [ast.literal_eval(e) for e in node.value.elts]
    return []


def _definition(init: Path, name: str) -> tuple[Path, int, int] | None:
    """(file, first line, last line) of the top-level statement that
    defines ``name``, following re-exports through ``__init__.py``."""
    path = init
    while path.name == "__init__.py":
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and any(
                (a.asname or a.name) == name for a in node.names
            ):
                path = _module_path(node.module)
                break
        else:
            return None
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = {node.name}
        elif isinstance(node, ast.Assign):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = {node.target.id}
        else:
            continue
        if name in names:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            return path, first, node.end_lineno
    return None


def _references() -> dict[str, list[tuple[Path, int]]]:
    """Every ``name`` and ``.attr`` use in a non-``__init__`` file of the
    directories the system runs from, with where it is; in ``perfbench/``
    each part of a dotted string constant counts too."""
    refs: dict[str, list[tuple[Path, int]]] = {}
    for top in USER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, []).append((path, node.lineno))
                elif (top == "perfbench" and isinstance(node, ast.Constant)
                      and isinstance(node.value, str) and _DOTTED.fullmatch(node.value)):
                    for part in node.value.split("."):
                        refs.setdefault(part, []).append((path, node.lineno))
    return refs


def _all_definitions(path: Path):
    """``(qualified name, name, first line, last line)`` of every function,
    class and method in ``path``, nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield qual, child.name, first, child.end_lineno
                yield from walk(child, qual + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(ast.parse(path.read_text()), "")


def _unused_definitions(refs) -> list[str]:
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        for qual, name, first, last in _all_definitions(path):
            if (name.startswith("__") and name.endswith("__")) or name == "forward":
                continue
            if qual in FRAMEWORK_HOOKS or qual.split(".")[0] in PROTOCOLS:
                continue
            if not any(p != path or not first <= line <= last for p, line in refs.get(name, [])):
                unused.append(f"{path.relative_to(SRC)}: {qual}")
    return unused


def test_every_export_is_used_outside_tests():
    refs = _references()
    inits = sorted(p for p in (SRC / "repro").rglob("__init__.py"))
    checked, unused = 0, []
    for init in inits:
        for name in _exports(init):
            if name in ALLOWED:
                continue
            checked += 1
            where = _definition(init, name)
            uses = [
                (path, line) for path, line in refs.get(name, [])
                if where is None or path != where[0] or not where[1] <= line <= where[2]
            ]
            if not uses:
                unused.append(f"{init.parent.relative_to(SRC)}: {name}")
    assert checked > 100  # the walk found the packages
    assert not unused, "exported but used only by tests:\n" + "\n".join(unused)


def test_every_definition_is_used_outside_tests():
    unused = _unused_definitions(_references())
    assert not unused, "defined but used only by tests (or nothing):\n" + "\n".join(unused)


def test_definition_walk_sees_methods_and_patch_targets():
    """The per-definition guard must see methods by their class and must
    count perfbench's string patch targets as uses."""
    quals = {q for q, *_ in _all_definitions(SRC / "repro" / "scan" / "cache.py")}
    assert {"VerdictCache", "VerdictCache.get", "VerdictCache.put"} <= quals
    refs = _references()
    assert any(p.parent.name == "perfbench" for p, _ in refs["_dispatch_grouped"])


def test_definition_follows_reexports_to_the_defining_file():
    """The guard discounts only the uses inside a name's own definition, so
    it must find that definition behind the ``__init__.py`` re-exports."""
    path, first, last = _definition(SRC / "repro" / "llm" / "__init__.py", "InferenceEngine")
    assert path == SRC / "repro" / "llm" / "engine.py"
    lines = path.read_text().splitlines()
    assert lines[first - 1].startswith("class InferenceEngine")
    assert "def generate_batch" in "\n".join(lines[first - 1 : last])
    assert _definition(SRC / "repro" / "llm" / "__init__.py", "no_such_name") is None
