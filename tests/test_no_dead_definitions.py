"""Every function, class and method under ``src/repro/`` has a reader.

A definition counts as read when its name appears as an ``ast.Name``
or an ``ast.Attribute`` anywhere in ``src/``, ``tests/`` or
``callerbench/``.  An ``__all__`` string, an import and the ``def``
itself do not count, so a definition that is only exported, only
imported, or only written stays flagged.  Dunder methods are exempt:
the interpreter calls them by protocol.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READERS = (ROOT / "src", ROOT / "tests", ROOT / "callerbench")

#: Definitions kept without a reader, each with the reason.
ALLOWED = {
    # ROADMAP item 3 decides whether the IR interpreter becomes the
    # independent-truth oracle for selected code or is deleted.
    "IRInterpreter",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(base: Path):
    for path in sorted(base.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names() -> set[str]:
    used: set[str] = set()
    for base in READERS:
        for _, tree in _trees(base):
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def _definitions() -> list[tuple[str, str]]:
    found: list[tuple[str, str]] = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.append((name, f"{path.relative_to(ROOT)}:{node.lineno}"))
    return found


def test_every_definition_has_a_reader():
    used = _used_names()
    dead = sorted(
        f"{where} {name}"
        for name, where in _definitions()
        if name not in used and name not in ALLOWED
    )
    assert not dead, "definitions nothing reads:\n" + "\n".join(dead)


def test_allowlist_names_live_definitions():
    defined = {name for name, _ in _definitions()}
    assert ALLOWED <= defined
