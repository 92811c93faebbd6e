"""Every definition and stored attribute under ``src/repro/`` has a reader.

A function, class or method counts as read when its name appears as an
``ast.Name`` or an ``ast.Attribute`` anywhere in ``src/``, ``tests/`` or
``callerbench/``.  An ``__all__`` string, an import and the ``def``
itself do not count, so a definition that is only exported, only
imported, or only written stays flagged.  Dunder methods are exempt:
the interpreter calls them by protocol.

An attribute store (``x.attr = ...``) or a class-level annotated field
counts as read when its name appears as an ``ast.Attribute`` in load
context, a call keyword (a dataclass field set by name) or a string
constant (``getattr``, an ``as_row`` key) in the same three trees, so
state that is only ever written stays flagged.

Those two scans match names across the whole tree, so a write-only
attribute passes when an unrelated object elsewhere reads the same
name.  Private names are scoped tighter: a ``self._name`` store, and a
private function, method or class (``def _name`` / ``class _Name``),
needs a read of ``_name`` (a name or attribute load, or a string
constant) in its own module, so a private helper only a test calls is
flagged too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
READERS = (ROOT / "src", ROOT / "tests", ROOT / "callerbench")

#: Definitions kept without a reader, each with the reason.
ALLOWED = {
    # ROADMAP item 7 decides whether the IR interpreter becomes the
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


def _attribute_reads() -> set[str]:
    read: set[str] = set()
    for base in READERS:
        for _, tree in _trees(base):
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.keyword) and node.arg is not None:
                    read.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    return read


def _stored_attributes() -> list[tuple[str, str]]:
    found: list[tuple[str, str]] = []
    for path, tree in _trees(PACKAGE):
        where = path.relative_to(ROOT)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                found.append((node.attr, f"{where}:{node.lineno}"))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        found.append((item.target.id, f"{where}:{item.lineno}"))
    return found


def test_every_stored_attribute_has_a_reader():
    read = _attribute_reads()
    write_only = sorted(
        f"{where} {name}"
        for name, where in _stored_attributes()
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )
    assert not write_only, "attributes nothing reads:\n" + "\n".join(write_only)


def _private_self_stores_without_module_reads() -> list[str]:
    unread: list[str] = []
    for path, tree in _trees(PACKAGE):
        stores: list[tuple[str, int]] = []
        read: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif (
                    isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr.startswith("_")
                    and not node.attr.endswith("__")
                ):
                    stores.append((node.attr, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
        where = path.relative_to(ROOT)
        unread.extend(f"{where}:{line} self.{name}" for name, line in stores if name not in read)
    return sorted(unread)


def test_every_private_self_store_is_read_in_its_module():
    unread = _private_self_stores_without_module_reads()
    assert not unread, "private attributes their module never reads:\n" + "\n".join(unread)


def _private_definitions_without_module_reads(base: Path = PACKAGE) -> list[str]:
    unread: list[str] = []
    for path, tree in _trees(base):
        defined: list[tuple[str, int]] = []
        read: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS):
                name = node.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.append((name, node.lineno))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
        where = path.relative_to(base.parent)
        unread.extend(f"{where}:{line} {name}" for name, line in defined if name not in read)
    return sorted(unread)


def test_every_private_definition_is_read_in_its_module():
    unread = _private_definitions_without_module_reads()
    assert not unread, "private definitions their module never reads:\n" + "\n".join(unread)


def test_private_definition_scan_flags_a_helper_only_a_test_calls(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def _helper():\n    return 1\n\n\n"
        "def _used():\n    return 2\n\n\n"
        "def public():\n    return _used()\n",
        encoding="utf-8",
    )
    (tmp_path / "test_mod.py").write_text(
        "from pkg import mod\n\n\ndef test_helper():\n    assert mod._helper() == 1\n",
        encoding="utf-8",
    )
    assert _private_definitions_without_module_reads(package) == ["pkg/mod.py:1 _helper"]
