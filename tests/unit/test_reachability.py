"""Every definition in ``src/repro`` is reached from somewhere else.

A function, method, class or module-level constant whose name appears
only at its own definition is code that no CLI, HTTP, experiment,
example, tool or benchmark path runs: only its own tests keep it alive.
This test scans ``src/repro`` with :mod:`ast` and fails, naming each
one, when a non-dunder definition is named nowhere outside its own
lines.

What counts as a mention: in ``src/``, a use of the name in code (a
name, an attribute, an import alias or a keyword argument, outside the
definition itself and outside the imports of an ``__init__.py``), so
a docstring or a comment that names a definition does not keep it;
and any identifier token equal to the name anywhere in ``docs/``,
``README.md``, ``DESIGN.md``, ``examples/``, ``tools/``,
``benchmarks/`` or ``perfbench/``.  A mention inside another unreached
definition does not count, so a chain of definitions that only call
each other is reported whole.  The scan is by name, so it errs towards
keeping: a name shared with a reached definition counts as reached.
Tests are not counted; a definition that only tests call belongs in
the tests or nowhere.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUTSIDE = ("docs", "README.md", "DESIGN.md", "examples", "tools", "benchmarks", "perfbench")
TEXT_SUFFIXES = {".py", ".md", ".json", ".txt", ".toml", ".yml", ".yaml", ".sh"}

#: Unreached definitions kept on purpose, with the reason.  A key is a
#: module path under ``src/`` and, after ``::``, a qualified name; a key
#: without ``::`` keeps every definition in that module.
ALLOWED = {
    "repro/service/store.py::ResultStore.journal_entry":
        "probe: the service tests read a journal row to check admission and recovery",
    "repro/core/ledger.py::Ledger.is_cached":
        "probe: the study and resume tests read the ledger's cache state",
    "repro/core/ledger.py::Ledger.is_quarantined":
        "probe: the resilience tests read the ledger's quarantine state",
    "repro/core/results.py::from_csv":
        "probe: test_study_pipeline.py reads a written dataset back",
    "repro/core/results.py::ResultSet.config_keys":
        "probe: test_study.py reads which configurations a result set holds",
    "repro/core/study.py::Study.retry_policy":
        "probe: the resilience tests read the policy a study was built with",
    "repro/core/uncertainty.py":
        "the delta-method error bars that the finding margins are to carry",
    "repro/execution/trace.py::PowerTrace.power_at":
        "scalar reference: test_trace.py checks the vectorised transfer against it",
    "repro/measurement/sensor.py::HallEffectSensor.output_volts":
        "scalar reference: test_sensor.py checks the vectorised transfer against it",
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition:
    __slots__ = ("path", "qualname", "name", "first", "last")

    def __init__(self, path: str, qualname: str, node: ast.AST) -> None:
        self.path = path
        self.qualname = qualname
        self.name = qualname.rsplit(".", 1)[-1]
        decorators = getattr(node, "decorator_list", [])
        self.first = min([node.lineno] + [d.lineno for d in decorators])
        self.last = node.end_lineno

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"

    def covers(self, path: str, line: int) -> bool:
        return path == self.path and self.first <= line <= self.last


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_statements(body):
    """Module-level statements, looking inside ``if`` and ``try`` blocks."""
    for node in body:
        if isinstance(node, ast.If):
            yield from _module_statements(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from _module_statements(
                node.body + node.orelse + node.finalbody
                + [s for h in node.handlers for s in h.body]
            )
        else:
            yield node


def _class_definitions(path: str, node: ast.ClassDef, prefix: str):
    qualname = f"{prefix}{node.name}"
    yield Definition(path, qualname, node)
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _dunder(child.name):
                yield Definition(path, f"{qualname}.{child.name}", child)
        elif isinstance(child, ast.ClassDef):
            yield from _class_definitions(path, child, f"{qualname}.")


def _definitions(path: str, tree: ast.Module):
    for node in _module_statements(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _dunder(node.name):
                yield Definition(path, node.name, node)
        elif isinstance(node, ast.ClassDef):
            yield from _class_definitions(path, node, "")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not _dunder(target.id):
                    yield Definition(path, target.id, node)


def _code_names(file: Path, tree: ast.Module):
    """``(name, line)`` for every name the code of ``file`` uses: names,
    attributes, import aliases and keyword arguments.  The imports of an
    ``__init__.py`` re-export rather than use, so they are left out."""
    package_init = file.name == "__init__.py"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.lineno
        elif isinstance(node, ast.alias) and not package_init:
            for name in (*node.name.split("."), node.asname):
                if name is not None:
                    yield name, node.lineno


def _outside_names() -> set[str]:
    names = set()
    for entry in OUTSIDE:
        top = ROOT / entry
        files = [top] if top.is_file() else sorted(top.rglob("*")) if top.is_dir() else []
        for file in files:
            if file.is_file() and file.suffix in TEXT_SUFFIXES:
                names.update(IDENTIFIER.findall(file.read_text(encoding="utf-8")))
    return names


def unreached() -> list[Definition]:
    """Definitions named nowhere but inside themselves or each other."""
    definitions: list[Definition] = []
    mentions: dict[str, list[tuple[str, int]]] = {}
    for file in sorted(PACKAGE.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        text = file.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(file))
        definitions.extend(_definitions(path, tree))
        for name, line in _code_names(file, tree):
            mentions.setdefault(name, []).append((path, line))
    outside = _outside_names()
    candidates = [d for d in definitions if d.name not in outside]

    dead: list[Definition] = []
    changed = True
    while changed:
        changed = False
        for definition in candidates:
            if definition in dead:
                continue
            reached = any(
                not definition.covers(path, line)
                and not any(other.covers(path, line) for other in dead)
                for path, line in mentions.get(definition.name, ())
            )
            if not reached:
                dead.append(definition)
                changed = True
    return dead


def _allowed(definition: Definition) -> bool:
    return definition.key in ALLOWED or definition.path in ALLOWED


def test_every_definition_is_reached():
    missing = sorted(d.key for d in unreached() if not _allowed(d))
    assert not missing, (
        "definitions that no program, tool, benchmark or document names; "
        "delete them with their tests, or name the path that reaches them:\n  "
        + "\n  ".join(missing)
    )


def test_every_allowance_is_still_needed():
    dead = unreached()
    needed = {d.key for d in dead} | {d.path for d in dead}
    stale = sorted(set(ALLOWED) - needed)
    assert not stale, f"allowed but reached (drop the allowance): {stale}"
