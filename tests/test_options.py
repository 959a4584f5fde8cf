"""Every default parameter of ``src/qcensor`` is one that some caller sets.

A default that no call ever overrides selects nothing: it is a constant
spelled as an option, and a reader has to check every caller to know that.
This lint parses the package with ``ast`` and fails on each function
parameter with a default that no call in ``src/``, ``tests/`` or ``bench/``
sets, by keyword or by position.

Tests count as callers because some options exist to be set only there: the
discord search's cheap settings, the measured side and the sample counts are
set by tests that check behaviour the shipped defaults do not reach, and an
option is worth its line exactly when something sets it.

Calls are matched to definitions by name (a plain name or the last
attribute), so a call sets the parameter of every function of that name. A
call whose callee has no name, such as ``SUITES[name](samples=..., seed=...)``,
sets any parameter it names by keyword. A ``*args`` sets every positional
parameter from its place on, and a ``**kwargs`` sets every parameter.
"""

from __future__ import annotations

import ast
import math
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "tests", "bench")


def _trees(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def _defaults(tree: ast.Module):
    """(function name, parameter name, positional index or None) for each
    parameter with a default; a method's index skips its self or cls."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                ):
                    bound.add(item)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if node in bound else 0
        for k, arg in enumerate(positional[len(positional) - len(args.defaults) :]):
            index = len(positional) - len(args.defaults) + k - skip
            yield node.name, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _settings(trees):
    """What the calls set: for each callee name, the keywords it is given, the
    number of positional arguments it is given at most, and whether a
    ``**kwargs`` sets everything; and the keywords unnamed callees are given."""
    keywords: dict[str, set[str]] = defaultdict(set)
    positions: dict[str, float] = defaultdict(int)
    anything: set[str] = set()
    unnamed: set[str] = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node.func)
            given = {kw.arg for kw in node.keywords if kw.arg is not None}
            if name is None:
                unnamed |= given
                continue
            keywords[name] |= given
            if any(kw.arg is None for kw in node.keywords):
                anything.add(name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positions[name] = max(positions[name], math.inf if starred else len(node.args))
    return keywords, positions, anything, unnamed


def unset_defaults(root: Path) -> list[str]:
    """``module.function(parameter)`` for each default of ``root``'s package
    that no call under ``root`` sets."""
    callers = _trees(sorted(p for d in CALLER_DIRS for p in (root / d).rglob("*.py")))
    keywords, positions, anything, unnamed = _settings(callers)
    unset = []
    for path, tree in _trees(sorted((root / "src" / "qcensor").glob("*.py"))):
        for func, param, index in _defaults(tree):
            if (
                func in anything
                or param in keywords[func]
                or param in unnamed
                or (index is not None and positions[func] > index)
            ):
                continue
            unset.append(f"{path.stem}.{func}({param})")
    return unset


def test_every_default_parameter_is_set_by_some_caller():
    unset = unset_defaults(ROOT)
    assert not unset, (
        "these defaults are never set by any call in src/, tests/ or bench/; "
        f"make each a constant of its function: {unset}"
    )


def test_the_lint_sees_keywords_positions_and_unnamed_callees(tmp_path):
    pkg = tmp_path / "src" / "qcensor"
    pkg.mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "bench").mkdir()
    (pkg / "m.py").write_text(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "class K:\n    def g(self, e=4):\n        pass\n"
        "def h(x=5):\n    pass\n"
        "def s(y=6):\n    pass\n"
    )
    (tmp_path / "tests" / "t.py").write_text(
        "f(0, 1)\nK().g(4)\nTABLE['h'](x=5)\ns(*())\n"
    )
    assert unset_defaults(tmp_path) == ["m.f(c)", "m.f(d)"]
