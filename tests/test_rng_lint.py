"""Every random draw of ``src/qcensor`` comes from a ``make_rng`` generator.

The unbreakable suites lay out a chunk of samples on the stream of the one
generator their seed makes, and rewind it where a sample's joint must be
drawn again; a draw from anywhere else would not be rewound, and a hidden
global seed would make a report depend on what ran before it. This lint
parses the package with ``ast`` and fails on each call that goes through
``numpy.random`` (a module function such as ``default_rng``, ``seed`` or
``rand``, or a ``Generator`` or bit generator built) anywhere but in
``states.make_rng``. Reading ``np.random.Generator`` for a type check or an
annotation is not a call and passes.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"states.make_rng"}


def _random_names(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """The names through which a module reaches ``numpy.random``: aliases of
    numpy, aliases of numpy.random, and names imported from it."""
    numpy, modules, members = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy.add(alias.asname or "numpy")
                elif alias.name.startswith("numpy.random"):
                    (modules if alias.asname else numpy).add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "numpy":
                modules |= {a.asname or a.name for a in node.names if a.name == "random"}
            elif node.module.startswith("numpy.random"):
                members |= {a.asname or a.name for a in node.names}
    return numpy, modules, members


def _reaches_random(func: ast.expr, numpy: set, modules: set, members: set) -> bool:
    if isinstance(func, ast.Name):
        return func.id in members
    if not isinstance(func, ast.Attribute):
        return False
    owner = func.value
    if isinstance(owner, ast.Name):
        return owner.id in modules
    return (
        isinstance(owner, ast.Attribute)
        and owner.attr == "random"
        and isinstance(owner.value, ast.Name)
        and owner.value.id in numpy
    )


def random_calls(root: Path) -> list[str]:
    """``module.function:line`` of each call through ``numpy.random`` in
    ``root``'s package outside ``ALLOWED``; module-level code is
    ``module.<module>``."""
    found = []
    for path in sorted((root / "src" / "qcensor").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = _random_names(tree)

        def visit(node: ast.AST, where: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = where
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if where == "<module>" else f"{where}.{child.name}"
                if isinstance(child, ast.Call) and _reaches_random(child.func, *names):
                    if f"{path.stem}.{where}" not in ALLOWED:
                        found.append(f"{path.stem}.{where}:{child.lineno}")
                visit(child, inner)

        visit(tree, "<module>")
    return found


def test_every_draw_comes_from_a_make_rng_generator():
    calls = random_calls(ROOT)
    assert not calls, (
        "these calls reach numpy.random outside states.make_rng; draw from the "
        f"generator a caller passes in instead: {calls}"
    )


def test_the_lint_sees_aliases_imports_and_module_level_calls(tmp_path):
    pkg = tmp_path / "src" / "qcensor"
    pkg.mkdir(parents=True)
    (pkg / "states.py").write_text(
        "import numpy as np\n"
        "def make_rng(seed):\n"
        "    return np.random.Generator(np.random.PCG64(seed))\n"
        "def other(seed):\n"
        "    return np.random.Generator(np.random.PCG64(seed))\n"
    )
    (pkg / "m.py").write_text(
        "import numpy\n"
        "import numpy.random as npr\n"
        "from numpy import random as nr\n"
        "from numpy.random import PCG64, default_rng as dr\n"
        "def make_rng(seed):\n"
        "    return numpy.random.default_rng(seed)\n"
        "class K:\n"
        "    def f(self, rng: numpy.random.Generator):\n"
        "        isinstance(rng, numpy.random.Generator)\n"
        "        rng.random(3)\n"
        "        npr.rand(2)\n"
        "        nr.seed(1)\n"
        "        return dr(2), PCG64(3)\n"
        "numpy.random.seed(0)\n"
    )
    assert random_calls(tmp_path) == [
        "m.make_rng:6",
        "m.K.f:11",
        "m.K.f:12",
        "m.K.f:13",
        "m.K.f:13",
        "m.<module>:14",
        "states.other:5",
        "states.other:5",
    ]
