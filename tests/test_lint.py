"""Static checks on the package and script sources that need no third-party linter."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "kusuoka").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "scripts").glob("*.py"))
PROGRAM = MODULES + [ROOT / "src" / "kusuoka" / "__init__.py"]


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    src = "import os\nfrom fractions import Fraction\nfrom . import linalg\nprint(linalg.EXACT)\n"
    assert _unused_imports(src) == ["line 1: os", "line 2: Fraction"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dead_private_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and ``_name`` methods that no source refers to.

    A reference is any name, attribute or string constant equal to the
    helper's name, anywhere in ``sources`` (so ``getattr`` and patching by
    name count); the definition itself is not one.
    """
    defined, used = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(node.name):
                defined.append((f"{label}: {node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                defined += [(f"{label}: {node.name}.{item.name}", item.name) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _is_private(item.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    return [label for label, name in defined if name not in used]


def test_no_dead_private_helpers():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PROGRAM}
    assert _dead_private_helpers(sources) == []


def test_dead_private_helper_is_reported():
    a = ("def _dead():\n    pass\n\ndef _used():\n    pass\n\n"
         "class A:\n    def _m(self):\n        pass\n\n    def __len__(self):\n        return 0\n")
    b = "from a import _used, A\n_used()\nA()._n()\ngetattr(A, '_named')\n"
    c = "class B:\n    def _n(self):\n        pass\n\n    def _named(self):\n        pass\n"
    assert _dead_private_helpers({"a.py": a, "b.py": b, "c.py": c}) == ["a.py: _dead", "a.py: A._m"]
