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


def _undefined_exports(source: str) -> list[str]:
    """Names in the module's ``__all__`` that no top-level statement of the module binds.

    A binding is a ``def``, a ``class``, an assignment target or an import;
    ``__all__`` must be a literal list or tuple of strings.
    """
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


@pytest.mark.parametrize("path", PROGRAM, ids=lambda p: str(p.relative_to(ROOT)))
def test_exports_are_defined(path):
    assert _undefined_exports(path.read_text(encoding="utf-8")) == []


def test_undefined_export_is_reported():
    src = ("from .linalg import EXACT as E, solve\nimport numpy.linalg\n\n"
           "__all__ = ['E', 'EXACT', 'solve', 'numpy', 'f', 'C', 'X', 'Y', 'gone']\nX, (Y, _) = 1, (2, 3)\n\n"
           "def f():\n    gone = 1\n\nclass C:\n    pass\n")
    assert _undefined_exports(src) == ["EXACT", "gone"]


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


def _backend_compares(source: str) -> list[str]:
    """Comparisons that ask "exact or float" outside ``Field.exact``.

    An equality or identity test against ``EXACT``, ``FLOAT`` or the strings
    "exact" / "float", or of a ``.dtype`` against ``object``.
    """
    def backend(node):
        return ((isinstance(node, ast.Name) and node.id in ("EXACT", "FLOAT"))
                or (isinstance(node, ast.Attribute) and node.attr in ("EXACT", "FLOAT"))
                or (isinstance(node, ast.Constant) and node.value in ("exact", "float")))

    def dtype_object(a, b):
        return isinstance(a, ast.Attribute) and a.attr == "dtype" and isinstance(b, ast.Name) and b.id == "object"

    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, a, b in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq, ast.Is, ast.IsNot)) and (
                    backend(a) or backend(b) or dtype_object(a, b) or dtype_object(b, a)):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


# the backend names are parsed (cli) and mapped to fields (linalg) here; everywhere else asks a Field
FIELD_OWNERS = ("linalg.py", "cli.py")


@pytest.mark.parametrize("path", [p for p in PROGRAM if p.parent.name == "kusuoka" and p.name not in FIELD_OWNERS],
                         ids=lambda p: p.name)
def test_exact_or_float_is_asked_of_the_field(path):
    assert _backend_compares(path.read_text(encoding="utf-8")) == []


def test_backend_compare_is_reported():
    src = ("if backend == EXACT:\n    pass\nok = linalg.FLOAT != b\nx = a.dtype == object\n"
           "y = object is not m.dtype\nz = b == 'float'\nfine = field.exact and b in linalg.FIELDS\n"
           "also = n == 1 and a.dtype == float and EXACTLY == 2\n")
    assert _backend_compares(src) == [
        "line 1: backend == EXACT",
        "line 3: linalg.FLOAT != b",
        "line 4: a.dtype == object",
        "line 5: object is not m.dtype",
        "line 6: b == 'float'",
    ]
