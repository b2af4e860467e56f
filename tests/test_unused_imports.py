"""No unused ``import`` in ``src/``, ``tests/`` or ``benchmarks/`` (pyflakes'
F401, which CI's ruff also checks), at top level or inside a function.

A name counts as used when the module reads it anywhere, names it in
``__all__`` or in a string annotation; an import line marked ``# noqa`` and
the package ``__init__.py`` façades are skipped."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "benchmarks") for p in (ROOT / d).rglob("*.py")
               if p.name != "__init__.py")


def unused_imports(src: str):
    """``(line, name)`` of each import of ``src`` that nothing uses."""
    tree = ast.parse(src)
    lines = src.splitlines()
    notes = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    notes += [n.returns for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    notes += [n.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for c in (c for note in notes if note for c in ast.walk(note)):
        if isinstance(c, ast.Constant) and isinstance(c.value, str):
            used.update(n.id for n in ast.walk(ast.parse(c.value)) if isinstance(n, ast.Name))
    out = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", "") != "__future__":
            for a in n.names:
                name = (a.asname or a.name).split(".")[0]
                noqa = "noqa" in lines[n.lineno - 1] or "noqa" in lines[a.lineno - 1]
                if name not in used and name != "*" and not noqa:
                    out.append((a.lineno, name))
    return out


def test_the_check_sees_function_level_imports_all_and_noqa():
    src = ("import os\n__all__ = ['os']\n"
           "def f() -> 'T':\n    import sys, T\n    from x import y  # noqa\n")
    assert unused_imports(src) == [(4, "sys")]


def test_no_unused_imports():
    found = {str(p.relative_to(ROOT)): u for p in FILES if (u := unused_imports(p.read_text()))}
    assert found == {}
