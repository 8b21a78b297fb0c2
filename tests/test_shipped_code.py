"""Shipped code never imports the test oracles.

The installed package is built from ``src/`` alone, so the references that
live under ``tests/`` (``serving/oracle.py``, ``serving/fleet_oracle.py``,
``hw/reference.py``) are absent from it: a module under ``src/`` that
imported one would work in a checkout and fail once installed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _imports_of_tests(path: Path) -> list[str]:
    """``file:line: module`` for every absolute import of ``tests`` in ``path``."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules = [node.module]
        else:
            continue
        hits += [f"{path.relative_to(SRC)}:{node.lineno}: {module}" for module in modules
                 if module == "tests" or module.startswith("tests.")]
    return hits


def test_src_never_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules under {SRC}"
    assert [hit for path in modules for hit in _imports_of_tests(path)] == []
