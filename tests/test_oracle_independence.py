"""The factoring oracles in reference_algebra check smaralg's polynomial
kernel, so they must not be built on it: an import of intpoly or gfmat
there would let one fault pass on both sides of a comparison."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "reference_algebra.py"
KERNEL = {"smaralg.intpoly", "smaralg.gfmat"}


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_reference_algebra_imports_nothing_from_the_polynomial_kernel():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    assert set(imported_modules(tree)) & KERNEL == set()


def test_the_check_sees_each_form_of_import():
    forms = [
        "import smaralg.intpoly",
        "from smaralg import gfmat",
        "from smaralg.intpoly import poly_eval",
        "from smaralg.gfmat import factor_mod as f",
    ]
    for source in forms:
        assert set(imported_modules(ast.parse(source))) & KERNEL, source
