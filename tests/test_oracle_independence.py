"""The oracles in reference_algebra check smaralg, so they must not be
built on the code they check: the factoring oracles must import nothing
of the polynomial kernel, the isomorphism-witness grid must not reach
rep_isomorphic, and the spectral oracle must not reach linalg's spectral
route or ratmat's inverse, or one fault would pass on both sides of a
comparison."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "reference_algebra.py"
KERNEL = {"smaralg.intpoly", "smaralg.gfmat"}
GRID_ORACLE = "rep_isomorphic_by_grid"
# the function's dotted names, and its bare name as getattr would spell it
CHECKED = {"smaralg.semigroup.rep_isomorphic", "smaralg.rep_isomorphic", "rep_isomorphic"}
SPECTRAL_ORACLE = "spectral_terms_by_eigenbasis_inverse"
SPECTRAL_ROUTE = {
    f"{module}.{name}"
    for module in ("smaralg", "smaralg.linalg")
    for name in ("_spectral_from_eigen", "spectral_decompose", "eigen_system")
} | {"_spectral_from_eigen", "spectral_decompose", "eigen_system",
     "smaralg.ratmat.inverse", "inverse"}


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def import_aliases(tree):
    """Each name an import binds, mapped to the dotted name it stands for."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def dotted(node, aliases):
    """The dotted name a Name or an Attribute chain spells, its head
    resolved through the imports; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([aliases.get(node.id, node.id), *reversed(parts)])


def reached_names(tree, root):
    """The dotted names and string constants used by the module-level
    function root and by every module-level function it reaches."""
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    aliases = import_aliases(tree)
    names, seen, todo = set(), set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, (ast.Name, ast.Attribute)):
                names.add(dotted(node, aliases))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
            if isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
    return names


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


def test_the_grid_oracle_does_not_reach_rep_isomorphic():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    names = reached_names(tree, GRID_ORACLE)
    # the walk follows the oracle into its helpers
    assert {"intertwiner_space_by_constraints", "rat_det", "smaralg.ratmat.nullspace"} <= names
    assert names & CHECKED == set()


def test_the_grid_check_sees_each_form_of_call():
    forms = [
        "from smaralg import semigroup\ndef {}(a, b): return semigroup.rep_isomorphic(a, b)",
        "from smaralg import semigroup as s\ndef {}(a, b): return s.rep_isomorphic(a, b)",
        "import smaralg.semigroup\ndef {}(a, b): return smaralg.semigroup.rep_isomorphic(a, b)",
        "from smaralg.semigroup import rep_isomorphic\ndef {}(a, b): return rep_isomorphic(a, b)",
        "from smaralg import rep_isomorphic as r\ndef {}(a, b): return r(a, b)",
        "from smaralg import semigroup\ndef {}(a, b): return getattr(semigroup, 'rep_isomorphic')",
        "from smaralg import semigroup\n"
        "def helper(a, b): return semigroup.rep_isomorphic(a, b)\n"
        "def {}(a, b): return helper(a, b)",
    ]
    for source in forms:
        tree = ast.parse(source.replace("{}", GRID_ORACLE))
        assert reached_names(tree, GRID_ORACLE) & CHECKED, source


def test_the_spectral_oracle_does_not_reach_the_spectral_route():
    tree = ast.parse(ORACLES.read_text(), filename=str(ORACLES))
    names = reached_names(tree, SPECTRAL_ORACLE)
    assert {"rref_mod", "mat_mul_by_entries", "_nullspace_mod"} <= names
    assert names & SPECTRAL_ROUTE == set()


def test_the_spectral_check_sees_each_form_of_call():
    forms = [
        "from smaralg import linalg\ndef {}(a): return linalg.eigen_system(a)",
        "from smaralg import linalg as la\ndef {}(a): return la._spectral_from_eigen(a)",
        "import smaralg.linalg\ndef {}(a): return smaralg.linalg.spectral_decompose(a)",
        "from smaralg import spectral_decompose\ndef {}(a): return spectral_decompose(a)",
        "from smaralg.ratmat import inverse as inv\ndef {}(a): return inv(a)",
        "from smaralg import ratmat\ndef {}(a): return ratmat.inverse(a)",
        "from smaralg import ratmat\ndef {}(a): return getattr(ratmat, 'inverse')(a)",
        "from smaralg import linalg\n"
        "def helper(a): return linalg.eigen_system(a)\n"
        "def {}(a): return helper(a)",
    ]
    for source in forms:
        tree = ast.parse(source.replace("{}", SPECTRAL_ORACLE))
        assert reached_names(tree, SPECTRAL_ORACLE) & SPECTRAL_ROUTE, source
