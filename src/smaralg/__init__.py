"""smaralg: a workbench for Smarandache algebraic structures.

Computable pieces: subfields embedded in Z_n and exact linear algebra
over them (characteristic polynomials, S-characteristic and alien
values, spectral decompositions), polynomial root criteria over prime
fields, representations of the subgroups of finite semigroups over exact
rationals, semivector spaces over the nonnegative integers and chain
lattices, and relaxed Markov/Leontief matrix models.

Importing the package loads no layer module.  Each name below, and each
layer module, is imported from its home module on first use (PEP 562),
so ``import smaralg.cli`` pays only for the CLI itself and a subcommand
only for the layers it uses.

``json_form`` is the one rule by which results become JSON; a ``Record``
is a result dataclass whose JSON form is its public fields.
"""

import importlib
from enum import Enum
from itertools import chain

__version__ = "0.1.0"

_PLAIN = (type(None), bool, int, str)
_PLAIN_TYPES = frozenset(_PLAIN)


def json_form(x):
    """The JSON form of a result: None, bool, int and str unchanged; a list
    or tuple as a list; a Fraction as an int or "p/q"; a dict with str
    keys; an enum by value; an object with ``to_json`` by that method; a
    dataclass by its fields whose names do not start with ``_``.  Anything
    else raises TypeError."""
    if type(x) in _PLAIN:
        return x
    if isinstance(x, (list, tuple)):
        if _PLAIN_TYPES.issuperset(map(type, x)):
            return list(x)
        # payloads hold long lists of tuples of ints: passes in C, no call per item
        if {tuple}.issuperset(map(type, x)) and _PLAIN_TYPES.issuperset(
            map(type, chain.from_iterable(x))
        ):
            return list(map(list, x))
        return [json_form(v) for v in x]
    if isinstance(x, dict):
        # str keys before json.dumps sorts them, which would sort ints as numbers
        return {str(k): json_form(v) for k, v in x.items()}
    if isinstance(x, Enum):
        return x.value
    if hasattr(x, "denominator"):  # a Fraction (ints returned above); keeps fractions unimported
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if hasattr(x, "to_json"):
        return x.to_json()
    if hasattr(x, "__dataclass_fields__"):
        return _public_fields(x)
    raise TypeError(f"no JSON form for {type(x).__name__}")


def _public_fields(x) -> dict:
    return {
        name: json_form(getattr(x, name))
        for name in x.__dataclass_fields__
        if not name.startswith("_")
    }


class Record:
    """Base of the result dataclasses whose JSON form is their public fields."""

    to_json = _public_fields


_LAYERS = (
    "econ", "gfmat", "golden", "intpoly", "linalg",
    "polylab", "ratmat", "ringcore", "semigroup", "semivector",
)

# Exported name -> home module.
_EXPORTS = {
    name: module
    for module, names in {
        "ringcore": (
            "Subfield", "SubfieldRejection", "certify_subfield", "find_subfields",
            "idempotents", "subfield_from_elements",
        ),
        "polylab": (
            "FermatFamily", "ModPolynomial", "ReducibilityReport", "RootClassification",
            "RootTruth", "Verdict", "block_transform", "coeff_sum_hom",
            "fermat_family_check", "fermat_power_sum", "kernel_of_hom",
            "neutrosophic_classify", "parse_poly", "reducibility_report", "roots_in",
        ),
        "linalg": (
            "CharPolyResult", "EigenSystem", "SpectralDecomposition", "SpectralDiagnostic",
            "SubfieldMatrix", "SubfieldVector", "bilinear_form_analyze", "char_poly",
            "eigen_system", "pseudo_inner_product", "rref_and_nullspace",
            "self_adjoint_check", "spectral_decompose",
        ),
        "semigroup": (
            "Representation", "SemigroupTable", "Side", "SubgroupRecord",
            "averaged_projection", "decompose_invariants", "find_subgroups",
            "left_right_intertwiner", "permutation_representation",
            "regular_representation", "rep_isomorphic", "validate_table",
        ),
        "semivector": (
            "ChainLattice", "DependenceReport", "NonNegIntegers", "SemivectorTuple",
            "enumerate_representations", "independence_check",
            "lattice_semivector_check", "span_membership", "spans_space",
        ),
        "econ": (
            "LeontiefSolution", "MarkovTrajectory", "TransitionClassification",
            "TransitionKind", "classify_transition", "closed_solve", "markov_step",
            "open_solve",
        ),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _LAYERS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
