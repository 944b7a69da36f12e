"""intpoly.factor_monic against sympy's factorization over Z, on
products of 1-4 random monic factors of degree <= 3 with coefficients
in [-4, 4] (total degree <= 8)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaralg import intpoly

sympy = pytest.importorskip("sympy")


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def monic_products(draw):
    """Ascending coefficients of a product of random monic factors."""
    f = [1]
    for _ in range(draw(st.integers(1, 4))):
        room = 9 - len(f)
        if room == 0:
            break
        degree = draw(st.integers(1, min(3, room)))
        f = poly_mul(f, draw(st.lists(st.integers(-4, 4), min_size=degree, max_size=degree)) + [1])
    return f


# a few products take seconds in the Kronecker sweep, so the count stays low
@settings(max_examples=100, deadline=None)
@given(monic_products())
def test_factor_monic_matches_sympy(f):
    x = sympy.Symbol("x")
    got = intpoly.factor_monic(f)
    product = [1]
    for g in got:
        assert g[-1] == 1
        assert sympy.Poly(list(reversed(g)), x).is_irreducible
        product = poly_mul(product, g)
    assert product == f
    assert got == sorted(got, key=lambda g: (len(g), g))
    content, pairs = sympy.factor_list(sympy.Poly(list(reversed(f)), x))
    assert content == 1
    want = [
        [int(c) for c in reversed(p.all_coeffs())] for p, mult in pairs for _ in range(mult)
    ]
    assert got == sorted(want, key=lambda g: (len(g), g))
