"""intpoly.factor_monic against sympy's factorization over Z and against
the Kronecker oracle, and gfmat.factor_mod against sympy's factorization
over Z_q, on products of random monic factors drawn with multiplicity."""

import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smaralg import gfmat, intpoly, ratmat

from reference_algebra import factor_monic_by_kronecker

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def by_degree(polys):
    return sorted(polys, key=lambda g: (len(g), g))


@st.composite
def monic_products(draw, max_degree, bound, max_factor_degree):
    """Ascending coefficients of a product of 1-5 random monic factors with
    coefficients in [-bound, bound], each repeated 1-3 times."""
    f = [1]
    for _ in range(draw(st.integers(1, 5))):
        room = max_degree - (len(f) - 1)
        if room == 0:
            break
        degree = draw(st.integers(1, min(max_factor_degree, room)))
        g = draw(st.lists(st.integers(-bound, bound), min_size=degree, max_size=degree)) + [1]
        for _ in range(draw(st.integers(1, min(3, room // degree)))):
            f = poly_mul(f, g)
    return f


def sympy_factors(f, **options):
    """sympy's factors of f, each listed once per multiplicity."""
    _, pairs = sympy.factor_list(sympy.Poly(list(reversed(f)), X, **options))
    return [[int(c) for c in reversed(p.all_coeffs())] for p, mult in pairs for _ in range(mult)]


@settings(max_examples=300, deadline=None)
@given(monic_products(12, 9, 4))
@example([48, 56, 75, 21, 6, -14, -1, 1])
def test_factor_monic_matches_sympy(f):
    got = intpoly.factor_monic(f)
    product = [1]
    for g in got:
        assert g[-1] == 1
        assert sympy.Poly(list(reversed(g)), X).is_irreducible
        product = poly_mul(product, g)
    assert product == f
    assert got == by_degree(got)
    assert got == by_degree(sympy_factors(f))


@st.composite
def big_root_products(draw):
    """Products of 1-3 linear factors x - r with |r| <= 2^40, each taken
    once or twice, and 0-2 monic factors of degree 2-3 with coefficients
    in [-3, 3]: constant terms far past the root peel's bound."""
    f = [1]
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(-(2**40), 2**40))
        for _ in range(draw(st.integers(1, 2))):
            f = poly_mul(f, [-r, 1])
    for _ in range(draw(st.integers(0, 2))):
        degree = draw(st.integers(2, 3))
        f = poly_mul(f, draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree)) + [1])
    return f


@settings(max_examples=200, deadline=None)
@given(big_root_products())
@example(poly_mul([1 - 2**31, 1], [1, 0, 1]))  # (x - (2^31 - 1))(x^2 + 1)
@example(poly_mul([-(2**40), 1], [2**40, 1]))  # x^2 - 2^80, split by Zassenhaus alone
def test_factor_monic_with_large_roots_matches_sympy(f):
    start = time.perf_counter()
    got = intpoly.factor_monic(f)
    assert time.perf_counter() - start < 1.0, "trial division of a large constant term"
    assert got == by_degree(sympy_factors(f))


@settings(max_examples=100, deadline=None)
@given(monic_products(8, 4, 3))
def test_factor_monic_matches_kronecker(f):
    try:
        want = factor_monic_by_kronecker(f)
    except ValueError:  # past the oracle's caps
        assume(False)
    assert intpoly.factor_monic(f) == want


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), monic_products(10, 12, 4))
@example(2, [1, 0, 0, 0, 1])  # (x + 1)^4: f' = 0, all a square of a square
@example(3, [0, 0, 0, 1, 0, 0, 2, 0, 0, 1])  # x^3 (x^3 + 1)^2 = x^3 (x + 1)^6
def test_factor_mod_matches_sympy(q, f):
    got = gfmat.factor_mod(f, q)
    assert got == by_degree(got)
    product = [1]
    for g in got:
        assert g[-1] == 1 and all(0 <= c < q for c in g)
        product = gfmat.poly_mul(product, g, ratmat.residue_ring(q))
    assert product == gfmat.poly_mul(f, [1], ratmat.residue_ring(q))
    want = sympy_factors(f, modulus=q)
    assert got == by_degree([[c % q for c in g] for g in want])


@pytest.mark.parametrize("f", [[1, 0, 0, 0, 1], [1, 0, -10, 0, 1]])  # irreducible, split mod p
def test_lift_passes_the_landau_mignotte_bound(f, monkeypatch):
    """A factor of f has coefficients of size at most 2^deg(f) ||f||_2, so
    symmetric residues recover them only past twice that: m^2 > 4 4^deg ||f||^2."""
    moduli = []
    lift = intpoly._hensel_lift

    def recorded(g, factors, p, modulus):
        moduli.append(modulus)
        return lift(g, factors, p, modulus)

    monkeypatch.setattr(intpoly, "_hensel_lift", recorded)
    assert intpoly.factor_monic(f) == [f]
    assert moduli, "f must split mod p and be lifted"
    assert moduli[0] ** 2 > 4 * 4 ** (len(f) - 1) * sum(c * c for c in f)
