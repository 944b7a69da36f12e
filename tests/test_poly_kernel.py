"""The one polynomial kernel in gfmat (division, gcd, extended gcd and the
squarefree decomposition over a ratmat.Field) against sympy, over Q and
over Z_q."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smaralg import gfmat, ratmat

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def to_sympy(coeffs, **options):
    return sympy.Poly(list(reversed(coeffs)) or [0], X, **options)


def from_sympy(p, q=0):
    """Ascending coefficients of p, [] for zero; residues 0..q-1 when q."""
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    if q:
        coeffs = [int(c) % q for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def degree(p) -> int:
    return len(p) - 1


def poly_power_product(factors):
    f = sympy.Poly(1, X)
    for g, mult in factors:
        f *= sympy.Poly(list(reversed(g)), X) ** mult
    return [int(c) for c in reversed(f.all_coeffs())]


@st.composite
def monic_powers(draw, bound, max_mult):
    """Ascending integer coefficients of a product of 1-3 random monic
    factors of degree 1-3, coefficients in [-bound, bound], each raised to
    a power 1..max_mult."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        g = draw(st.lists(st.integers(-bound, bound), min_size=degree, max_size=degree))
        factors.append((g + [1], draw(st.integers(1, max_mult))))
    return poly_power_product(factors)


def sqf_pairs(f, field, q=0):
    """(part, multiplicity) of the kernel's and of sympy's decomposition."""
    got = sorted(gfmat.squarefree(f, field), key=lambda pair: pair[1])
    options = {"modulus": q} if q else {}
    _, pairs = to_sympy(f, **options).sqf_list()
    want = [(from_sympy(p.monic(), q), mult) for p, mult in pairs]
    return got, sorted(want, key=lambda pair: pair[1])


@settings(max_examples=200, deadline=None)
@given(monic_powers(4, 4))
@example([1, 2, 1])  # (x + 1)^2
@example([0, 0, 0, 1])  # x^3
def test_squarefree_over_q_matches_sympy(f):
    got, want = sqf_pairs(f, ratmat.Q)
    assert got == want
    assert all(c.denominator == 1 for part, _ in got for c in part)


@st.composite
def mod_q_powers(draw):
    """(q, f): a monic product over Z_q whose factors' multiplicities
    reach 2q, so that some are divisible by q."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 2))
        g = draw(st.lists(st.integers(0, q - 1), min_size=degree, max_size=degree))
        factors.append((g + [1], draw(st.integers(1, 2 * q))))
    return q, [c % q for c in poly_power_product(factors)]


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@settings(max_examples=200, deadline=None)
@given(mod_q_powers())
@example((2, [1, 0, 0, 0, 1]))  # (x + 1)^4: f' = 0
@example((3, [0, 0, 0, 1, 0, 0, 2, 0, 0, 1]))  # x^3 (x + 1)^6
@example((7, [6, 0, 0, 0, 0, 0, 0, 1]))  # x^7 - 1 = (x - 1)^7
def test_squarefree_over_z_q_matches_sympy(q_and_f):
    q, f = q_and_f
    got, want = sqf_pairs(f, ratmat.prime_field(q), q)
    assert got == want


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def polynomials(coefficients, min_degree=0, max_degree=6):
    """Ascending coefficient lists of the given degree range with a nonzero
    leading coefficient."""
    return st.builds(
        lambda body, lead: body + [lead],
        st.lists(coefficients, min_size=min_degree, max_size=max_degree),
        coefficients.filter(bool),
    )


def check_xgcd(a, b, field, q=0):
    g, s, t = gfmat.poly_xgcd(a, b, field)
    options = {"modulus": q} if q else {"domain": "QQ"}
    pa, pb = to_sympy(a, **options), to_sympy(b, **options)
    assert from_sympy(to_sympy(s, **options) * pa + to_sympy(t, **options) * pb, q) == g
    assert g == from_sympy(sympy.gcd(pa, pb).monic(), q)
    assert degree(s) < degree(b) and degree(t) < degree(a)


@settings(max_examples=200, deadline=None)
@given(polynomials(rationals, 1), polynomials(rationals, 1))
@example([Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)])  # b = 2a
def test_xgcd_over_q_matches_sympy(a, b):
    check_xgcd(a, b, ratmat.Q)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]).flatmap(
    lambda q: st.tuples(
        st.just(q),
        polynomials(st.integers(0, q - 1), 1),
        polynomials(st.integers(0, q - 1), 1),
    )
))
def test_xgcd_over_z_q_matches_sympy(q_a_b):
    q, a, b = q_a_b
    check_xgcd(a, b, ratmat.prime_field(q), q)


@settings(max_examples=200, deadline=None)
@given(polynomials(rationals, 0, 8), polynomials(rationals, 0, 4))
@example([Fraction(1), Fraction(2), Fraction(1)], [Fraction(3), Fraction(3)])  # exact
def test_division_over_q_by_a_non_monic_divisor(a, b):
    quot, rem = gfmat.poly_divmod(a, b, ratmat.Q)
    pa, pb = to_sympy(a, domain="QQ"), to_sympy(b, domain="QQ")
    assert from_sympy(to_sympy(quot, domain="QQ") * pb + to_sympy(rem, domain="QQ")) == a
    assert degree(rem) < degree(b)
    want_quot, want_rem = sympy.div(pa, pb)
    assert (quot, rem) == (from_sympy(want_quot), from_sympy(want_rem))


def test_the_zero_polynomial_is_the_empty_list():
    for field in (ratmat.Q, ratmat.prime_field(5)):
        assert gfmat.poly_divmod([1, 2, 1], [1, 1], field)[1] == []
        assert gfmat.poly_divmod([1], [0, 1], field)[0] == []
        assert gfmat.poly_gcd([], [], field) == []
        assert gfmat.derivative([3], field) == []
        assert gfmat.poly_sub([1, 2], [1, 2], field) == []
