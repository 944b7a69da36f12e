"""Oracle cross-checks for the Hessenberg characteristic polynomial.

`gfmat.charpoly_mod` and the closed-form `zn_rendition` are checked
against reference implementations that share no code with them: a
memoized integer cofactor determinant, the cofactor expansion of
det(tI - A) in the polynomial ring over Z_q, and sympy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaralg.gfmat import charpoly_mod, poly_eval_mod
from smaralg.linalg import SubfieldMatrix, char_poly, eigen_system
from smaralg.ringcore import find_subfields

PRIMES = (2, 3, 5, 7, 11, 13)


def int_det(a) -> int:
    """Exact integer determinant by cofactor expansion memoized on
    column masks."""
    dim = len(a)
    memo = {}

    def minor(row: int, mask: int) -> int:
        if row == dim:
            return 1
        if mask in memo:
            return memo[mask]
        total = 0
        sign = 1
        for c in range(dim):
            bit = 1 << c
            if not mask & bit:
                continue
            if a[row][c] != 0:
                total += sign * a[row][c] * minor(row + 1, mask & ~bit)
            sign = -sign
        memo[mask] = total
        return total

    return minor(0, (1 << dim) - 1)


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return _poly_trim(out)


def _poly_add(a, b, q, sign=1):
    length = max(len(a), len(b))
    pa = a + [0] * (length - len(a))
    pb = b + [0] * (length - len(b))
    return _poly_trim([(x + sign * y) % q for x, y in zip(pa, pb)])


def cofactor_charpoly(a, q: int) -> list[int]:
    """det(tI - A) over Z_q by cofactor expansion along the first row of a
    matrix of polynomial entries; ascending coefficients."""
    dim = len(a)
    table = [
        [_poly_trim([(-a[r][c]) % q, 1] if r == c else [(-a[r][c]) % q]) for c in range(dim)]
        for r in range(dim)
    ]

    def det_poly(m):
        if len(m) == 1:
            return m[0][0]
        total = []
        for j in range(len(m)):
            if m[0][j]:
                sub = [row[:j] + row[j + 1 :] for row in m[1:]]
                term = _poly_mul(m[0][j], det_poly(sub), q)
                total = _poly_add(total, term, q, -1 if j % 2 else 1)
        return total

    poly = det_poly(table)
    return poly + [0] * (dim + 1 - len(poly))


@st.composite
def prime_matrices(draw):
    q = draw(st.sampled_from(PRIMES))
    dim = draw(st.integers(1, 6))
    # a sparse bias exercises the zero-pivot and row-swap branches
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
    return q, rows


@settings(max_examples=200, deadline=None)
@given(prime_matrices())
def test_charpoly_matches_cofactor_expansion(case):
    q, a = case
    assert charpoly_mod(a, q) == cofactor_charpoly(a, q)


@settings(max_examples=200, deadline=None)
@given(prime_matrices())
def test_charpoly_values_match_integer_determinants(case):
    q, a = case
    dim = len(a)
    p = charpoly_mod(a, q)
    for r in range(q):
        shifted = [[(r if i == j else 0) - a[i][j] for j in range(dim)] for i in range(dim)]
        assert poly_eval_mod(p, r, q) == int_det(shifted) % q


@settings(max_examples=100, deadline=None)
@given(prime_matrices())
def test_charpoly_matches_sympy(case):
    sympy = pytest.importorskip("sympy")
    q, a = case
    want = [int(c) % q for c in reversed(sympy.Matrix(a).charpoly().all_coeffs())]
    assert charpoly_mod(a, q) == want


CARRIERS = [k for n in (6, 12, 15, 30, 66) for k in find_subfields(n)]


@st.composite
def subfield_matrices(draw):
    k = draw(st.sampled_from(CARRIERS))
    dim = draw(st.integers(1, 4))
    entries = draw(st.lists(st.sampled_from(k.elements), min_size=dim * dim, max_size=dim * dim))
    return SubfieldMatrix(k, dim, dim, tuple(entries))


@settings(max_examples=150, deadline=None)
@given(subfield_matrices())
def test_zn_rendition_and_aliens_match_integer_determinants(a):
    k, n, dim = a.k, a.n, a.rows
    assert k.identity != 1
    rendition = []
    for lam in range(n):
        m = [
            [((lam * k.identity if i == j else 0) - a.at(i, j)) % n for j in range(dim)]
            for i in range(dim)
        ]
        rendition.append(int_det(m) % n)
    assert char_poly(a).zn_rendition == tuple(rendition)
    aliens = [lam for lam in range(n) if not k.contains(lam) and rendition[lam] == 0]
    assert [av.value for av in eigen_system(a).alien_values] == aliens


def test_order_11_subfield_of_z66():
    (k,) = [s for s in find_subfields(66) if s.prime_order == 11]
    assert (k.identity, k.elements[:3]) == (12, (0, 6, 12))
    a = SubfieldMatrix.from_rows(k, [[12, 6], [0, 24]])  # upper triangular, c = 12 and 24
    es = eigen_system(a)
    assert {ev.value for ev in es.s_values} == {12, 24}
    # lam is alien iff lam mod 11 is 1 or 2 (the images of 12 and 24) and lam is outside k
    expected = [lam for lam in range(66) if lam % 11 in (1, 2) and lam % 6 != 0]
    assert [av.value for av in es.alien_values] == expected
