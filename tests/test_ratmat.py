"""The one Gauss-Jordan kernel in ratmat, over Z_q and over Q, the
zero-skipping matrix products and the minimal polynomial.

Cross-checked on hypothesis-generated matrices (empty, zero, mostly
zero, non-square, rank-deficient, unreduced mod q) against the separate
Z_q and rational loops it replaced, against the dense products and
against the minimal polynomial solved one degree at a time, all kept in
reference_algebra.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_algebra import (
    dense_mat_mul,
    dense_mat_vec,
    min_poly_by_degree,
    rat_det,
    rat_rref,
    rat_solve,
    rref_mod,
)
from smaralg import ratmat, semigroup
from smaralg.semigroup import (
    Side,
    decompose_invariants,
    find_subgroups,
    regular_representation,
    validate_table,
)
from test_semigroup import GROUPS

PRIMES = [2, 3, 5, 7, 11, 13]


def mostly_zero(entries):
    """Zero three times in four, otherwise an entry drawn from entries."""
    return st.integers(0, 3).flatmap(lambda k: entries if k == 0 else st.just(0))


@st.composite
def matrices(draw, entries, max_rows=6, max_cols=7):
    """Row lists of equal length; some rows are combinations of earlier
    ones, so rank deficiency is common.  Some matrices are mostly zeros,
    so row updates often meet zero entries of the pivot row."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    if draw(st.booleans()):
        entries = mostly_zero(entries)
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            a, b = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            c = draw(st.integers(-2, 2))
            m.append([x + c * y for x, y in zip(a, b)])
        else:
            m.append([draw(entries) for _ in range(cols)])
    return m


small_ints = st.integers(-30, 30)
rationals = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=6)
)


def nullspace_reference(reduced, pivots, cols, neg):
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = neg(reduced[r][f])
        basis.append(tuple(v))
    return basis


def mat_vec_mod(m, v, q):
    return [sum(x * y for x, y in zip(row, v)) % q for row in m]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), matrices(small_ints))
def test_zq_rref_nullspace_rank_match_reference(q, m):
    field = ratmat.prime_field(q)
    reduced, pivots = ratmat.rref(m, field)
    ref, ref_pivots = rref_mod(m, q)
    assert pivots == ref_pivots
    # the reference leaves rows it never touches unreduced
    assert reduced == [[x % q for x in row] for row in ref]
    assert ratmat.rank(m, field) == len(pivots)
    cols = len(m[0]) if m else 0
    basis = ratmat.nullspace(m, field)
    assert basis == nullspace_reference(reduced, pivots, cols, lambda x: -x % q)
    assert basis == ratmat.nullspace_from_rref(reduced, pivots, cols, field)
    assert len(basis) == cols - len(pivots)
    for v in basis:
        assert all(0 <= x < q for x in v)
        assert mat_vec_mod(m, v, q) == [0] * len(m)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(0, 6), st.data())
def test_zq_inverse(q, dim, data):
    field = ratmat.prime_field(q)
    m = [[data.draw(small_ints) for _ in range(dim)] for _ in range(dim)]
    inv = ratmat.inverse(m, field)
    if len(rref_mod(m, q)[1]) < dim:
        assert inv is None
    else:
        for i in range(dim):
            column = mat_vec_mod(m, [row[i] for row in inv], q)
            assert column == [int(i == j) for j in range(dim)]
            assert all(0 <= x < q for x in inv[i])


@settings(max_examples=200, deadline=None)
@given(matrices(rationals, max_rows=5, max_cols=6))
def test_q_rref_nullspace_rank_match_reference(m):
    m = ratmat.mat(m)
    reduced, pivots = ratmat.rref(m)
    assert (reduced, pivots) == rat_rref(m)
    assert ratmat.rank(m) == len(pivots)
    cols = len(m[0]) if m else 0
    basis = ratmat.nullspace(m)
    assert basis == nullspace_reference(reduced, pivots, cols, lambda x: -x)
    for v in basis:
        assert ratmat.mat_vec(m, v) == (0,) * len(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.data())
def test_q_inverse_and_rank_decide_invertibility_as_det(dim, data):
    m = ratmat.mat([[data.draw(rationals) for _ in range(dim)] for _ in range(dim)])
    invertible = rat_det(m) != 0
    assert (ratmat.rank(m) == dim) == invertible
    inv = ratmat.inverse(m)
    assert (inv is not None) == invertible
    if invertible:
        assert ratmat.mat_mul(m, inv) == ratmat.identity(dim)


@settings(max_examples=200, deadline=None)
@given(matrices(rationals, max_rows=5, max_cols=5), st.data())
def test_q_solve_answers_each_column_as_one_column_solve(a, data):
    a = ratmat.mat(a)
    rows, cols = len(a), len(a[0]) if a else 0
    bs = []
    for _ in range(data.draw(st.integers(0, 5))):
        if data.draw(st.booleans()):  # consistent: A x for some x
            x = [data.draw(rationals) for _ in range(cols)]
            bs.append(ratmat.mat_vec(a, x) if a else ())
        else:
            bs.append(ratmat.vec([data.draw(rationals) for _ in range(rows)]))
    got = ratmat.solve(a, bs)
    assert got == [rat_solve(a, b) for b in bs]
    for b, x in zip(bs, got):
        if x is not None and a:
            assert ratmat.mat_vec(a, x) == b


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES), matrices(small_ints, max_rows=5, max_cols=5), st.data())
def test_zq_solve(q, a, data):
    field = ratmat.prime_field(q)
    rows, cols = len(a), len(a[0]) if a else 0
    bs = [[data.draw(small_ints) for _ in range(rows)] for _ in range(data.draw(st.integers(0, 4)))]
    rank_a = len(rref_mod(a, q)[1])
    for b, x in zip(bs, ratmat.solve(a, bs, field)):
        augmented = [row + [bi] for row, bi in zip(a, b)]
        consistent = len(rref_mod(augmented, q)[1]) == rank_a if a else True
        assert (x is not None) == consistent
        if x is not None:
            assert mat_vec_mod(a, x, q) == [bi % q for bi in b]


def test_solve_in_span_with_empty_basis():
    assert ratmat.solve_in_span([], [(0, 0), (0, 1)]) == [(), None]
    assert ratmat.solve_in_span([(1, 1)], []) == []


def test_empty_and_zero_matrices():
    for field in (ratmat.Q, ratmat.prime_field(5)):
        assert ratmat.rref([], field) == ([], [])
        assert ratmat.rref([[]], field) == ([[]], [])
        assert ratmat.nullspace([[0, 0]], field) == [(1, 0), (0, 1)]
        assert ratmat.inverse([], field) == ()
        assert ratmat.inverse([[0]], field) is None
        assert ratmat.rank([[0, 0], [0, 0]], field) == 0


@pytest.fixture
def eliminations(monkeypatch):
    calls = []
    real = ratmat.rref

    def counting(m, field=ratmat.Q):
        calls.append(len(m))
        return real(m, field)

    monkeypatch.setattr(ratmat, "rref", counting)
    return calls


@pytest.mark.parametrize("order", [3, 4, 6])
def test_restrict_eliminates_once(order, eliminations):
    table = validate_table([[(i + j) % order for j in range(order)] for i in range(order)])
    rep = regular_representation(find_subgroups(table)[0], Side.LEFT)
    # the sum of the indicators spans the trivial block; with all of
    # the space it gives an invariant subspace of each dimension
    whole = [tuple(Fraction(int(i == j)) for i in range(order)) for j in range(order)]
    for basis in ([ratmat.vec([1] * order)], whole):
        eliminations.clear()
        restricted, witness = semigroup._restrict(rep, basis)
        assert len(eliminations) == 1 and witness is None
        assert restricted[1] == (
            ((Fraction(1),),) if len(basis) == 1 else rep.matrix(1)
        )
    # the first indicator alone is moved by the first element past the identity
    eliminations.clear()
    assert semigroup._restrict(rep, whole[:1]) == (None, 1)
    assert len(eliminations) == 1


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_projection_onto_eliminates_once(dim, eliminations):
    w = [ratmat.vec([1] * dim), ratmat.vec([0, 1] + [0] * (dim - 2))]
    p = semigroup.projection_onto(w, dim)
    assert len(eliminations) == 1
    assert ratmat.mat_mul(p, p) == p
    for v in w:
        assert ratmat.mat_vec(p, v) == v


def all_fractions(xs) -> bool:
    return all(type(x) is Fraction for x in xs)


@st.composite
def factors(draw, rows, cols):
    """A rows x cols rational matrix: all zero, a permutation matrix (when
    square), mostly zero or dense."""
    kinds = ["zero", "sparse", "dense"] + ["permutation"] * (rows == cols)
    kind = draw(st.sampled_from(kinds))
    if kind == "permutation":
        image = draw(st.permutations(range(rows)))
        return ratmat.mat([[int(j == image[i]) for j in range(cols)] for i in range(rows)])
    entries = {"zero": st.just(0), "sparse": mostly_zero(rationals), "dense": rationals}[kind]
    return ratmat.mat([[draw(entries) for _ in range(cols)] for _ in range(rows)])


sizes = st.integers(0, 6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_product(data):
    """Empty, 1 x n, n x 1, zero, permutation, mostly-zero and dense
    factors, square ones often, so permutation times permutation is
    common."""
    if data.draw(st.booleans()):
        rows = inner = cols = data.draw(sizes)
    else:
        rows, inner, cols = data.draw(sizes), data.draw(sizes), data.draw(sizes)
    a, b = data.draw(factors(rows, inner)), data.draw(factors(inner, cols))
    got = ratmat.mat_mul(a, b)
    assert got == dense_mat_mul(a, b)
    assert all(all_fractions(row) for row in got)


@settings(max_examples=300, deadline=None)
@given(sizes, sizes, st.data())
def test_mat_vec_matches_dense_product(rows, cols, data):
    a = data.draw(factors(rows, cols))
    v = data.draw(factors(1, cols))[0] if cols else ()
    got = ratmat.mat_vec(a, v)
    assert got == dense_mat_vec(a, v)
    assert all_fractions(got)


def test_permutation_product_multiplies_only_nonzero_entries():
    products = []

    class Counted(Fraction):
        def __mul__(self, other):
            products.append(1)
            return super().__mul__(other)

    def permutation(f):
        return tuple(tuple(Counted(int(j == f(i))) for j in range(8)) for i in range(8))

    a, b = permutation(lambda i: (3 * i + 1) % 8), permutation(lambda i: (5 * i + 2) % 8)
    got = ratmat.mat_mul(a, b)
    assert len(products) <= 8
    # row i of a picks row 3i+1 of b, whose one is in column 5(3i+1)+2
    assert got == ratmat.mat([[int(j == (15 * i + 7) % 8) for j in range(8)] for i in range(8)])


@st.composite
def square_matrices(draw):
    """d x d rational matrices, 1 <= d <= 6: zero, scalar, nilpotent
    (strictly upper triangular), permutation, mostly zero, dense, or one
    of these repeated as two diagonal blocks, whose minimal polynomial is
    of lower degree than d."""
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["scalar", "nilpotent", "blocks", "other"]))
    if kind == "scalar":
        return ratmat.scale(draw(rationals), ratmat.identity(d))
    if kind == "nilpotent":
        return ratmat.mat([[draw(rationals) if j > i else 0 for j in range(d)] for i in range(d)])
    if kind == "blocks":
        k = draw(st.integers(1, 3))
        b = draw(factors(k, k))
        return ratmat.mat(
            [[b[i % k][j % k] if i // k == j // k else 0 for j in range(2 * k)]
             for i in range(2 * k)]
        )
    return draw(factors(d, d))


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_min_poly_matches_per_degree_solve(m):
    got = ratmat.min_poly(m)
    assert got == min_poly_by_degree(m)
    assert all_fractions(got) and got[-1] == 1
    assert semigroup._matrix_poly(got, m) == ratmat.zeros(len(m), len(m))


def test_min_poly_eliminates_once(eliminations):
    # a repeated eigenvalue: dimension 4, minimal polynomial (x-1)(x-2)(x-3)
    m = ratmat.mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    assert ratmat.min_poly(m) == [-6, 11, -6, 1]
    assert len(eliminations) == 1


@pytest.mark.parametrize("name, most", [("C8", 37), ("Q8", 64)])
def test_decompose_eliminations(name, most, eliminations):
    # each invariance system is solved once, a split is made on the first
    # factor of the minimal polynomial, and each minimal polynomial is
    # one elimination
    decompose_invariants(regular_representation(GROUPS[name], Side.LEFT))
    assert len(eliminations) <= most
