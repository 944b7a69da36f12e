import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_algebra import (
    apply_matrix_by_entries,
    char_poly_substitute,
    mat_add,
    mat_mul_by_entries,
    mat_sub,
    s_value_set,
    scalar_mul,
    spectral_terms_by_eigenbasis_inverse,
    transpose_by_entries,
)
from smaralg import cli, linalg, ratmat
from smaralg.linalg import (
    SpectralDecomposition,
    SpectralDiagnostic,
    SubfieldMatrix,
    SubfieldVector,
    apply_matrix,
    bilinear_form_analyze,
    char_poly,
    eigen_system,
    identity_matrix,
    mat_mul,
    pseudo_inner_product,
    rref_and_nullspace,
    self_adjoint_check,
    spectral_decompose,
    to_prime_matrix,
    from_prime_matrix,
)
from smaralg.polylab import ModPolynomial
from smaralg.ringcore import Subfield, certify_subfield, find_subfields

Z3 = Subfield.whole_prime(3)
K03 = certify_subfield(6, {0, 3})
K024 = certify_subfield(6, {0, 2, 4})
K048 = certify_subfield(12, {0, 4, 8})
K0510 = certify_subfield(15, {0, 5, 10})


def z3_matrix():
    return SubfieldMatrix.from_rows(Z3, [[1, 0, 0], [0, 2, 2], [0, 2, 2]])


def z6_matrix():
    return SubfieldMatrix.from_rows(K024, [[4, 0, 0], [0, 2, 2], [0, 2, 2]])


def random_matrix(rng, k, dim):
    return SubfieldMatrix(
        k, dim, dim, tuple(rng.choice(k.elements) for _ in range(dim * dim))
    )


def _mat_mul_mod(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def self_adjoint_by_reflections(rng, k, diagonal):
    """Q·diag·Qᵀ over k with Q a product of three reflections
    I - 2vvᵀ/(vᵀv) over Z_q: Q is orthogonal, so the matrix is symmetric
    and diagonalizable with exactly the given eigenvalues (in Z_q)."""
    q, dim = k.prime_order, len(diagonal)
    qm = [[int(i == j) for j in range(dim)] for i in range(dim)]
    for _ in range(3):
        while True:
            v = [rng.randrange(q) for _ in range(dim)]
            s = sum(x * x for x in v) % q
            if s:
                break
        two_over = 2 * pow(s, -1, q)
        h = [[((i == j) - two_over * v[i] * v[j]) % q for j in range(dim)] for i in range(dim)]
        qm = _mat_mul_mod(qm, h, q)
    d = [[diagonal[i] if i == j else 0 for j in range(dim)] for i in range(dim)]
    prime = _mat_mul_mod(_mat_mul_mod(qm, d, q), [list(c) for c in zip(*qm)], q)
    return from_prime_matrix(k, prime)


class TestConstruction:
    def test_entry_validation(self):
        with pytest.raises(ValueError):
            SubfieldMatrix(K024, 1, 1, (3,))
        with pytest.raises(ValueError):
            SubfieldVector(K024, (1,))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SubfieldMatrix(K024, 2, 2, (0, 0, 0))


class TestArithmetic:
    def test_identity_law(self):
        a = z6_matrix()
        i_e = identity_matrix(K024, 3)
        assert mat_mul(i_e, a).entries == a.entries

    def test_eigen_action_of_paper_vector(self):
        a = z6_matrix()
        v = SubfieldVector(K024, (0, 4, 4))
        assert apply_matrix(a, v).entries == (0, 4, 4)  # 4 * (0,4,4) mod 6

    def test_kernel_vector(self):
        a = z6_matrix()
        assert apply_matrix(a, SubfieldVector(K024, (0, 2, 4))).entries == (0, 0, 0)

    def test_associativity_random(self):
        rng = random.Random(2)
        for k in (K03, K024, K048):
            for _ in range(30):
                a, b, c = (random_matrix(rng, k, 3) for _ in range(3))
                assert mat_mul(mat_mul(a, b), c).entries == mat_mul(a, mat_mul(b, c)).entries

    def test_mismatches(self):
        with pytest.raises(ValueError):
            mat_add(z6_matrix(), z3_matrix())
        # the products and their entrywise oracles reject with the same message
        a = z6_matrix()
        cases = [
            (mat_mul, mat_mul_by_entries, SubfieldMatrix(K024, 1, 1, (2,)),
             "shape mismatch for multiplication"),
            (apply_matrix, apply_matrix_by_entries, SubfieldVector(K024, (2,)),
             "shape mismatch for matrix-vector product"),
            (mat_mul, mat_mul_by_entries, z3_matrix(), "operands live over different subfields"),
            (apply_matrix, apply_matrix_by_entries, SubfieldVector(Z3, (1, 1, 1)),
             "operands live over different subfields"),
        ]
        for fast, oracle, other, message in cases:
            for fn in (fast, oracle):
                with pytest.raises(ValueError) as exc:
                    fn(a, other)
                assert str(exc.value) == message


# {0,2,4} in Z_6, every subfield of Z_10 and Z_26, and the whole Z_13
PRODUCT_CARRIERS = [K024, *find_subfields(10), *find_subfields(26), Subfield.whole_prime(13)]


@st.composite
def product_operands(draw):
    """(A, B, v) over one carrier with A r×m, B m×c and v of length m."""
    k = draw(st.sampled_from(PRODUCT_CARRIERS))
    r, m, c = (draw(st.integers(1, 6)) for _ in range(3))

    def entries(size):
        return draw(st.lists(st.sampled_from(k.elements), min_size=size, max_size=size))

    return (
        SubfieldMatrix(k, r, m, tuple(entries(r * m))),
        SubfieldMatrix(k, m, c, tuple(entries(m * c))),
        SubfieldVector(k, tuple(entries(m))),
    )


class TestRowColumnProducts:
    @settings(max_examples=300, deadline=None)
    @given(product_operands())
    @example((SubfieldMatrix(K024, 1, 1, (4,)), SubfieldMatrix(K024, 1, 1, (2,)),
              SubfieldVector(K024, (2,))))
    @example((SubfieldMatrix(K024, 1, 3, (2, 4, 4)), SubfieldMatrix(K024, 3, 1, (4, 2, 2)),
              SubfieldVector(K024, (2, 0, 4))))
    @example((SubfieldMatrix(K024, 3, 1, (2, 4, 4)), SubfieldMatrix(K024, 1, 3, (4, 2, 2)),
              SubfieldVector(K024, (4,))))
    def test_match_entrywise_oracles(self, operands):
        a, b, v = operands
        assert mat_mul(a, b) == mat_mul_by_entries(a, b)
        assert apply_matrix(a, v) == apply_matrix_by_entries(a, v)
        assert a.transpose() == transpose_by_entries(a)
        assert b.transpose() == transpose_by_entries(b)
        ab = mat_mul(a, b)
        if ab.is_square():
            assert self_adjoint_check(ab) == (ab == transpose_by_entries(ab))
        assert self_adjoint_check(mat_mul(a, a.transpose()))


class TestPrimeTransport:
    def test_paper_matrix(self):
        assert to_prime_matrix(z6_matrix()) == [[1, 0, 0], [0, 2, 2], [0, 2, 2]]

    def test_round_trip(self):
        rng = random.Random(4)
        for k in (K03, K024, K0510):
            m = random_matrix(rng, k, 3)
            assert from_prime_matrix(k, to_prime_matrix(m)).entries == m.entries

    def test_identity_maps_to_ones(self):
        d = SubfieldMatrix.from_rows(K03, [[3, 0], [0, 3]])
        assert to_prime_matrix(d) == [[1, 0], [0, 1]]


def test_golden_span_check_matches_coefficient_scan():
    from smaralg.golden import _in_span

    rng = random.Random(7)
    for k in (Z3, K03, K024, K048, K0510):
        q = k.prime_order
        for _ in range(40):
            vectors = [[rng.choice(k.elements) for _ in range(3)] for _ in range(rng.randint(1, 3))]
            target = [rng.choice(k.elements) for _ in range(3)]
            prime = [[k.to_prime(x) for x in v] for v in vectors]
            t = [k.to_prime(x) for x in target]
            scan = any(
                [sum(c * v[i] for c, v in zip(coeffs, prime)) % q for i in range(3)] == t
                for coeffs in itertools.product(range(q), repeat=len(prime))
            )
            assert _in_span(vectors, target, k) == scan


class TestRref:
    def test_eigenspace_of_paper_matrix(self):
        a = z6_matrix()
        shifted = mat_sub(a, scalar_mul(4, identity_matrix(K024, 3)))
        rank, _, basis = rref_and_nullspace(shifted)
        assert rank == 1 and len(basis) == 2
        entries = {v.entries for v in basis}
        assert entries == {(4, 0, 0), (0, 4, 4)}

    def test_zero_matrix(self):
        z = SubfieldMatrix(K03, 2, 2, (0, 0, 0, 0))
        rank, _, basis = rref_and_nullspace(z)
        assert rank == 0 and len(basis) == 2

    def test_identity(self):
        rank, _, basis = rref_and_nullspace(identity_matrix(K024, 3))
        assert rank == 3 and basis == []

    def test_rank_plus_nullity(self):
        rng = random.Random(9)
        for k in (K03, K024):
            for _ in range(50):
                m = random_matrix(rng, k, 3)
                rank, _, basis = rref_and_nullspace(m)
                assert rank + len(basis) == 3
                for v in basis:
                    assert apply_matrix(m, v).entries == (0, 0, 0)

    def test_one_elimination_per_call(self, monkeypatch):
        real = ratmat.rref
        calls = []

        def counting(a, field):
            calls.append(field)
            return real(a, field)

        rng = random.Random(4)
        for k in (K03, K024, K0510):
            for _ in range(10):
                m = random_matrix(rng, k, 4)
                field = ratmat.prime_field(k.prime_order)
                want = [
                    tuple(k.from_prime(x) for x in v)
                    for v in ratmat.nullspace(to_prime_matrix(m), field)
                ]
                monkeypatch.setattr(ratmat, "rref", counting)
                calls.clear()
                rank, _, basis = rref_and_nullspace(m)
                monkeypatch.setattr(ratmat, "rref", real)
                assert calls == [field]
                assert [v.entries for v in basis] == want and rank + len(want) == 4


class TestCharPoly:
    def test_z3_paper_value(self):
        assert char_poly(z3_matrix()).prime_coeffs == (0, 1, 1, 1)

    def test_z6_roots_in_k(self):
        cp = char_poly(z6_matrix())
        assert {lam for lam in (0, 2, 4) if cp.zn_rendition[lam] == 0} == {0, 4}

    def test_1x1_over_k03(self):
        cp = char_poly(SubfieldMatrix(K03, 1, 1, (3,)))
        assert cp.prime_coeffs == (1, 1)  # t + 1 over Z_2, root t = 1 <-> c = 3

    def test_monic(self):
        rng = random.Random(13)
        for k in (K03, K024, K048):
            m = random_matrix(rng, k, 3)
            coeffs = char_poly(m).prime_coeffs
            assert len(coeffs) == 4 and coeffs[-1] == 1

    def test_zn_rendition_consistent_on_k(self):
        rng = random.Random(17)
        for k in (K03, K024, K048, K0510):
            for _ in range(20):
                m = random_matrix(rng, k, 2)
                cp = char_poly(m)
                for lam in k.elements:
                    from smaralg.gfmat import poly_eval_mod

                    prime_val = poly_eval_mod(
                        list(cp.prime_coeffs), k.to_prime(lam), k.prime_order
                    )
                    assert cp.zn_rendition[lam] == k.from_prime(prime_val)

    def test_non_square(self):
        with pytest.raises(ValueError):
            char_poly(SubfieldMatrix(K03, 1, 2, (0, 3)))


class TestEigenSystem:
    def test_z3_paper_example(self):
        es = eigen_system(z3_matrix())
        data = {ev.value: ev for ev in es.s_values}
        assert data[1].algebraic_multiplicity == 2
        assert data[1].geometric_multiplicity == 2
        assert data[0].geometric_multiplicity == 1
        assert es.diagonalizable

    def test_z6_paper_example(self):
        es = eigen_system(z6_matrix())
        assert {(ev.value, ev.algebraic_multiplicity) for ev in es.s_values} == {
            (4, 2),
            (0, 1),
        }
        assert es.diagonalizable

    def test_alien_values(self):
        a = SubfieldMatrix.from_rows(K03, [[0, 3], [3, 0]])
        es = eigen_system(a)
        assert {ev.value for ev in es.s_values} == {3}
        assert [av.value for av in es.alien_values] == [1, 5]
        assert (3, 3) in {v.entries for ev in es.s_values for v in ev.basis}

    def test_alien_witness_verified(self):
        es = eigen_system(z6_matrix())
        for av in es.alien_values:
            assert av.witness is not None
            got = apply_matrix(es.matrix, av.witness).entries
            want = tuple((av.value * x) % 6 for x in av.witness.entries)
            assert got == want

    def test_eigen_pairs_verified(self):
        rng = random.Random(23)
        for k in (K03, K024, K048, K0510):
            for _ in range(25):
                a = random_matrix(rng, k, 3)
                es = eigen_system(a)
                for ev in es.s_values:
                    for v in ev.basis:
                        got = apply_matrix(a, v).entries
                        assert got == tuple((ev.value * x) % k.n for x in v.entries)


def exhaustive_eigen(a):
    """Oracle: test every (c, v) pair over the subfield."""
    k = a.k
    dim = a.rows
    values = set()
    for c in k.elements:
        for entries in itertools.product(k.elements, repeat=dim):
            if all(x == 0 for x in entries):
                continue
            v = SubfieldVector(k, entries)
            if apply_matrix(a, v).entries == tuple((c * x) % k.n for x in entries):
                values.add(c)
                break
    return values


def test_eigen_matches_exhaustive_search():
    for k in (K03, K024):
        for dim in (1, 2):
            for entries in itertools.product(k.elements, repeat=dim * dim):
                a = SubfieldMatrix(k, dim, dim, entries)
                es = eigen_system(a)
                assert s_value_set(es) == exhaustive_eigen(a), f"{k.elements} {entries}"


class TestCayleyHamilton:
    def test_paper_matrices(self):
        for a in (z3_matrix(), z6_matrix()):
            assert all(x == 0 for x in char_poly_substitute(a).entries)

    def test_random_suite(self):
        rng = random.Random(31)
        for k in (K03, K024, K048, K0510):
            for _ in range(50):
                dim = rng.randint(1, 4)
                a = random_matrix(rng, k, dim)
                assert all(x == 0 for x in char_poly_substitute(a).entries)


class TestPseudoInnerProduct:
    def test_orthogonal_eigenvectors(self):
        u = SubfieldVector(K024, (0, 4, 4))
        v = SubfieldVector(K024, (0, 2, 4))
        assert pseudo_inner_product(u, v) == 0

    def test_isotropic_polynomial(self):
        p = ModPolynomial(3, (1, 1, 1))
        assert pseudo_inner_product(p, p) == 0 and not p.is_zero()

    def test_zero_vector(self):
        v = SubfieldVector(K024, (2, 4, 0))
        z = SubfieldVector(K024, (0, 0, 0))
        assert pseudo_inner_product(v, z) == 0

    def test_symmetric_and_bilinear(self):
        rng = random.Random(41)
        k = K024
        for _ in range(200):
            u = SubfieldVector(k, tuple(rng.choice(k.elements) for _ in range(3)))
            v = SubfieldVector(k, tuple(rng.choice(k.elements) for _ in range(3)))
            w = SubfieldVector(k, tuple(rng.choice(k.elements) for _ in range(3)))
            a = rng.choice(k.elements)
            assert pseudo_inner_product(u, v) == pseudo_inner_product(v, u)
            au_plus_w = SubfieldVector(
                k, tuple((a * x + y) % 6 for x, y in zip(u.entries, w.entries))
            )
            assert pseudo_inner_product(au_plus_w, v) == (
                a * pseudo_inner_product(u, v) + pseudo_inner_product(w, v)
            ) % 6

    def test_polynomial_padding(self):
        p = ModPolynomial(3, (1, 1))
        q = ModPolynomial(3, (2,))
        assert pseudo_inner_product(p, q) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pseudo_inner_product(
                SubfieldVector(K03, (3,)), SubfieldVector(K03, (3, 0))
            )


class TestSelfAdjoint:
    def test_paper_matrices(self):
        assert self_adjoint_check(z3_matrix())
        assert self_adjoint_check(z6_matrix())

    def test_upper_triangular(self):
        assert not self_adjoint_check(SubfieldMatrix.from_rows(K03, [[0, 3], [0, 0]]))


class TestSpectral:
    def test_z3_paper_decomposition(self):
        sd = spectral_decompose(z3_matrix())
        assert isinstance(sd, SpectralDecomposition)
        assert [c for c, _ in sd.terms] == [1, 0]
        dims = [rref_and_nullspace(e)[0] for _, e in sd.terms]
        assert dims == [2, 1]

    def test_z6_paper_decomposition(self):
        sd = spectral_decompose(z6_matrix())
        assert [c for c, _ in sd.terms] == [4, 0]
        assert sd.residual_ok and sd.eigenspaces_pseudo_orthogonal

    def test_identity_trivial(self):
        for k in (K03, K024, K048):
            sd = spectral_decompose(identity_matrix(k, 3))
            assert len(sd.terms) == 1
            c, e = sd.terms[0]
            assert c == k.identity and e.entries == identity_matrix(k, 3).entries

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(SubfieldMatrix.from_rows(K03, [[0, 3], [0, 0]]))

    def test_zero_matrix_single_term(self):
        sd = spectral_decompose(SubfieldMatrix(K03, 2, 2, (0,) * 4))
        assert len(sd.terms) == 1
        c, e = sd.terms[0]
        assert c == 0 and e.entries == identity_matrix(K03, 2).entries

    def test_one_by_one(self):
        es = eigen_system(SubfieldMatrix(K03, 1, 1, (0,)))
        assert s_value_set(es) == {0} and es.diagonalizable

    def test_defective_diagnostic(self):
        a = SubfieldMatrix.from_rows(K03, [[0, 3], [3, 0]])
        result = spectral_decompose(a)
        assert isinstance(result, SpectralDiagnostic)
        assert result.reason == "defective_eigenvalue"
        assert result.defective_value == 3
        assert (result.geometric_multiplicity, result.algebraic_multiplicity) == (1, 2)

    def test_random_selfadjoint_reconstruction(self):
        rng = random.Random(43)
        for k in (K03, K024, K048, K0510):
            count = 0
            while count < 15:
                dim = rng.randint(1, 3)
                entries = [[rng.choice(k.elements) for _ in range(dim)] for _ in range(dim)]
                for i in range(dim):
                    for j in range(i):
                        entries[i][j] = entries[j][i]
                a = SubfieldMatrix.from_rows(k, entries)
                result = spectral_decompose(a)
                if isinstance(result, SpectralDiagnostic):
                    count += 1
                    continue
                # reconstruction identities are asserted inside; spot-check sums
                total = identity_matrix(k, dim)
                recon = SubfieldMatrix(k, dim, dim, (0,) * dim**2)
                for c, e in result.terms:
                    recon = mat_add(recon, scalar_mul(c, e))
                assert recon.entries == a.entries
                count += 1

    def test_dimension_5_from_reflections(self):
        a = dimension_5_self_adjoint()
        sd = spectral_decompose(a)
        assert sorted(a.k.to_prime(c) for c, _ in sd.terms) == [1, 4, 9, 12]

    def test_pseudo_orthogonality_for_distinct_values(self):
        sd = spectral_decompose(z6_matrix())
        es = eigen_system(z6_matrix())
        for i, evi in enumerate(es.s_values):
            for j, evj in enumerate(es.s_values):
                if i == j:
                    continue
                for u in evi.basis:
                    for v in evj.basis:
                        assert pseudo_inner_product(u, v) == 0


REVERIFICATION_MESSAGES = {
    "the values c_i must be distinct",
    "A must be self-adjoint",
    "eigenspace Gram matrix must be invertible",
    "E_i must be symmetric",
    "A E_i must equal c_i E_i",
    "projections must sum to I_e",
    "sum of c_i E_i must reconstruct A",
}


def dimension_5_self_adjoint():
    k = find_subfields(26)[-1]  # order 13 inside Z_26, identity 14
    return self_adjoint_by_reflections(random.Random(5), k, [1, 1, 4, 9, 12])


@pytest.mark.parametrize("make", [z6_matrix, dimension_5_self_adjoint])
class TestProjectionReverificationFires:
    """A Gram inverse that is wrong in one entry turns each E_i into
    B_i·(G_i⁻¹ + δ)·B_iᵀ, which is no projection, so some identity of the
    decomposition must fail its assert."""

    @pytest.fixture(autouse=True)
    def off_by_one_inverse(self, make, monkeypatch):
        real = ratmat.inverse
        q = make().k.prime_order

        def inverse(m, field=ratmat.Q):
            rows = [list(row) for row in real(m, field)]
            rows[0][0] = (rows[0][0] + 1) % q
            return tuple(map(tuple, rows))

        monkeypatch.setattr(linalg.ratmat, "inverse", inverse)

    def test_spectral_decompose_raises(self, make):
        with pytest.raises(AssertionError) as exc:
            spectral_decompose(make())
        assert str(exc.value) in REVERIFICATION_MESSAGES

    def test_cli_exits_internal_error(self, make, capsys):
        code = cli.main(["spectral", "--matrix", json.dumps(make().to_json())])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["status"] == "error"
        assert report["payload"]["reason"] == "internal_error"
        kind, _, message = report["payload"]["message"].partition(": ")
        assert kind == "AssertionError" and message in REVERIFICATION_MESSAGES


class TestBilinearForm:
    def test_identity_form(self):
        report, quad = bilinear_form_analyze(identity_matrix(K024, 3))
        assert report.rank == 3 and report.symmetric
        assert quad((4, 0, 0)) == 4  # 4*4*4 = 64 = 4 mod 6

    def test_zero_form(self):
        report, quad = bilinear_form_analyze(SubfieldMatrix(K024, 2, 2, (0,) * 4))
        assert report.rank == 0 and report.symmetric and report.skew
        assert quad((2, 4)) == 0

    def test_skew_example(self):
        g = SubfieldMatrix.from_rows(K024, [[0, 4], [2, 0]])
        report, _ = bilinear_form_analyze(g)
        assert not report.symmetric
        assert report.skew  # -4 = 2 mod 6

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(47)
        for k in (K03, K024, K048):
            for _ in range(40):
                g = random_matrix(rng, k, 3)
                r1, _, _ = rref_and_nullspace(g)
                r2, _, _ = rref_and_nullspace(g.transpose())
                assert r1 == r2


SPECTRAL_FIELDS = [
    k for n in (6, 10, 14, 15, 21, 22, 26, 33, 39, 66) for k in find_subfields(n)
] + [Subfield.whole_prime(q) for q in (5, 7, 11, 13)]


def terms_as_entries(terms):
    return [(c, e.entries) for c, e in terms]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(SPECTRAL_FIELDS),
    st.integers(1, 8),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_gram_projections_equal_the_eigenbasis_inverse_oracle(k, dim, by_reflections, rng):
    """The Gram projections equal B·D_i·B⁻¹ term for term, and the
    eigenspaces of a self-adjoint diagonalizable matrix are always
    pseudo-orthogonal.  Reflections give diagonalizable inputs with
    repeated values; plain symmetric matrices also give the diagnostics."""
    if by_reflections:
        a = self_adjoint_by_reflections(rng, k, [rng.randrange(k.prime_order) for _ in range(dim)])
    else:
        rows = [[rng.choice(k.elements) for _ in range(dim)] for _ in range(dim)]
        a = SubfieldMatrix.from_rows(k, [[rows[min(i, j)][max(i, j)] for j in range(dim)]
                                         for i in range(dim)])
    result = spectral_decompose(a)
    oracle = spectral_terms_by_eigenbasis_inverse(a)
    if isinstance(result, SpectralDiagnostic):
        assert oracle is None and not by_reflections
        return
    assert terms_as_entries(result.terms) == terms_as_entries(oracle)
    # the flag is set by theorem, so check it on the eigenbases themselves
    assert result.eigenspaces_pseudo_orthogonal
    s_values = eigen_system(a).s_values
    for i, evi in enumerate(s_values):
        for evj in s_values[i + 1:]:
            for u in evi.basis:
                for v in evj.basis:
                    assert pseudo_inner_product(u, v) == 0


def with_entry(proj, x, value):
    entries = list(proj.entries)
    entries[x] = value % proj.n
    return SubfieldMatrix(proj.k, proj.rows, proj.cols, tuple(entries))


class TestReverificationCatchesCorruption:
    """Corrupted terms handed straight to the re-verification: each must
    raise, while the true terms pass."""

    def setup_method(self):
        self.a = dimension_5_self_adjoint()
        self.terms = list(spectral_decompose(self.a).terms)

    def test_true_terms_pass(self):
        linalg._reverify_spectral(self.a, self.terms)

    def test_a_repeated_value_raises(self):
        # merging two terms under one value would void the derivation of E_iE_j = 0
        (c, e1), (_, e2) = self.terms[:2]
        with pytest.raises(AssertionError, match="^the values c_i must be distinct$"):
            linalg._reverify_spectral(self.a, [(c, e1), (c, e2), *self.terms[2:]])

    def test_each_entry_off_by_e_raises(self):
        e = self.a.k.identity
        for i, (c, proj) in enumerate(self.terms):
            for x in range(len(proj.entries)):
                bad = list(self.terms)
                bad[i] = (c, with_entry(proj, x, proj.entries[x] + e))
                with pytest.raises(AssertionError) as exc:
                    linalg._reverify_spectral(self.a, bad)
                assert str(exc.value) in REVERIFICATION_MESSAGES

    def test_a_symmetric_shift_that_keeps_both_sums_raises(self):
        # N·(x, y, z) added to E_1, E_2, E_3 with x + y + z = 0 and
        # c_1x + c_2y + c_3z = 0 leaves ΣE_i and Σc_iE_i unchanged
        a, n = self.a, self.a.n
        c1, c2, c3 = (c for c, _ in self.terms[:3])
        shifts = [(c3 - c2) % n, (c1 - c3) % n, (c2 - c1) % n]
        for r in range(a.rows):
            for s in range(r, a.rows):
                bad = list(self.terms)
                for t, x in enumerate(shifts):
                    c, proj = bad[t]
                    proj = with_entry(proj, r * a.cols + s, proj.at(r, s) + x * a.k.identity)
                    if r != s:
                        proj = with_entry(proj, s * a.cols + r, proj.at(s, r) + x * a.k.identity)
                    bad[t] = (c, proj)
                total = recon = SubfieldMatrix(a.k, a.rows, a.cols, (0,) * len(a.entries))
                for c, proj in bad:
                    total, recon = mat_add(total, proj), mat_add(recon, scalar_mul(c, proj))
                assert total.entries == identity_matrix(a.k, a.rows).entries
                assert recon.entries == a.entries
                with pytest.raises(AssertionError, match="^A E_i must equal c_i E_i$"):
                    linalg._reverify_spectral(a, bad)


@pytest.mark.parametrize("make", [
    dimension_5_self_adjoint,
    # sixteen distinct values over the order-17 subfield of Z_34
    lambda: self_adjoint_by_reflections(
        random.Random(16), certify_subfield(34, set(range(0, 34, 2))), list(range(1, 17))),
])
def test_spectral_inverts_only_gram_matrices_and_makes_k_full_products(make, monkeypatch):
    es = eigen_system(make())
    dim, k = es.matrix.rows, len(es.s_values)
    shapes, inverted = [], []
    products, inverse = linalg._products, ratmat.inverse

    def counted_products(rows, cols, n):
        shapes.append((len(rows), len(cols), len(rows[0])))
        return products(rows, cols, n)

    def counted_inverse(m, field=ratmat.Q):
        inverted.append((len(m), len(m[0])))
        return inverse(m, field)

    monkeypatch.setattr(linalg, "_products", counted_products)
    monkeypatch.setattr(linalg.ratmat, "inverse", counted_inverse)
    linalg._spectral_from_eigen(es)
    assert inverted == [(len(ev.basis), len(ev.basis)) for ev in es.s_values]
    assert shapes.count((dim, dim, dim)) == k
    assert sum(r * c * inner for r, c, inner in shapes) <= (k + 3) * dim ** 3
