"""Executable registry of the monograph's worked examples.

Each entry replays one numbered example or theorem instance from the
source text and asserts the printed values exactly.  The CLI `golden`
subcommand runs the whole registry; the acceptance suite requires every
anchor to pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import Record, econ, linalg, polylab, ratmat, ringcore, semigroup, semivector
from .polylab import FermatFamily, ModPolynomial, RootTruth, Verdict
from .semigroup import Side


@dataclass(frozen=True)
class GoldenResult(Record):
    anchor: str
    description: str
    passed: bool
    detail: str | None


def _subfield_sets(n):
    return [(s.elements, s.identity, s.prime_order) for s in ringcore.find_subfields(n)]


def check_subfields_z6():
    assert _subfield_sets(6) == [((0, 3), 3, 2), ((0, 2, 4), 4, 3)]


def check_subfields_z12():
    assert _subfield_sets(12) == [((0, 4, 8), 4, 3)]


def check_subfields_z15():
    assert _subfield_sets(15) == [((0, 5, 10), 10, 3), ((0, 3, 6, 9, 12), 6, 5)]


def check_subfields_z18():
    assert ((0, 9), 9, 2) in _subfield_sets(18)


def check_certify_z6_03():
    sf = ringcore.certify_subfield(6, {0, 3})
    assert sf.identity == 3 and sf.prime_order == 2


def check_x2_plus_1_z5():
    roots = polylab.roots_in(polylab.parse_poly("x^2+1 mod 5"), range(5))
    assert 2 in roots


def check_coeff_sum_product():
    product = polylab.poly_mul(ModPolynomial(3, (1, 0, 2)), ModPolynomial(3, (1, 1)))
    assert product.coeffs == (1, 1, 2, 2)  # 2x^3 + 2x^2 + x + 1
    report = polylab.reducibility_report(product)
    assert report.criterion_coeff_sum
    assert report.verdict is Verdict.HAS_ROOT and 2 in report.roots


def check_cube_of_x_plus_1():
    xp1 = ModPolynomial(3, (1, 1))
    cube = polylab.poly_mul(polylab.poly_mul(xp1, xp1), xp1)
    assert cube.coeffs == (1, 0, 0, 1)  # x^3 + 1
    report = polylab.reducibility_report(cube)
    assert report.criterion_xp_plus_1 and report.roots == (2,)


def check_rootless_z7():
    report = polylab.reducibility_report(polylab.parse_poly("2x^7+2x^5+4x+2 mod 7"))
    assert report.verdict is Verdict.ROOTLESS
    assert not (
        report.criterion_root
        or report.criterion_coeff_sum
        or report.criterion_equal_odd
        or report.criterion_xp_plus_1
    )


def check_xp_linear_family():
    for c in (1, 2):
        result = polylab.fermat_family_check(3, FermatFamily.XP_LINEAR, c)
        assert result.rootless, f"x^3+2x+{c} should be rootless"


def check_geometric_family():
    for c in (2, 3, 4):
        result = polylab.fermat_family_check(5, FermatFamily.GEOMETRIC_SUM, c)
        assert result.rootless


def check_power_sum_corollary():
    r = polylab.fermat_power_sum(5, 2, 5)
    assert r == {"sum": 0, "congruent": True}
    r = polylab.fermat_power_sum(7, 3, 7)
    assert r == {"sum": 0, "congruent": True}


def check_kernel_z3():
    kernel = {p.coeffs for p in polylab.kernel_of_hom(3, 1)}
    assert kernel == {(), (1, 2), (2, 1)}  # {0, 1+2x, 2+x}
    assert polylab.coeff_sum_hom(ModPolynomial(3, (1, 2))) == 0
    assert polylab.coeff_sum_hom(ModPolynomial(3, (2, 1))) == 0


def check_neutrosophic_z6():
    k = ringcore.certify_subfield(6, {0, 3})
    cls = polylab.neutrosophic_classify(polylab.parse_poly("x^2+2 mod 6"), k)
    assert cls.truth is RootTruth.INDETERMINATE
    assert cls.alien_roots == (2, 4) and cls.in_field_roots == ()


def _z3_matrix():
    return linalg.SubfieldMatrix.from_rows(
        ringcore.Subfield.whole_prime(3), [[1, 0, 0], [0, 2, 2], [0, 2, 2]]
    )


def _z6_matrix():
    k = ringcore.certify_subfield(6, {0, 2, 4})
    return linalg.SubfieldMatrix.from_rows(k, [[4, 0, 0], [0, 2, 2], [0, 2, 2]])


def check_z6_operator_action():
    a = _z6_matrix()
    v1 = linalg.SubfieldVector(a.k, (0, 4, 4))
    assert linalg.apply_matrix(a, v1).entries == tuple((4 * x) % 6 for x in v1.entries)
    v0 = linalg.SubfieldVector(a.k, (0, 2, 4))
    assert linalg.apply_matrix(a, v0).entries == (0, 0, 0)


def check_z3_charpoly():
    cp = linalg.char_poly(_z3_matrix())
    assert cp.prime_coeffs == (0, 1, 1, 1)  # t^3 + t^2 + t  (= t^3 - 2t^2 + t mod 3)


def check_z6_charpoly_roots_in_k():
    a = _z6_matrix()
    cp = linalg.char_poly(a)
    in_k = {lam for lam in range(6) if cp.zn_rendition[lam] == 0 and a.k.contains(lam)}
    assert in_k == {0, 4}


def _in_span(vectors, target, k):
    columns = [[k.to_prime(v[i]) for v in vectors] for i in range(len(target))]
    t = [k.to_prime(x) for x in target]
    return ratmat.solve(columns, [t], ratmat.prime_field(k.prime_order))[0] is not None


def check_z3_eigen():
    es = linalg.eigen_system(_z3_matrix())
    data = {ev.value: ev for ev in es.s_values}
    assert set(data) == {0, 1}
    assert data[1].algebraic_multiplicity == 2 and data[1].geometric_multiplicity == 2
    assert data[0].geometric_multiplicity == 1
    k = es.matrix.k
    basis1 = [v.entries for v in data[1].basis]
    assert _in_span(basis1, (0, 1, 1), k) and _in_span(basis1, (1, 1, 1), k)
    assert _in_span([v.entries for v in data[0].basis], (0, 2, 1), k)


def check_z6_eigen():
    es = linalg.eigen_system(_z6_matrix())
    data = {ev.value: ev for ev in es.s_values}
    assert set(data) == {0, 4}
    assert data[4].algebraic_multiplicity == 2
    assert data[0].algebraic_multiplicity == 1
    assert es.diagonalizable
    k = es.matrix.k
    basis4 = [v.entries for v in data[4].basis]
    assert _in_span(basis4, (0, 4, 4), k) and _in_span(basis4, (4, 4, 4), k)
    assert _in_span([v.entries for v in data[0].basis], (0, 2, 4), k)


def check_z3_spectral():
    assert linalg.self_adjoint_check(_z3_matrix())
    sd = linalg.spectral_decompose(_z3_matrix())
    assert isinstance(sd, linalg.SpectralDecomposition)
    values = [c for c, _ in sd.terms]
    assert values == [1, 0]
    rank1, _, _ = linalg.rref_and_nullspace(sd.terms[0][1])
    rank2, _, _ = linalg.rref_and_nullspace(sd.terms[1][1])
    assert (rank1, rank2) == (2, 1)


def check_z6_spectral():
    a = _z6_matrix()
    assert linalg.self_adjoint_check(a)
    sd = linalg.spectral_decompose(a)
    assert isinstance(sd, linalg.SpectralDecomposition)
    assert [c for c, _ in sd.terms] == [4, 0]
    assert sd.residual_ok and sd.eigenspaces_pseudo_orthogonal
    # the flag is set by theorem; the eigenbases show it
    s_values = linalg.eigen_system(a).s_values
    for i, evi in enumerate(s_values):
        for evj in s_values[i + 1:]:
            assert all(linalg.pseudo_inner_product(u, v) == 0
                       for u in evi.basis for v in evj.basis)


def check_left_right_isomorphic():
    # cyclic group of order 3 given by its Cayley table
    table = semigroup.validate_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    z3 = semigroup.find_subgroups(table)[0]
    assert z3.order == 3
    left = semigroup.regular_representation(z3, Side.LEFT)
    right = semigroup.regular_representation(z3, Side.RIGHT)
    t = semigroup.left_right_intertwiner(left, right)
    for x in z3.elements:
        assert ratmat.mat_mul(t, right.matrix(x)) == ratmat.mat_mul(left.matrix(x), t)
    assert semigroup.rep_isomorphic(left, right).isomorphic


def check_three_independent_vectors():
    nn = semivector.NonNegIntegers()
    u = [semivector.SemivectorTuple(nn, t) for t in [(1, 1), (2, 1), (3, 0)]]
    t13 = semivector.SemivectorTuple(nn, (1, 3))
    assert semivector.independence_check(u).independent
    assert not semivector.span_membership(t13, u).member
    assert not semivector.spans_space(u, 2).spans
    assert semivector.independence_check(u + [t13]).independent


def check_unit_vector_basis():
    nn = semivector.NonNegIntegers()
    units = [
        semivector.SemivectorTuple(nn, tuple(1 if i == j else 0 for i in range(3)))
        for j in range(3)
    ]
    assert semivector.spans_space(units, 3).spans
    assert semivector.independence_check(units).independent
    for j, u in enumerate(units):
        reps = semivector.enumerate_representations(u, units)
        assert reps == [tuple(1 if i == j else 0 for i in range(3))]
    for drop in range(3):
        rest = [u for i, u in enumerate(units) if i != drop]
        assert not semivector.spans_space(rest, 3).spans


def check_chain_representations():
    c4 = semivector.ChainLattice(4)  # 0 < b(1) < a(2) < 1(3)
    basis = [semivector.SemivectorTuple(c4, (x,)) for x in (2, 1, 3)]  # a, b, 1
    scalars = [0, 3]  # the embedded two-element Boolean algebra
    assert semivector.spans_space(basis, "carrier", scalars=scalars).spans
    one = semivector.SemivectorTuple(c4, (3,))
    a = semivector.SemivectorTuple(c4, (2,))
    assert len(semivector.enumerate_representations(one, basis, scalars=scalars)) == 4
    assert len(semivector.enumerate_representations(a, basis, scalars=scalars)) == 2


def check_lattices_are_semivector_spaces():
    assert semivector.lattice_semivector_check(*semivector.chain_tables(4)).ok
    join = [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]]
    meet = [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2], [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]]
    assert semivector.lattice_semivector_check(join, meet).ok


def check_closed_model():
    a = ratmat.mat([["1/2", "1/4"], ["1/2", "3/4"]])
    sol = econ.closed_solve(a)
    assert sol.unique and sol.representative == (Fraction(1, 3), Fraction(2, 3))


def check_open_model():
    c = ratmat.mat([["1/5", "3/10"], ["2/5", "1/10"]])
    sol = econ.open_solve(c, [10, 10])
    assert sol.productive and sol.solution == (Fraction(20), Fraction(20))
    assert sol.row_sums_below_one


REGISTRY: list[tuple[str, str, object]] = [
    ("Thm 2.9.9", "the only subfields of Z_6 are {0,3} and {0,2,4}", check_subfields_z6),
    ("Ex 2.4.2", "Z_12 has the subfield {0,4,8} with identity 4", check_subfields_z12),
    ("Ex 2.4.4", "Z_15: {0,5,10} with unit 10 and {0,3,6,9,12} ~ Z_5", check_subfields_z15),
    ("Ex 2.4.3", "Z_18 contains the field {0,9}", check_subfields_z18),
    ("Ex 2.4.1", "{0,3} is certified as a field inside Z_6", check_certify_z6_03),
    ("Ex 1.6.1", "x^2+1 has the root 2 in Z_5", check_x2_plus_1_z5),
    ("Ex 1.6.2", "coefficient-sum criterion for 2x^3+2x^2+x+1 over Z_3", check_coeff_sum_product),
    ("Ex 1.6.4", "x^3+1 = (x+1)^3 over Z_3", check_cube_of_x_plus_1),
    ("Ex 1.6.5", "2x^7+2x^5+4x+2 is rootless over Z_7", check_rootless_z7),
    ("Ex 1.6.6", "x^3+2x+c is rootless over Z_3 for c != 0", check_xp_linear_family),
    ("Ex 1.6.7", "x^4+x^3+x^2+x+c is rootless over Z_5 for c not in {0,1}", check_geometric_family),
    ("Thm 1.6.2", "power-sum form of Fermat's theorem", check_power_sum_corollary),
    ("Ex 1.6.8", "ker phi = {0, 1+2x, 2+x} over Z_3", check_kernel_z3),
    ("Ex 3.1.1", "x^2+2 over Z_6 is indeterminate with roots 2, 4 outside {0,3}", check_neutrosophic_z6),
    ("Ex 2.4.8a", "the Z_6 operator fixes (0,4,4) up to the scalar 4 and kills (0,2,4)", check_z6_operator_action),
    ("Ex 1.6.9a", "characteristic polynomial t^3 - 2t^2 + t over Z_3", check_z3_charpoly),
    ("Ex 2.4.8b", "S-characteristic values of the Z_6 operator are 0 and 4", check_z6_charpoly_roots_in_k),
    ("Ex 1.6.9b", "eigenvalues 1, 1, 0 with vectors (0,1,1), (1,1,1), (0,2,1)", check_z3_eigen),
    ("Ex 2.4.8c", "eigen system over {0,2,4}: 4 twice, 0 once, diagonalizable", check_z6_eigen),
    ("Ex 1.6.9c", "spectral form T = 1*E1 + 0*E2 with dims (2,1)", check_z3_spectral),
    ("Ex 2.4.8d", "spectral form T = 4*E1 + 0*E2, self-adjoint, orthogonal spaces", check_z6_spectral),
    ("S2.6", "left and right regular representations are isomorphic", check_left_right_isomorphic),
    ("Thm 1.9.10", "{(1,1),(2,1),(3,0)} independent, (1,3) outside the span", check_three_independent_vectors),
    ("Ex 1.9.11", "the unit vectors are the only basis of the triple space", check_unit_vector_basis),
    ("Thm 1.9.15", "element 1 of C_4 has 4 representations, a has 2", check_chain_representations),
    ("Thm 1.9.13", "chain C_4 and diamond M_3 are semivector spaces over C_2", check_lattices_are_semivector_spaces),
    ("S3.3 closed", "closed model equilibrium (1/3, 2/3)", check_closed_model),
    ("S3.3 open", "open model x = (20, 20), productive", check_open_model),
]


def run_golden() -> list[GoldenResult]:
    results = []
    for anchor, description, fn in REGISTRY:
        try:
            fn()
            results.append(GoldenResult(anchor, description, True, None))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the runner
            results.append(GoldenResult(anchor, description, False, f"{type(exc).__name__}: {exc}"))
    return results
