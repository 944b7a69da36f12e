"""Acceptance suite: one test per criterion, exact values, timed.

Every check here is exact (integer or Fraction equality, no tolerance);
each test prints a single PASS line with its runtime so the suite reads
as a checklist under `pytest -v -s tests/test_acceptance.py`.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from smaralg import linalg, ratmat
from smaralg.cli import main as cli_main
from smaralg.econ import NON_PRODUCTIVE_LABEL, closed_solve, open_solve
from smaralg.gfmat import charpoly_mod
from smaralg.polylab import (
    FermatFamily,
    RootTruth,
    Verdict,
    fermat_family_check,
    kernel_of_hom,
    neutrosophic_classify,
    parse_poly,
    reducibility_report,
    roots_in,
)
from smaralg.ringcore import Subfield, certify_subfield, find_subfields
from smaralg.semigroup import (
    Side,
    averaged_projection,
    decompose_invariants,
    find_subgroups,
    left_right_intertwiner,
    projection_onto,
    regular_representation,
    rep_isomorphic,
)
from smaralg.semivector import (
    ChainLattice,
    NonNegIntegers,
    SemivectorTuple,
    enumerate_representations,
    independence_check,
    span_membership,
    spans_space,
)

from reference_algebra import (
    best_by_vertex_enumeration,
    char_poly_substitute,
    mat_add,
    mat_mul_by_entries,
    rref_mod,
    scalar_mul,
    subfield_oracle,
    table_from_operation,
)


class Timer:
    def __init__(self, limit: float, label: str):
        self.limit = limit
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.label}: {elapsed:.2f}s exceeded the {self.limit}s budget"
            )
            print(f"[PASS] {self.label} ({elapsed:.2f}s < {self.limit}s)")
        else:
            print(f"[FAIL] {self.label}")
        return False


def field_sets(n):
    return {(s.elements, s.identity) for s in find_subfields(n)}


def test_criterion_01_subfield_discovery():
    with Timer(1.0, "criterion 1: subfield discovery"):
        assert field_sets(6) == {((0, 3), 3), ((0, 2, 4), 4)}
        assert ((0, 4, 8), 4) in field_sets(12)
        assert field_sets(15) == {((0, 5, 10), 10), ((0, 3, 6, 9, 12), 6)}
        assert ((0, 9), 9) in field_sets(18)
        for n in range(2, 65):
            assert find_subfields(n) == subfield_oracle(n)


def in_span_mod(k, basis_vectors, target):
    q = k.prime_order
    rows = [[k.to_prime(x) for x in v] for v in basis_vectors]
    rows.append([k.to_prime(x) for x in target])
    return len(rref_mod(rows, q)[1]) == len(rref_mod(rows[:-1], q)[1])


def test_criterion_02_prime_field_spectral_example():
    with Timer(1.0, "criterion 2: finite-field spectral theorem (Z_3 example)"):
        z3 = Subfield.whole_prime(3)
        a = linalg.SubfieldMatrix.from_rows(z3, [[1, 0, 0], [0, 2, 2], [0, 2, 2]])
        cp = linalg.char_poly(a)
        assert cp.prime_coeffs == (0, 1, 1, 1)  # t^3 + t^2 + t = t^3 - 2t^2 + t mod 3

        es = linalg.eigen_system(a)
        by_value = {ev.value: ev for ev in es.s_values}
        assert {(v, ev.algebraic_multiplicity) for v, ev in by_value.items()} == {
            (1, 2),
            (0, 1),
        }
        assert by_value[1].geometric_multiplicity == 2
        assert by_value[0].geometric_multiplicity == 1
        basis1 = [v.entries for v in by_value[1].basis]
        basis0 = [v.entries for v in by_value[0].basis]
        assert in_span_mod(z3, basis1, (0, 1, 1))
        assert in_span_mod(z3, basis1, (1, 1, 1))
        assert in_span_mod(z3, basis0, (0, 2, 1))

        sd = linalg.spectral_decompose(a)
        assert isinstance(sd, linalg.SpectralDecomposition)
        assert [c for c, _ in sd.terms] == [1, 0]
        recon = linalg.SubfieldMatrix(z3, 3, 3, (0,) * 9)
        for c, e in sd.terms:
            recon = mat_add(recon, scalar_mul(c, e))
        assert recon.entries == a.entries


def test_criterion_03_z6_spectral_example():
    with Timer(1.0, "criterion 3: S-spectral theorem over Z_6"):
        k = certify_subfield(6, {0, 2, 4})
        a = linalg.SubfieldMatrix.from_rows(k, [[4, 0, 0], [0, 2, 2], [0, 2, 2]])
        assert linalg.self_adjoint_check(a)
        es = linalg.eigen_system(a)
        multiset = sorted(
            [ev.value for ev in es.s_values for _ in range(ev.algebraic_multiplicity)]
        )
        assert multiset == [0, 4, 4]
        # W_1 and W_2 intersect trivially: stacked bases have full joint rank
        vectors = [v.entries for ev in es.s_values for v in ev.basis]
        rows = [[k.to_prime(x) for x in v] for v in vectors]
        assert len(rref_mod(rows, k.prime_order)[1]) == len(vectors) == 3
        sd = linalg.spectral_decompose(a)
        assert isinstance(sd, linalg.SpectralDecomposition)
        recon = linalg.SubfieldMatrix(k, 3, 3, (0,) * 9)
        for c, e in sd.terms:
            recon = mat_add(recon, scalar_mul(c, e))
        assert recon.entries == a.entries
        assert sd.eigenspaces_pseudo_orthogonal
        for i, evi in enumerate(es.s_values):
            for evj in es.s_values[i + 1 :]:
                for u in evi.basis:
                    for v in evj.basis:
                        assert linalg.pseudo_inner_product(u, v) == 0


def test_criterion_04_polynomial_criteria():
    with Timer(5.0, "criterion 4: polynomial rootlessness criteria"):
        for p in (3, 5, 7, 11):
            for c in range(1, p):
                assert fermat_family_check(p, FermatFamily.XP_LINEAR, c).rootless
            for c in range(2, p):
                assert fermat_family_check(p, FermatFamily.GEOMETRIC_SUM, c).rootless
        # worked examples 1.6.1 - 1.6.7
        assert 2 in roots_in(parse_poly("x^2+1 mod 5"), range(5))
        assert reducibility_report(parse_poly("2x^3+2x^2+x+1 mod 3")).verdict is Verdict.HAS_ROOT
        assert reducibility_report(parse_poly("2x^3+2x^2+2x+2 mod 5")).verdict is Verdict.HAS_ROOT
        report = reducibility_report(parse_poly("x^3+1 mod 3"))
        assert report.criterion_xp_plus_1 and report.verdict is Verdict.HAS_ROOT
        assert reducibility_report(parse_poly("2x^7+2x^5+4x+2 mod 7")).verdict is Verdict.ROOTLESS
        for c in (1, 2):
            assert fermat_family_check(3, FermatFamily.XP_LINEAR, c).rootless
        for c in (2, 3, 4):
            assert fermat_family_check(5, FermatFamily.GEOMETRIC_SUM, c).rootless
        assert {p.coeffs for p in kernel_of_hom(3, 1)} == {(), (1, 2), (2, 1)}


def test_criterion_05_neutrosophic_classification():
    with Timer(1.0, "criterion 5: three-valued classification over Z_6"):
        k = certify_subfield(6, {0, 3})
        cls = neutrosophic_classify(parse_poly("x^2+2 mod 6"), k)
        assert cls.truth is RootTruth.INDETERMINATE
        assert cls.alien_roots == (2, 4)
        assert cls.in_field_roots == ()


def test_criterion_06_cayley_hamilton_suite():
    with Timer(10.0, "criterion 6: Cayley-Hamilton, 200 matrices x 4 subfields"):
        rng = random.Random(20240817)
        carriers = [
            certify_subfield(6, {0, 3}),
            certify_subfield(6, {0, 2, 4}),
            certify_subfield(12, {0, 4, 8}),
            certify_subfield(15, {0, 5, 10}),
        ]
        for k in carriers:
            for i in range(200):
                dim = i % 4 + 1
                a = linalg.SubfieldMatrix(
                    k, dim, dim, tuple(rng.choice(k.elements) for _ in range(dim * dim))
                )
                residual = char_poly_substitute(a)
                assert all(x == 0 for x in residual.entries)


def _t2_table():
    funcs = [(1, 2), (2, 1), (1, 1), (2, 2)]
    return table_from_operation(funcs, lambda f, g: tuple(f[g[x - 1] - 1] for x in (1, 2)))


def _s3_table():
    perms = sorted(itertools.permutations(range(3)))
    return table_from_operation(perms, lambda f, g: tuple(f[g[i]] for i in range(3)))


def test_criterion_07_representation_suite():
    with Timer(5.0, "criterion 7: regular representations, projections, decompositions"):
        t2 = _t2_table()
        s3 = _s3_table()
        subgroups = list(find_subgroups(t2)) + list(
            find_subgroups(s3, all_subgroups=True)
        )
        assert len(subgroups) == 3 + 6
        for sub in subgroups:
            left = regular_representation(sub, Side.LEFT)
            right = regular_representation(sub, Side.RIGHT)
            t = left_right_intertwiner(left, right)
            for x in sub.elements:
                assert ratmat.mat_mul(t, right.matrix(x)) == ratmat.mat_mul(
                    left.matrix(x), t
                )
            assert rep_isomorphic(left, right).isomorphic

        # averaged projections: P^2 = P and commuting, exact
        for table in (t2, s3):
            sub = find_subgroups(table)[0]
            rep = regular_representation(sub, Side.LEFT)
            w = [ratmat.vec([1] * rep.degree)]
            p = averaged_projection(rep, w, projection_onto(w, rep.degree))
            assert ratmat.mat_mul(p, p) == p
            for y in sub.elements:
                assert ratmat.mat_mul(rep.matrix(y), p) == ratmat.mat_mul(
                    p, rep.matrix(y)
                )

        z3 = next(s for s in find_subgroups(s3, all_subgroups=True) if s.order == 3)
        blocks = decompose_invariants(regular_representation(z3, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == [1, 2]
        z2 = find_subgroups(t2)[0]
        blocks = decompose_invariants(regular_representation(z2, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == [1, 1]


def test_criterion_08_semivector_phenomena():
    with Timer(2.0, "criterion 8: semivector independence/span phenomena"):
        nn = NonNegIntegers()
        u = [SemivectorTuple(nn, t) for t in [(1, 1), (2, 1), (3, 0)]]
        assert independence_check(u).independent
        assert not span_membership(SemivectorTuple(nn, (1, 3)), u).member
        assert not spans_space(u, 2).spans

        c4 = ChainLattice(4)
        basis = [SemivectorTuple(c4, (x,)) for x in (2, 1, 3)]
        scalars = [0, 3]
        assert spans_space(basis, "carrier", scalars=scalars).spans
        assert len(
            enumerate_representations(SemivectorTuple(c4, (3,)), basis, scalars=scalars)
        ) == 4
        assert len(
            enumerate_representations(SemivectorTuple(c4, (2,)), basis, scalars=scalars)
        ) == 2

        units = [
            SemivectorTuple(nn, tuple(1 if i == j else 0 for i in range(3)))
            for j in range(3)
        ]
        assert spans_space(units, 3).spans
        assert independence_check(units).independent
        for j, unit in enumerate(units):
            assert enumerate_representations(unit, units) == [
                tuple(1 if i == j else 0 for i in range(3))
            ]
        for drop in range(3):
            rest = [x for i, x in enumerate(units) if i != drop]
            assert not spans_space(rest, 3).spans


def test_criterion_09_leontief():
    with Timer(1.0, "criterion 9: Leontief closed and open models"):
        closed = closed_solve(ratmat.mat([["1/2", "1/4"], ["1/2", "3/4"]]))
        assert closed.unique
        assert closed.representative == (Fraction(1, 3), Fraction(2, 3))

        opened = open_solve(ratmat.mat([["1/5", "3/10"], ["2/5", "1/10"]]), [10, 10])
        assert opened.solution == (Fraction(20), Fraction(20))
        assert opened.productive  # by the inverse-nonnegativity definition
        assert opened.row_sums_below_one  # and by the sufficient condition

        s_instance = open_solve(ratmat.mat([[0, "-1/2"], ["-3/2", 0]]), [1, 1])
        assert s_instance.path == "smarandache"
        assert not s_instance.productive
        assert s_instance.label == NON_PRODUCTIVE_LABEL


def exhaustive_eigen_values(a):
    k = a.k
    values = set()
    for c in k.elements:
        for entries in itertools.product(k.elements, repeat=a.rows):
            if all(x == 0 for x in entries):
                continue
            v = linalg.SubfieldVector(k, entries)
            if linalg.apply_matrix(a, v).entries == tuple(
                (c * x) % k.n for x in entries
            ):
                values.add(c)
                break
    return values


def capped_unbounded_search(target, gens, cap=50):
    t = list(target.entries)

    def rec(i, acc):
        if acc == t:
            return True
        if i == len(gens):
            return False
        g = gens[i].entries
        for c in range(cap + 1):
            new = [a + c * x for a, x in zip(acc, g)]
            if any(v > w for v, w in zip(new, t)):
                break
            if rec(i + 1, new):
                return True
        return False

    return rec(0, [0] * len(t))


def test_criterion_10_oracle_umbrella():
    with Timer(30.0, "criterion 10: oracle equivalences"):
        for n in range(2, 65):
            assert find_subfields(n) == subfield_oracle(n)

        for k in (certify_subfield(6, {0, 3}), certify_subfield(6, {0, 2, 4})):
            for dim in (1, 2):
                for entries in itertools.product(k.elements, repeat=dim * dim):
                    a = linalg.SubfieldMatrix(k, dim, dim, entries)
                    assert linalg.eigen_system(a).s_value_set() == exhaustive_eigen_values(a)

        nn = NonNegIntegers()
        rng = random.Random(31415)
        for _ in range(500):
            dim = rng.randint(2, 3)
            gens = []
            while len(gens) < rng.randint(1, 3):
                g = SemivectorTuple(nn, tuple(rng.randint(0, 6) for _ in range(dim)))
                if not g.is_zero():
                    gens.append(g)
            target = SemivectorTuple(nn, tuple(rng.randint(0, 6) for _ in range(dim)))
            assert span_membership(target, gens).member == capped_unbounded_search(
                target, gens
            )


def test_criterion_11_golden_cli(capsys):
    with Timer(30.0, "criterion 11: golden CLI subcommand"):
        code = cli_main(["golden"])
        out = capsys.readouterr().out
        assert code == 0
        import json

        report = json.loads(out)
        assert report["status"] == "ok"
        assert all(entry["passed"] for entry in report["payload"])


def test_criterion_12_charpoly_dimension_10():
    rng = random.Random(2003)
    a = [[rng.randrange(7) for _ in range(10)] for _ in range(10)]
    with Timer(0.05, "criterion 12: characteristic polynomial over Z_7 at dimension 10"):
        coeffs = charpoly_mod(a, 7)
    # Cayley-Hamilton: p(A) = 0 over Z_7, by Horner's rule acc <- acc A + c I
    columns = list(zip(*a))
    acc = [[0] * 10 for _ in range(10)]
    for c in reversed(coeffs):
        acc = [
            [(sum(x * y for x, y in zip(row, col)) + c * (i == j)) % 7
             for j, col in enumerate(columns)]
            for i, row in enumerate(acc)
        ]
    assert len(coeffs) == 11 and all(x == 0 for row in acc for x in row)


def test_criterion_13_semivector_pruned_search():
    from test_semivector import overshoot_search

    # C_8, 7 generators of length 4: a box of 8^7 = 2,097,152 tuples
    c8 = ChainLattice(8)
    gens = [
        SemivectorTuple(c8, g)
        for g in [(0, 2, 3, 5), (2, 5, 6, 3), (4, 1, 6, 5), (7, 3, 1, 0),
                  (1, 2, 2, 2), (3, 4, 5, 4), (5, 5, 5, 1)]
    ]
    target = SemivectorTuple(c8, (4, 3, 7, 2))
    with Timer(0.01, "criterion 13: C_8 span non-member, 7 generators"):
        result = span_membership(target, gens)
    assert not result.member and result.searched == (8,) * 7
    assert not overshoot_search(target, gens)

    # nonnegative integers, 6 generators of length 3: a box of 1,533,312 tuples
    nn = NonNegIntegers()
    gens = [
        SemivectorTuple(nn, g)
        for g in [(1, 1, 1), (1, 1, 2), (3, 1, 2), (4, 4, 1), (2, 2, 1), (2, 2, 2)]
    ]
    target = SemivectorTuple(nn, (22, 21, 23))
    with Timer(0.1, "criterion 13: nonnegative-integer span non-member, 6 generators"):
        result = span_membership(target, gens)
    assert not result.member and math.prod(result.searched) == 1_533_312
    assert not overshoot_search(target, gens)


def _q8_table():
    def mul(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)

    units = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    return table_from_operation(units, mul)


def test_criterion_14_regular_decomposition():
    from smaralg.semigroup import validate_table

    c8 = validate_table([[(i + j) % 8 for j in range(8)] for i in range(8)])
    for label, table, limit, dims in (
        ("C_8", c8, 0.5, [1, 1, 2, 4]),
        ("Q8", _q8_table(), 0.3, [1, 1, 1, 1, 4]),
    ):
        rep = regular_representation(find_subgroups(table)[0], Side.LEFT)
        with Timer(limit, f"criterion 14: {label} regular representation decomposed"):
            blocks = decompose_invariants(rep)
        assert sorted(b.dimension for b in blocks) == dims


def test_criterion_15_relaxed_leontief_nullity_8():
    # A = I - u 1^T with u_i = 1/(i+2): nullity 8, where {-2..2}^8 has 390,625 weightings
    a = ratmat.mat([[(i == j) - Fraction(1, i + 2) for j in range(9)] for i in range(9)])
    with Timer(0.1, "criterion 15: relaxed Leontief best equilibrium at nullity 8"):
        sol = closed_solve(a)
    assert sol.path == "smarandache" and len(sol.basis) == 8
    assert sol.best == best_by_vertex_enumeration(sol.basis)


def test_criterion_16_spectral_dimension_16():
    from test_linalg import self_adjoint_by_reflections

    # sixteen distinct eigenvalues over the order-17 subfield {0, 2, ..., 32} of Z_34
    k = certify_subfield(34, set(range(0, 34, 2)))
    a = self_adjoint_by_reflections(random.Random(16), k, list(range(1, 17)))
    with Timer(0.12, "criterion 16: spectral decomposition over Z_34 at dimension 16"):
        sd = linalg.spectral_decompose(a)
    assert isinstance(sd, linalg.SpectralDecomposition) and len(sd.terms) == 16
    assert sorted(k.to_prime(c) for c, _ in sd.terms) == list(range(1, 17))
    ident = linalg.identity_matrix(k, 16)
    recon = linalg.SubfieldMatrix(k, 16, 16, (0,) * 256)
    for c, e in sd.terms:
        recon = mat_add(recon, mat_mul_by_entries(scalar_mul(c, ident), e))
    assert recon.entries == a.entries


def test_criterion_17_nonneg_residual_sets():
    from test_semivector import product_enumerate, product_span

    nn = NonNegIntegers()

    def family(text):
        return [SemivectorTuple(nn, tuple(map(int, row.split(",")))) for row in text.split(";")]

    # the nonnegative-integer tail jobs of the semivec workload
    jobs = [
        (span_membership, product_span, family("2,3,2;3,1,2;3,1,2;1,1,2"), family("22,13,18")[0]),
        (enumerate_representations, product_enumerate,
         family("3,2,1;4,2,3;1,3,1;2,1,4"), family("26,22,19")[0]),
        (span_membership, product_span,
         family("1,3,1;3,2,3;1,3,1;1,1,1;4,4,3"), family("10,14,10")[0]),
    ]
    with Timer(0.15, "criterion 17: 600 nonnegative-integer searches"):
        results = [[search(target, gens) for _ in range(200)] for search, _, gens, target in jobs]
    for runs, (_, oracle, gens, target) in zip(results, jobs):
        assert all(r == runs[0] for r in runs)
        assert runs[0] == oracle(target, gens)
    assert results[2][0].coefficients == (0, 0, 2, 8, 0)


def test_criterion_18_zassenhaus():
    from smaralg import intpoly, semigroup
    from smaralg.semigroup import validate_table

    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def sympy_factors(f):
        _, pairs = sympy.factor_list(sympy.Poly(list(reversed(f)), x))
        out = [[int(c) for c in reversed(p.all_coeffs())] for p, m in pairs for _ in range(m)]
        return sorted(out, key=lambda g: (len(g), g))

    found_input = [48, 56, 75, 21, 6, -14, -1, 1]  # seconds in the Kronecker sweep
    with Timer(0.05, "criterion 18: a degree-7 product that Kronecker took seconds on"):
        factors = intpoly.factor_monic(found_input)
    assert factors == sympy_factors(found_input)
    for n in (32, 48):
        f = [-1] + [0] * (n - 1) + [1]
        with Timer(0.5, f"criterion 18: x^{n} - 1 factored"):
            factors = intpoly.factor_monic(f)
        assert factors == sympy_factors(f)

    c16 = validate_table([[(i + j) % 16 for j in range(16)] for i in range(16)])
    rep = regular_representation(find_subgroups(c16)[0], Side.LEFT)
    with Timer(1.0, "criterion 18: C_16 regular representation decomposed"):
        blocks = semigroup._decompose(rep)
    assert sorted(b.dimension for b in blocks) == [1, 1, 2, 4, 8]
    assert {b.certificate for b in blocks} <= {"commutant_field", "commutant_scalars"}
