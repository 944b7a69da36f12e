import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smaralg.polylab import (
    FermatFamily,
    ModPolynomial,
    RootTruth,
    Verdict,
    block_transform,
    coeff_sum_hom,
    fermat_family_check,
    fermat_power_sum,
    kernel_of_hom,
    neutrosophic_classify,
    parse_poly,
    poly_add,
    poly_mul,
    reducibility_report,
    roots_in,
)
from smaralg.ringcore import certify_subfield


class TestModPolynomial:
    def test_trimming(self):
        assert ModPolynomial(3, (1, 2, 0, 0)).coeffs == (1, 2)
        assert ModPolynomial(3, (0, 0)).coeffs == ()
        assert ModPolynomial(3, (3, 6)).coeffs == ()  # reduced mod 3 then trimmed

    def test_degree(self):
        assert ModPolynomial(3, ()).degree is None
        assert ModPolynomial(3, (1,)).degree == 0
        assert ModPolynomial(3, (1, 0, 2)).degree == 2

    def test_str(self):
        assert str(ModPolynomial(3, (1, 2, 0, 1))) == "x^3+2x+1"
        assert str(ModPolynomial(3, ())) == "0"


class TestParse:
    def test_with_mod_suffix(self):
        assert parse_poly("x^3+2x+1 mod 3").coeffs == (1, 2, 0, 1)

    def test_with_argument(self):
        assert parse_poly("x^2+1", 5).coeffs == (1, 0, 1)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            parse_poly("x mod 3", 5)

    def test_no_modulus(self):
        with pytest.raises(ValueError):
            parse_poly("x+1")

    def test_bad_term(self):
        with pytest.raises(ValueError):
            parse_poly("x^2 - 1 mod 5")


class TestArithmetic:
    def test_sum_cancels(self):
        a, b = ModPolynomial(3, (1, 2)), ModPolynomial(3, (2, 1))
        assert poly_add(a, b).is_zero()

    def test_cube_identity(self):
        xp1 = ModPolynomial(3, (1, 1))
        cube = poly_mul(poly_mul(xp1, xp1), xp1)
        assert cube.coeffs == (1, 0, 0, 1)

    def test_paper_product(self):
        assert poly_mul(ModPolynomial(3, (1, 0, 2)), ModPolynomial(3, (1, 1))).coeffs == (1, 1, 2, 2)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            poly_add(ModPolynomial(3, (1,)), ModPolynomial(5, (1,)))

    @given(
        st.integers(2, 12),
        st.lists(st.integers(0, 11), max_size=6),
        st.lists(st.integers(0, 11), max_size=6),
    )
    @settings(deadline=None, max_examples=200)
    def test_mul_commutes_and_add_commutes(self, n, ca, cb):
        a, b = ModPolynomial(n, tuple(ca)), ModPolynomial(n, tuple(cb))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_add(a, b) == poly_add(b, a)


def naive_eval(p, x):
    return sum(c * x**i for i, c in enumerate(p.coeffs)) % p.n


def test_horner_matches_naive_evaluation():
    rng = random.Random(7)
    for n in (2, 3, 5, 6, 7, 12, 15):
        for _ in range(1000):
            p = ModPolynomial(n, tuple(rng.randrange(n) for _ in range(rng.randint(0, 6))))
            x = rng.randrange(n)
            assert p.evaluate(x) == naive_eval(p, x)


class TestRoots:
    def test_x2_plus_1_z5(self):
        assert roots_in(parse_poly("x^2+1 mod 5"), range(5)) == [2, 3]

    def test_x2_plus_2_z6(self):
        assert roots_in(parse_poly("x^2+2 mod 6"), range(6)) == [2, 4]

    def test_rootless_cubic(self):
        assert roots_in(parse_poly("x^3+2x+1 mod 3"), range(3)) == []

    def test_domain_restriction(self):
        assert roots_in(parse_poly("x^2+1 mod 5"), {2}) == [2]

    def test_bad_domain(self):
        with pytest.raises(ValueError):
            roots_in(parse_poly("x mod 5"), {7})


class TestReducibility:
    def test_coeff_sum_example(self):
        report = reducibility_report(parse_poly("2x^3+2x^2+x+1 mod 3"))
        assert report.criterion_coeff_sum
        assert report.verdict is Verdict.HAS_ROOT
        # the coefficient-sum criterion forces the root 1; 2 is the other root
        assert report.roots == (1, 2)

    def test_xp_plus_1_example(self):
        report = reducibility_report(parse_poly("x^3+1 mod 3"))
        assert report.criterion_xp_plus_1
        assert report.roots == (2,)

    def test_rootless_z7(self):
        report = reducibility_report(parse_poly("2x^7+2x^5+4x+2 mod 7"))
        assert report.verdict is Verdict.ROOTLESS
        assert not any(
            [
                report.criterion_root,
                report.criterion_coeff_sum,
                report.criterion_equal_odd,
                report.criterion_xp_plus_1,
            ]
        )
        assert report.rootless_may_factor  # degree 7: no irreducibility claim

    def test_equal_odd_criterion(self):
        report = reducibility_report(parse_poly("2x^3+2x^2+2x+2 mod 5"))
        assert report.criterion_equal_odd
        assert 4 in report.roots  # -1 is always a root here

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            reducibility_report(parse_poly("x^2+1 mod 6"))

    def test_coeff_sum_implies_root_one(self):
        rng = random.Random(3)
        for q in (2, 3, 5, 7):
            for _ in range(200):
                p = ModPolynomial(q, tuple(rng.randrange(q) for _ in range(rng.randint(1, 6))))
                if p.is_zero():
                    continue
                report = reducibility_report(p)
                if report.criterion_coeff_sum:
                    assert 1 in report.roots
                if report.criterion_equal_odd or report.criterion_xp_plus_1:
                    assert q - 1 in report.roots
                assert (report.verdict is Verdict.HAS_ROOT) == bool(report.roots)


class TestFermatFamilies:
    def test_xp_linear_examples(self):
        for c in (1, 2):
            assert fermat_family_check(3, FermatFamily.XP_LINEAR, c).rootless

    def test_geometric_example(self):
        result = fermat_family_check(5, FermatFamily.GEOMETRIC_SUM, 2)
        assert result.rootless
        assert result.polynomial.coeffs == (2, 1, 1, 1, 1)

    def test_exhaustive_small_primes(self):
        for p in (3, 5, 7, 11):
            for c in range(1, p):
                assert fermat_family_check(p, FermatFamily.XP_LINEAR, c).rootless
            for c in range(2, p):
                assert fermat_family_check(p, FermatFamily.GEOMETRIC_SUM, c).rootless

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fermat_family_check(3, FermatFamily.XP_LINEAR, 0)
        with pytest.raises(ValueError):
            fermat_family_check(5, FermatFamily.GEOMETRIC_SUM, 1)
        with pytest.raises(ValueError):
            fermat_family_check(2, FermatFamily.GEOMETRIC_SUM, 0)
        with pytest.raises(ValueError):
            fermat_family_check(4, FermatFamily.XP_LINEAR, 1)


class TestPowerSum:
    def test_examples(self):
        assert fermat_power_sum(5, 2, 5) == {"sum": 0, "congruent": True}
        assert fermat_power_sum(7, 3, 7) == {"sum": 0, "congruent": True}
        assert fermat_power_sum(5, 0, 5) == {"sum": 0, "congruent": True}

    def test_a_equal_one_rejected(self):
        with pytest.raises(ValueError):
            fermat_power_sum(5, 1, 5)

    def test_equivalence_everywhere(self):
        for p in (3, 5, 7, 11):
            for a in range(p):
                if a == 1:
                    continue
                for r in range(2, 10):
                    fermat_power_sum(p, a, r)  # the equivalence is asserted inside


class TestCoeffSumHom:
    def test_kernel_members(self):
        assert coeff_sum_hom(ModPolynomial(3, (1, 2))) == 0
        assert coeff_sum_hom(ModPolynomial(3, (2, 1))) == 0
        assert coeff_sum_hom(ModPolynomial(3, (1, 1, 1))) == 0

    def test_ring_homomorphism(self):
        rng = random.Random(11)
        for q in (2, 3, 5, 7):
            for _ in range(1000):
                f = ModPolynomial(q, tuple(rng.randrange(q) for _ in range(rng.randint(0, 5))))
                g = ModPolynomial(q, tuple(rng.randrange(q) for _ in range(rng.randint(0, 5))))
                assert coeff_sum_hom(poly_mul(f, g)) == (coeff_sum_hom(f) * coeff_sum_hom(g)) % q
                assert coeff_sum_hom(poly_add(f, g)) == (coeff_sum_hom(f) + coeff_sum_hom(g)) % q


class TestKernel:
    def test_z3_degree_1(self):
        assert {p.coeffs for p in kernel_of_hom(3, 1)} == {(), (1, 2), (2, 1)}

    def test_z2_degree_1(self):
        assert {p.coeffs for p in kernel_of_hom(2, 1)} == {(), (1, 1)}

    def test_constants(self):
        assert [p.coeffs for p in kernel_of_hom(3, 0)] == [()]

    def test_cardinality(self):
        for q, d in ((2, 3), (3, 2), (5, 2)):
            assert len(kernel_of_hom(q, d)) == q**d

    def test_bound(self):
        with pytest.raises(ValueError):
            kernel_of_hom(7, 8)

    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_matches_filtered_product(self, q, d):
        filtered = sorted(
            (tup for tup in itertools.product(range(q), repeat=d + 1) if sum(tup) % q == 0)
        )
        assert [p.padded(d + 1) for p in kernel_of_hom(q, d)] == filtered


def scale_poly(c, p):
    return ModPolynomial(p.n, tuple((c * x) % p.n for x in p.coeffs))


class TestBlockTransform:
    def test_kernel_example(self):
        p = ModPolynomial(3, (1, 2, 1, 2))
        assert block_transform(p, 3, 1).is_zero()

    def test_chunk_sums(self):
        p = ModPolynomial(3, (1, 0, 2, 0))
        assert block_transform(p, 3, 1).coeffs == (1, 2)

    def test_zero(self):
        assert block_transform(ModPolynomial(3, ()), 5, 2).is_zero()

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            block_transform(ModPolynomial(3, (1,)), 4, 1)
        with pytest.raises(ValueError):
            block_transform(ModPolynomial(3, (1,) * 5), 3, 1)
        with pytest.raises(ValueError):
            block_transform(ModPolynomial(3, (1,)), 1, 1)

    def test_linear(self):
        rng = random.Random(5)
        n, m, q = 5, 2, 3
        for _ in range(200):
            a = ModPolynomial(q, tuple(rng.randrange(q) for _ in range(n + 1)))
            b = ModPolynomial(q, tuple(rng.randrange(q) for _ in range(n + 1)))
            c = rng.randrange(q)
            assert block_transform(poly_add(a, b), n, m) == poly_add(
                block_transform(a, n, m), block_transform(b, n, m)
            )
            assert block_transform(scale_poly(c, a), n, m) == scale_poly(
                c, block_transform(a, n, m)
            )

    def test_onto_constructively(self):
        import itertools

        n, m, q = 3, 1, 3
        size = (n + 1) // (m + 1)
        for target in itertools.product(range(q), repeat=m + 1):
            coeffs = [0] * (n + 1)
            for j, t in enumerate(target):
                coeffs[j * size] = t
            image = block_transform(ModPolynomial(q, tuple(coeffs)), n, m)
            assert image.padded(m + 1) == target

    def test_kernel_characterization(self):
        import itertools

        n, m, q = 3, 1, 3
        size = (n + 1) // (m + 1)
        kernel_count = 0
        for coeffs in itertools.product(range(q), repeat=n + 1):
            p = ModPolynomial(q, coeffs)
            in_kernel = block_transform(p, n, m).is_zero()
            chunk_sums_vanish = all(
                sum(coeffs[j * size : (j + 1) * size]) % q == 0 for j in range(m + 1)
            )
            assert in_kernel == chunk_sums_vanish
            kernel_count += in_kernel
        assert kernel_count == q ** (n - m)


class TestNeutrosophic:
    def test_indeterminate_example(self):
        k = certify_subfield(6, {0, 3})
        cls = neutrosophic_classify(parse_poly("x^2+2 mod 6"), k)
        assert cls.truth is RootTruth.INDETERMINATE
        assert cls.alien_roots == (2, 4)

    def test_true_example(self):
        k = certify_subfield(6, {0, 3})
        cls = neutrosophic_classify(parse_poly("x+3 mod 6"), k)
        assert cls.truth is RootTruth.TRUE
        assert cls.in_field_roots == (3,)

    def test_false_example(self):
        k = certify_subfield(6, {0, 3})
        cls = neutrosophic_classify(parse_poly("x^2+x+1 mod 6"), k)
        assert cls.truth is RootTruth.FALSE

    def test_partition(self):
        import itertools

        k = certify_subfield(6, {0, 2, 4})
        for coeffs in itertools.product(range(6), repeat=3):
            p = ModPolynomial(6, coeffs)
            cls = neutrosophic_classify(p, k)
            all_roots = roots_in(p, range(6))
            assert sorted(cls.in_field_roots + cls.alien_roots) == all_roots
            labels = [
                cls.truth is RootTruth.TRUE,
                cls.truth is RootTruth.INDETERMINATE,
                cls.truth is RootTruth.FALSE,
            ]
            assert sum(labels) == 1
            if cls.truth is RootTruth.TRUE:
                assert cls.in_field_roots
            elif cls.truth is RootTruth.INDETERMINATE:
                assert cls.alien_roots and not cls.in_field_roots
            else:
                assert not all_roots

    def test_modulus_mismatch(self):
        k = certify_subfield(6, {0, 3})
        with pytest.raises(ValueError):
            neutrosophic_classify(parse_poly("x mod 5"), k)
