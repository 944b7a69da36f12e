import math

import pytest

from smaralg.ringcore import (
    Subfield,
    SubfieldRejection,
    certify_subfield,
    find_subfields,
    idempotents,
    subfield_from_elements,
)

from reference_algebra import subfield_maps_by_dicts, subfield_oracle


def as_sets(fields):
    return [(s.elements, s.identity, s.prime_order) for s in fields]


class TestFindSubfields:
    def test_z6(self):
        assert as_sets(find_subfields(6)) == [((0, 3), 3, 2), ((0, 2, 4), 4, 3)]

    def test_z12(self):
        assert as_sets(find_subfields(12)) == [((0, 4, 8), 4, 3)]

    def test_prime_modulus_has_no_proper_subfield(self):
        assert find_subfields(7) == []
        assert find_subfields(97) == []

    def test_z15(self):
        assert as_sets(find_subfields(15)) == [
            ((0, 5, 10), 10, 3),
            ((0, 3, 6, 9, 12), 6, 5),
        ]

    def test_z4_has_none(self):
        assert find_subfields(4) == []

    def test_z30_has_three(self):
        fields = find_subfields(30)
        assert [s.prime_order for s in fields] == [2, 3, 5]

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            find_subfields(1)
        with pytest.raises(ValueError):
            idempotents(0)


class TestIdempotents:
    def test_examples(self):
        assert idempotents(6) == [0, 1, 3, 4]
        assert idempotents(7) == [0, 1]
        assert idempotents(12) == [0, 1, 4, 9]

    def test_definition_holds(self):
        for n in range(2, 40):
            for e in idempotents(n):
                assert (e * e) % n == e


class TestCertify:
    def test_z6_024(self):
        sf = certify_subfield(6, {0, 2, 4})
        assert sf.identity == 4 and sf.prime_order == 3
        assert {a: sf.to_prime(a) for a in sf.elements} == {0: 0, 4: 1, 2: 2}

    def test_z6_02_rejected(self):
        with pytest.raises(SubfieldRejection) as exc:
            certify_subfield(6, {0, 2})
        assert exc.value.reason == "not_multiplicatively_closed"

    def test_z6_03(self):
        sf = certify_subfield(6, {0, 3})
        assert sf.identity == 3 and sf.prime_order == 2

    def test_whole_ring_not_proper(self):
        with pytest.raises(SubfieldRejection) as exc:
            certify_subfield(7, range(7))
        assert exc.value.reason == "not_proper"

    def test_singleton_zero_has_no_identity(self):
        with pytest.raises(SubfieldRejection) as exc:
            certify_subfield(6, {0})
        assert exc.value.reason == "no_identity"

    def test_additive_closure_failure(self):
        with pytest.raises(SubfieldRejection) as exc:
            certify_subfield(6, {2, 4})  # multiplicatively closed, 2+4=0 missing
        assert exc.value.reason == "not_additively_closed"

    def test_non_invertible(self):
        with pytest.raises(SubfieldRejection) as exc:
            certify_subfield(4, range(4))
        assert exc.value.reason == "non_invertible_element"

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            certify_subfield(6, set())
        with pytest.raises(ValueError):
            certify_subfield(6, {0, 7})


class TestOracle:
    def test_z18_contains_09(self):
        assert ((0, 9), 9, 2) in as_sets(subfield_oracle(18))

    def test_z4_empty(self):
        assert subfield_oracle(4) == []

    def test_z30_orders(self):
        assert [s.prime_order for s in subfield_oracle(30)] == [2, 3, 5]

    def test_size_limit(self):
        with pytest.raises(ValueError):
            subfield_oracle(65)

    def test_matches_find_subfields_up_to_64(self):
        for n in range(2, 65):
            assert find_subfields(n) == subfield_oracle(n), f"mismatch at n={n}"


def brute_force_subfields(n):
    """All subsets of Z_n that are fields, by raw power-set search."""
    found = []
    for mask in range(1, 2**n):
        subset = {i for i in range(n) if mask >> i & 1}
        if len(subset) == n:
            continue
        try:
            found.append(certify_subfield(n, subset))
        except (SubfieldRejection, ValueError):
            continue
    return sorted(found, key=lambda s: s.prime_order)


@pytest.mark.parametrize("n", [4, 6, 10, 12])
def test_power_set_search_agrees(n):
    assert brute_force_subfields(n) == find_subfields(n)


def closed_form_predicate(n, elements):
    """P = dZ_n with n/d prime and gcd(d, n/d) = 1."""
    q = len(elements)
    if n % q != 0:
        return False
    d = n // q
    return (
        set(elements) == {(k * d) % n for k in range(q)}
        and all(q % t for t in range(2, q))
        and q >= 2
        and math.gcd(d, q) == 1
    )


def test_closed_form_up_to_200():
    for n in range(2, 201):
        fields = find_subfields(n)
        for s in fields:
            assert closed_form_predicate(n, s.elements)
        # and conversely: every closed-form subset is reported
        expected = sum(
            1
            for d in range(2, n + 1)
            if n % d == 0
            and all((n // d) % t for t in range(2, n // d))
            and n // d >= 2
            and math.gcd(d, n // d) == 1
        )
        assert len(fields) == expected


def test_returned_subfields_pass_full_certification():
    for n in range(2, 80):
        for s in find_subfields(n):
            re = certify_subfield(n, s.elements)
            assert re == s


def test_isomorphism_round_trip():
    for n in (6, 12, 15, 18, 30):
        for s in find_subfields(n):
            for a in s.elements:
                assert s.from_prime(s.to_prime(a)) == a
            for r in range(s.prime_order):
                assert s.to_prime(s.from_prime(r)) == r


# every subfield of Z_n for n <= 300 and the whole carrier Z_p for p < 100
CARRIERS = [s for n in range(2, 301) for s in find_subfields(n)] + [
    Subfield.whole_prime(p) for p in range(2, 100) if all(p % t for t in range(2, p))
]


def test_closed_form_maps_match_dict_oracle():
    for s in CARRIERS:
        to_p, from_p = subfield_maps_by_dicts(s)
        n, q = s.n, s.prime_order
        assert sorted(to_p) == list(s.elements)
        assert [s.contains(a) for a in range(-2, n + 2)] == [a in to_p for a in range(-2, n + 2)]
        assert [s.to_prime(a) for a in s.elements] == [to_p[a] for a in s.elements]
        assert [s.from_prime(r) for r in range(-q, 2 * q)] == [
            from_p[r % q] for r in range(-q, 2 * q)
        ]


def test_isomorphism_respects_operations():
    for s in CARRIERS:
        n, q = s.n, s.prime_order
        for a in s.elements:
            for b in s.elements:
                assert s.to_prime((a + b) % n) == (s.to_prime(a) + s.to_prime(b)) % q
                assert s.to_prime((a * b) % n) == (s.to_prime(a) * s.to_prime(b)) % q
        assert s.to_prime(s.identity) == 1


def test_non_members():
    s = certify_subfield(6, {0, 2, 4})
    with pytest.raises(KeyError):
        s.to_prime(1)
    assert not any(s.contains(a) for a in (-4, 6, 1))


def test_whole_prime_carrier():
    z3 = Subfield.whole_prime(3)
    assert z3.elements == (0, 1, 2) and z3.identity == 1
    assert z3.is_whole_ring
    with pytest.raises(ValueError):
        Subfield.whole_prime(6)


def test_subfield_from_elements_dispatch():
    assert subfield_from_elements(5, range(5)).is_whole_ring
    assert subfield_from_elements(6, (0, 2, 4)).identity == 4


@pytest.mark.parametrize("elements", [[0, 1, 2, 3, 7], [-1, 0, 1, 2, 3], [0, 1, 2, 3, 4, 5]])
def test_subfield_from_elements_rejects_non_residues(elements):
    with pytest.raises(ValueError, match="residues"):
        subfield_from_elements(5, elements)


def test_json_shape():
    sf = find_subfields(6)[1]
    assert sf.to_json() == {
        "n": 6,
        "elements": [0, 2, 4],
        "identity": 4,
        "prime_order": 3,
    }
