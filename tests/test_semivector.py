import itertools
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smaralg import semivector
from smaralg.semivector import (
    ChainLattice,
    NonNegIntegers,
    SemivectorTuple,
    SpanResult,
    _check_family,
    _coefficient_ranges,
    _exact_residual_sets,
    chain_lattice_check,
    chain_tables,
    combine,
    enumerate_representations,
    independence_check,
    lattice_semivector_check,
    span_membership,
    spans_space,
)

from reference_algebra import (
    combine_by_fold,
    lattice_check_all_axioms,
    nonneg_exact_sets_by_tuples,
)

NN = NonNegIntegers()


def nn(*entries):
    return SemivectorTuple(NN, entries)


U = [nn(1, 1), nn(2, 1), nn(3, 0)]


class TestSpanMembership:
    def test_paper_counterexample(self):
        assert not span_membership(nn(1, 3), U).member

    def test_positive_case(self):
        result = span_membership(nn(5, 3), [nn(1, 1), nn(2, 1)])
        assert result.member and result.coefficients == (1, 2)

    def test_zero_target(self):
        result = span_membership(nn(0, 0), U)
        assert result.member and result.coefficients == (0, 0, 0)

    def test_zero_generator_rejected(self):
        with pytest.raises(ValueError, match="zero generator"):
            span_membership(nn(1, 3), [nn(0, 0)])

    def test_found_coefficients_reevaluate(self):
        rng = random.Random(1)
        for _ in range(100):
            gens = [
                nn(*(rng.randint(0, 4) for _ in range(2)))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_zero()] or [nn(1, 1)]
            target = nn(*(rng.randint(0, 8) for _ in range(2)))
            result = span_membership(target, gens)
            if result.member:
                assert combine(NN, result.coefficients, gens) == target.entries

    def test_mixed_semifields_rejected(self):
        with pytest.raises(ValueError):
            span_membership(nn(1), [SemivectorTuple(ChainLattice(3), (1,))])


# --- reference searches ------------------------------------------------------
#
# Exhaustive scans of the whole coefficient box: every tuple of
# itertools.product over the domains of _coefficient_ranges, filtered by
# combine.  The pruned search must return exactly what they return.


def combines_to(sf, coeffs, vectors, target):
    """combine(sf, coeffs, vectors) == target.entries, where the empty
    combination is the zero tuple (combine returns () without a vector)."""
    if not vectors:
        return target.is_zero()
    return combine(sf, coeffs, vectors) == target.entries


def product_span(target, generators, scalars=None):
    sf, _ = _check_family([target] + list(generators))
    ranges = _coefficient_ranges(target, generators, scalars)
    searched = tuple(len(r) for r in ranges)
    for coeffs in itertools.product(*ranges):
        if combines_to(sf, coeffs, generators, target):
            return SpanResult(member=True, coefficients=coeffs, searched=searched)
    return SpanResult(member=False, coefficients=None, searched=searched)


def product_enumerate(target, basis, scalars=None):
    sf, _ = _check_family([target] + list(basis))
    ranges = _coefficient_ranges(target, basis, scalars)
    return [
        coeffs
        for coeffs in itertools.product(*ranges)
        if combines_to(sf, coeffs, basis, target)
    ]


def product_independence(vectors, scalars=None):
    with mock.patch.object(semivector, "span_membership", product_span):
        return independence_check(vectors, scalars)


def product_spans(generators, space, scalars=None):
    with mock.patch.object(semivector, "span_membership", product_span):
        return spans_space(generators, space, scalars)


def overshoot_search(target, generators, scalars=None) -> bool:
    """Membership by depth-first search of the coefficient box that drops a
    prefix only once its combination exceeds the target somewhere (every
    term is >= 0 and combining only grows, over both semifields).  No
    residuation bound and no reachability memo; cheap enough for boxes of
    a few million tuples whose prefixes overshoot early."""
    sf = target.semifield
    ranges = _coefficient_ranges(target, generators, scalars)
    t = target.entries

    def rec(i, acc):
        if i == len(generators):
            return acc == t
        for c in ranges[i]:
            nxt = tuple(sf.add(a, sf.mul(c, x)) for a, x in zip(acc, generators[i].entries))
            if all(a <= b for a, b in zip(nxt, t)) and rec(i + 1, nxt):
                return True
        return False

    return rec(0, (sf.zero,) * len(t))


def outcome(fn, *args):
    """The JSON form of a result, or the type and message of its error."""
    try:
        result = fn(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return result if isinstance(result, list) else result.to_json()


# Target entries where the packed residual fields of the exact sets
# change width: w = t.bit_length() + 2 bits for t = 2^m - 1 and 2^m.
CARRY_BOUNDARIES = sorted({2**m - 1 for m in range(7)} | {2**m for m in range(7)})


@st.composite
def problems(draw, kinds=("chain", "nonneg", "carry")):
    """(generators, target, scalars) over C_2..C_6 or the nonnegative
    integers: zero and duplicate generators, tuple lengths 0-3, and
    scalars that are absent, unsorted, repeated, negative or outside the
    chain's carrier.  The "carry" kind draws nonnegative target entries
    at 2^m - 1 and 2^m (m <= 6) or up to 40, at most three generators
    with entries up to 40 (so the product oracle stays cheap), and
    scalars up to 70, which may overshoot the target."""
    kind = draw(st.sampled_from(kinds))
    max_generators = 4
    if kind == "chain":
        sf = ChainLattice(draw(st.integers(2, 6)))
        entry = target_entry = st.integers(0, sf.size - 1)
        scalar = st.integers(-1, sf.size)
    elif kind == "nonneg":
        sf, entry, target_entry = NN, st.integers(0, 4), st.integers(0, 8)
        scalar = st.integers(-1, 5)
    else:
        sf, entry, max_generators = NN, st.integers(0, 40), 3
        target_entry = st.sampled_from(CARRY_BOUNDARIES) | st.integers(0, 40)
        scalar = st.integers(0, 70)
    d = draw(st.integers(0, 3))
    tuples = st.lists(entry, min_size=d, max_size=d).map(lambda e: SemivectorTuple(sf, e))
    generators = draw(st.lists(tuples, max_size=max_generators))
    target = SemivectorTuple(sf, draw(st.lists(target_entry, min_size=d, max_size=d)))
    scalars = draw(st.none() | st.lists(scalar, max_size=4))
    return generators, target, scalars


FIXED_PROBLEMS = [
    # unsorted and duplicate scalars over C_4 (the paper's basis a, b, 1)
    ([(2,), (1,), (3,)], (3,), [3, 0, 3], 4),
    ([(2,), (1,), (3,)], (2,), [3, 0], 4),
    # zero generators with explicit scalars over the integers
    ([(0, 0), (1, 1), (0, 0)], (2, 2), [2, 0, 1, 1], None),
    # an empty generator list, zero and nonzero target
    ([], (0, 0), None, None),
    ([], (1,), [0, 1], 5),
    # negative scalars over the integers, rejected
    ([(1,), (2,)], (1,), [1, -1, 0], None),
    # a scalar outside the chain's carrier
    ([(2,), (1,)], (3,), [0, 7], 4),
    # the exact residual sets reach the work cap before level 0
    ([(3, 2, 1), (4, 2, 3), (1, 3, 1), (2, 1, 4)], (26, 22, 19), None, None),
]


def fixed_problem(gens, target, scalars, chain):
    sf = ChainLattice(chain) if chain else NN
    return [SemivectorTuple(sf, g) for g in gens], SemivectorTuple(sf, target), scalars


def spaces(generators, target):
    d = len(target.entries)
    return [d, "carrier", [target.entries], [target.entries] + [g.entries for g in generators]]


def assert_matches_oracles(generators, target, scalars):
    assert outcome(span_membership, target, generators, scalars) == outcome(
        product_span, target, generators, scalars
    )
    assert outcome(enumerate_representations, target, generators, scalars) == outcome(
        product_enumerate, target, generators, scalars
    )
    vectors = generators + [target]
    assert outcome(independence_check, vectors, scalars) == outcome(
        product_independence, vectors, scalars
    )
    assert outcome(independence_check, generators, scalars) == outcome(
        product_independence, generators, scalars
    )
    for space in spaces(generators, target):
        assert outcome(spans_space, generators, space, scalars) == outcome(
            product_spans, generators, space, scalars
        )


@pytest.mark.parametrize("sf", [NN, ChainLattice(4)], ids=["nonneg", "C4"])
@pytest.mark.parametrize(
    "span, enumerate_",
    [(span_membership, enumerate_representations), (product_span, product_enumerate)],
    ids=["search", "oracle"],
)
def test_empty_family_combines_to_zero_only(sf, span, enumerate_):
    zero = SemivectorTuple(sf, (0, 0))
    nonzero = SemivectorTuple(sf, (0, 1))
    assert span(zero, []).to_json() == {
        "member": True, "coefficients": [], "searched_domain_sizes": []
    }
    assert enumerate_(zero, []) == [()]
    assert span(nonzero, []).to_json() == {
        "member": False, "coefficients": None, "searched_domain_sizes": []
    }
    assert enumerate_(nonzero, []) == []


@pytest.mark.parametrize("case", FIXED_PROBLEMS)
def test_pruned_search_matches_product_oracle_fixed(case):
    assert_matches_oracles(*fixed_problem(*case))


@settings(max_examples=300, deadline=None)
@given(problems())
def test_pruned_search_matches_product_oracle(problem):
    assert_matches_oracles(*problem)


def unpack(packed, t):
    """The residual of a packed table entry: w = max(t).bit_length() + 2
    bits per coordinate, coordinate j offset by 2^(w-1) - 1 - t_j."""
    w = max(t, default=0).bit_length() + 2
    return tuple(
        ((packed >> (j * w)) & ((1 << w) - 1)) - ((1 << (w - 1)) - 1 - tj)
        for j, tj in enumerate(t)
    )


def assert_exact_sets_match_oracle(target, generators, ranges):
    exact, pack = _exact_residual_sets(target, generators, ranges)
    expected = nonneg_exact_sets_by_tuples(target, generators, ranges)
    assert exact.keys() == expected.keys()
    for level, table in exact.items():
        assert {unpack(p, target.entries) for p in table} == expected[level]
        assert {pack(r) for r in expected[level]} == table


@settings(max_examples=300, deadline=None)
@given(problems(kinds=("nonneg", "carry")))
def test_packed_exact_sets_match_tuple_oracle(problem):
    generators, target, scalars = problem
    try:
        ranges = _coefficient_ranges(target, generators, scalars)
    except ValueError:
        assume(False)
    assert_exact_sets_match_oracle(target, generators, ranges)


def test_exact_sets_stop_at_work_cap():
    generators, target, _ = fixed_problem(*FIXED_PROBLEMS[-1])
    ranges = _coefficient_ranges(target, generators, None)
    assert sorted(_exact_residual_sets(target, generators, ranges)[0]) == [1, 2, 3, 4]
    assert_exact_sets_match_oracle(target, generators, ranges)


@st.composite
def combinations(draw):
    """(semifield, coefficients, family): C_2..C_6 or the nonnegative
    integers, 0-4 tuples of length 0-3, and up to one coefficient more
    than the family has tuples."""
    if draw(st.booleans()):
        sf = ChainLattice(draw(st.integers(2, 6)))
        element = st.integers(0, sf.size - 1)
    else:
        sf, element = NN, st.integers(0, 50)
    d = draw(st.integers(0, 3))
    family = draw(
        st.lists(
            st.lists(element, min_size=d, max_size=d).map(
                lambda e: SemivectorTuple(sf, e)
            ),
            max_size=4,
        )
    )
    coeffs = draw(st.lists(element, max_size=len(family) + 1))
    return sf, tuple(coeffs), family


@settings(max_examples=300, deadline=None)
@given(combinations())
def test_combine_matches_fold_oracle(case):
    assert combine(*case) == combine_by_fold(*case)


def test_overshoot_oracle_agrees_with_product_oracle():
    rng = random.Random(13)
    for _ in range(200):
        sf = rng.choice([NN, ChainLattice(3), ChainLattice(5)])
        top = 4 if sf is NN else sf.size - 1
        d = rng.randint(1, 3)
        gens = [
            SemivectorTuple(sf, tuple(rng.randint(1 if sf is NN else 0, top) for _ in range(d)))
            for _ in range(rng.randint(1, 3))
        ]
        target = SemivectorTuple(sf, tuple(rng.randint(0, 8 if sf is NN else top) for _ in range(d)))
        assert overshoot_search(target, gens) == product_span(target, gens).member


def capped_unbounded_search(target, gens, cap=50):
    """Oracle: depth-first unbounded search capped at coefficient 50,
    pruning only on overshoot (valid since all terms are nonnegative)."""
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


def test_bounded_search_is_complete_500_instances():
    rng = random.Random(2024)
    for _ in range(500):
        dim = rng.randint(2, 3)
        count = rng.randint(1, 3)
        gens = []
        while len(gens) < count:
            g = nn(*(rng.randint(0, 6) for _ in range(dim)))
            if not g.is_zero():
                gens.append(g)
        target = nn(*(rng.randint(0, 6) for _ in range(dim)))
        assert span_membership(target, gens).member == capped_unbounded_search(
            target, gens
        )


class TestIndependence:
    def test_paper_triple(self):
        assert independence_check(U).independent

    def test_four_independent_vectors_in_dim_two(self):
        assert independence_check(U + [nn(1, 3)]).independent

    def test_scalar_multiple_dependent(self):
        report = independence_check([nn(1, 0), nn(2, 0)])
        assert not report.independent
        assert report.witness_index == 1
        assert report.witness_coefficients == (2,)

    def test_zero_vector_dependent(self):
        report = independence_check([nn(1, 1), nn(0, 0)])
        assert not report.independent and report.witness_index == 1

    def test_witness_reevaluates(self):
        vectors = [nn(1, 2), nn(2, 4), nn(0, 1)]
        report = independence_check(vectors)
        assert not report.independent
        others = [v for i, v in enumerate(vectors) if i != report.witness_index]
        assert (
            combine(NN, report.witness_coefficients, others)
            == vectors[report.witness_index].entries
        )


class TestSpansSpace:
    def test_units_span(self):
        units = [nn(1, 0, 0), nn(0, 1, 0), nn(0, 0, 1)]
        assert spans_space(units, 3).spans

    def test_paper_set_does_not_span(self):
        report = spans_space(U, 2)
        assert not report.spans and report.missing is not None

    def test_c4_spanned_by_1_a_b_over_c2(self):
        c4 = ChainLattice(4)
        gens = [SemivectorTuple(c4, (x,)) for x in (3, 2, 1)]
        assert spans_space(gens, "carrier", scalars=[0, 3]).spans

    def test_c4_not_spanned_without_top(self):
        c4 = ChainLattice(4)
        gens = [SemivectorTuple(c4, (x,)) for x in (2, 1)]
        report = spans_space(gens, "carrier", scalars=[0, 3])
        assert not report.spans and report.missing == (3,)

    def test_explicit_space(self):
        assert spans_space([nn(1, 0), nn(0, 1)], [(2, 3), (0, 0)]).spans

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            spans_space([nn(1, 0)], 3)


class TestEnumerate:
    def test_c4_paper_counts(self):
        c4 = ChainLattice(4)
        basis = [SemivectorTuple(c4, (x,)) for x in (2, 1, 3)]  # a, b, 1
        one = SemivectorTuple(c4, (3,))
        a = SemivectorTuple(c4, (2,))
        reps_one = enumerate_representations(one, basis, scalars=[0, 3])
        assert len(reps_one) == 4
        reps_a = enumerate_representations(a, basis, scalars=[0, 3])
        assert len(reps_a) == 2

    def test_forced_coordinates(self):
        units = [nn(1, 0), nn(0, 1)]
        assert enumerate_representations(nn(1, 0), units) == [(1, 0)]

    def test_unit_representations_unique_dims_up_to_4(self):
        for dim in range(1, 5):
            units = [
                nn(*(1 if i == j else 0 for i in range(dim))) for j in range(dim)
            ]
            rng = random.Random(dim)
            for _ in range(25):
                target = nn(*(rng.randint(0, 5) for _ in range(dim)))
                reps = enumerate_representations(target, units)
                assert reps == [target.entries]

    def test_lex_order(self):
        c4 = ChainLattice(4)
        basis = [SemivectorTuple(c4, (x,)) for x in (2, 1, 3)]
        reps = enumerate_representations(
            SemivectorTuple(c4, (3,)), basis, scalars=[0, 3]
        )
        assert reps == sorted(reps)


class TestChainLattice:
    def test_operations_laws_exhaustive(self):
        for m in range(2, 17):
            c = ChainLattice(m)
            for a in range(m):
                assert c.add(a, a) == a and c.mul(a, a) == a
                for b in range(m):
                    assert c.add(a, b) == c.add(b, a)
                    assert c.mul(a, b) == c.mul(b, a)
                    assert c.add(a, c.mul(a, b)) == a
                    assert c.mul(a, c.add(a, b)) == a
                    for d in range(m):
                        assert c.add(c.add(a, b), d) == c.add(a, c.add(b, d))
                        assert c.mul(c.mul(a, b), d) == c.mul(a, c.mul(b, d))

    def test_strictness_of_nonneg(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b = rng.randint(0, 50), rng.randint(0, 50)
            if NN.add(a, b) == 0:
                assert a == 0 and b == 0
            if NN.mul(a, b) == 0:
                assert a == 0 or b == 0

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ChainLattice(1)


class TestLatticeChecker:
    def test_chains(self):
        for m in (2, 4, 8, 16):
            assert lattice_semivector_check(*chain_tables(m)).ok

    def test_diamond_m3(self):
        join = [
            [0, 1, 2, 3, 4],
            [1, 1, 4, 4, 4],
            [2, 4, 2, 4, 4],
            [3, 4, 4, 3, 4],
            [4, 4, 4, 4, 4],
        ]
        meet = [
            [0, 0, 0, 0, 0],
            [0, 1, 0, 0, 1],
            [0, 0, 2, 0, 2],
            [0, 0, 0, 3, 3],
            [0, 1, 2, 3, 4],
        ]
        assert lattice_semivector_check(join, meet).ok

    def test_pentagon_n5(self):
        # 0 < a < b < 1 and 0 < c < 1 with a,b incomparable to c
        # indices: 0, a=1, b=2, c=3, 1=4
        join = [
            [0, 1, 2, 3, 4],
            [1, 1, 2, 4, 4],
            [2, 2, 2, 4, 4],
            [3, 4, 4, 3, 4],
            [4, 4, 4, 4, 4],
        ]
        meet = [
            [0, 0, 0, 0, 0],
            [0, 1, 1, 0, 1],
            [0, 1, 2, 0, 2],
            [0, 0, 0, 3, 3],
            [0, 1, 2, 3, 4],
        ]
        assert lattice_semivector_check(join, meet).ok

    def test_corrupted_absorption(self):
        join, meet = chain_tables(3)
        meet[2][1] = 2  # breaks meet(2,1) = 1
        result = lattice_semivector_check(join, meet)
        assert not result.ok and result.axiom is not None

    def test_malformed(self):
        with pytest.raises(ValueError):
            lattice_semivector_check([[0, 1]], [[0]])
        with pytest.raises(ValueError):
            lattice_semivector_check([[7]], [[0]])


@st.composite
def set_lattices(draw):
    """Join/meet tables of the closure of some subsets of {0, 1, 2, 3}
    under union and intersection, in a drawn order, with one entry
    perhaps overwritten."""
    family = {frozenset(x) for x in draw(st.lists(st.sets(st.integers(0, 3)), min_size=1, max_size=6))}
    while True:
        closed = family | {a | b for a in family for b in family} | {
            a & b for a in family for b in family
        }
        if closed == family:
            break
        family = closed
    elems = draw(st.permutations(sorted(family, key=sorted)))
    index = {x: i for i, x in enumerate(elems)}
    join = [[index[a | b] for b in elems] for a in elems]
    meet = [[index[a & b] for b in elems] for a in elems]
    if draw(st.booleans()):
        table = draw(st.sampled_from([join, meet]))
        m = len(elems)
        table[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] = draw(
            st.integers(0, m - 1)
        )
    return join, meet


@st.composite
def random_tables(draw):
    """Two m x m tables, 1 <= m <= 4, with random entries; half of the
    time both are commutative and idempotent."""
    m = draw(st.integers(1, 4))
    symmetric = draw(st.booleans())
    tables = []
    for _ in range(2):
        t = [[draw(st.integers(0, m - 1)) for _ in range(m)] for _ in range(m)]
        if symmetric:
            t = [[a if a == b else t[min(a, b)][max(a, b)] for b in range(m)] for a in range(m)]
        tables.append(t)
    return tuple(tables)


@settings(max_examples=300, deadline=None)
@given(set_lattices() | random_tables())
def test_lattice_check_matches_all_axiom_oracle(tables):
    assert lattice_semivector_check(*tables) == lattice_check_all_axioms(*tables)


@pytest.mark.parametrize("m", range(1, 13))
def test_chain_check_without_tables_matches_the_table_check(m):
    tables = chain_tables(m)
    assert chain_lattice_check(m) == lattice_semivector_check(*tables)
    assert chain_lattice_check(m) == lattice_check_all_axioms(*tables)


@pytest.mark.parametrize("m", [0, -1, -7])
def test_chain_check_rejects_an_empty_chain_as_the_table_check_does(m):
    with pytest.raises(ValueError) as by_tables:
        lattice_semivector_check(*chain_tables(m))
    with pytest.raises(ValueError, match=str(by_tables.value)):
        chain_lattice_check(m)


def commutative_idempotent_tables(m):
    off_diagonal = list(itertools.combinations(range(m), 2))
    for values in itertools.product(range(m), repeat=len(off_diagonal)):
        t = [[a] * m for a in range(m)]
        for (a, b), v in zip(off_diagonal, values):
            t[a][b] = t[b][a] = v
        yield t


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lattice_check_matches_all_axiom_oracle_exhaustively(m):
    tables = list(commutative_idempotent_tables(m))
    for join, meet in itertools.product(tables, repeat=2):
        assert lattice_semivector_check(join, meet) == lattice_check_all_axioms(join, meet)


def test_tuple_validation():
    with pytest.raises(ValueError):
        nn(-1, 0)
    with pytest.raises(ValueError):
        SemivectorTuple(ChainLattice(3), (5,))
