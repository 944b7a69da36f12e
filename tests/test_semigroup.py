import functools
import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smaralg import ratmat, semigroup
from smaralg.semigroup import (
    Representation,
    Side,
    TableError,
    _intertwiner_space,
    _restrict,
    averaged_projection,
    decompose_invariants,
    find_subgroups,
    left_right_intertwiner,
    make_representation,
    maximal_subgroup_at,
    permutation_representation,
    projection_onto,
    regular_representation,
    rep_isomorphic,
    validate_table,
)

from reference_algebra import (
    decompose_whole_space,
    intertwiner_space_by_constraints,
    rat_det,
    rep_isomorphic_by_grid,
    subgroups_by_subset_scan,
    table_from_operation,
    trivial_representation,
)
from test_cli_bytes import GROUPS as CLI_GROUPS, _with_zero_one


def regular_pair(sub):
    return regular_representation(sub, Side.LEFT), regular_representation(sub, Side.RIGHT)


class TestValidation:
    def test_t2_is_valid(self, t2_table):
        assert t2_table.order == 4

    def test_group_tables_valid(self, z3_table, s3_table):
        assert z3_table.order == 3 and s3_table.order == 6

    def test_non_associative_witness(self):
        with pytest.raises(TableError) as exc:
            validate_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
        assert exc.value.witness is not None

    def test_shape_and_range(self):
        with pytest.raises(TableError):
            validate_table([[0, 1], [1]])
        with pytest.raises(TableError):
            validate_table([[0, 5], [1, 0]])

    @pytest.mark.parametrize(
        "raw", [5, [1], [[0, 1.0], [1, 0]], [[0, True], [1, 0]], [[0, "1"], [1, 0]]]
    )
    def test_ill_typed_rejected(self, raw):
        with pytest.raises(TableError):
            validate_table(raw)


class TestSubgroups:
    def test_non_idempotent_rejected(self, z3_table):
        with pytest.raises(ValueError, match="not idempotent"):
            maximal_subgroup_at(z3_table, 1)

    def test_t2_maximal(self, t2_table):
        subs = find_subgroups(t2_table)
        assert [(s.identity, s.elements) for s in subs] == [
            (0, (0, 1)),
            (2, (2,)),
            (3, (3,)),
        ]

    def test_s3_maximal_is_whole_group(self, s3_table):
        subs = find_subgroups(s3_table)
        assert len(subs) == 1 and subs[0].order == 6

    def test_null_semigroup(self):
        null3 = validate_table([[0] * 3] * 3)
        subs = find_subgroups(null3)
        assert [(s.identity, s.elements) for s in subs] == [(0, (0,))]

    def test_s3_all_subgroups(self, s3_table):
        sizes = sorted(s.order for s in find_subgroups(s3_table, all_subgroups=True))
        assert sizes == [1, 2, 2, 2, 3, 6]

    def test_all_subgroups_limit(self):
        big = validate_table([[(i + j) % 13 for j in range(13)] for i in range(13)])
        with pytest.raises(ValueError):
            find_subgroups(big, all_subgroups=True)

    def test_maximal_matches_closure_enumeration(self, t2_table, s3_table, z4_table):
        for table in (t2_table, s3_table, z4_table):
            maximal = find_subgroups(table)
            everything = find_subgroups(table, all_subgroups=True)
            for m in maximal:
                # the maximal subgroup at e is the largest group with identity e
                peers = [g for g in everything if g.identity == m.identity]
                assert max(p.order for p in peers) == m.order
                assert all(set(p.elements) <= set(m.elements) for p in peers)

    def test_all_subgroups_match_subset_scan(self, t2_table):
        small = list(_associative_tables(3))
        assert len(small) == 122  # labelled semigroups: 1 + 8 + 113
        groups = [validate_table(t) for t in CLI_GROUPS.values()]
        groups += [validate_table(_with_zero_one(t)) for t in CLI_GROUPS.values() if len(t) <= 6]
        for table in small + groups + [t2_table, validate_table([[0] * 3] * 3)]:
            assert find_subgroups(table, all_subgroups=True) == subgroups_by_subset_scan(table)

    def test_closure_route_past_the_subset_scan(self):
        # order 64: the subset scan would face 2^64 subsets
        z64 = table_from_operation(range(64), lambda x, y: x * y % 64)
        units = maximal_subgroup_at(z64, 1)  # C2 x C16
        start = time.perf_counter()
        subgroups = semigroup._subgroups_within(units)
        elapsed = time.perf_counter() - start
        assert units.order == 32 and len(subgroups) == 14
        assert elapsed < 0.5, f"{elapsed:.3f} s"

    def test_closure_skips_cosets(self):
        # C2^6: every g in a coset gK gives the same <K, g>; building it
        # once per coset instead of once per element takes 3 s to 0.3 s
        c2_6 = table_from_operation(range(64), lambda x, y: x ^ y)
        group = maximal_subgroup_at(c2_6, 0)
        start = time.perf_counter()
        subgroups = semigroup._subgroups_within(group)
        elapsed = time.perf_counter() - start
        assert len(subgroups) == 2825  # 1 + 63 + 651 + 1395 + 651 + 63 + 1
        assert elapsed < 1.5, f"{elapsed:.3f} s"

    def test_inverse_maps(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        for x in sub.elements:
            assert sub.mul(x, sub.inverse(x)) == sub.identity


class TestRegularRepresentation:
    def test_z2_swap_matrix(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        left = regular_representation(z2, Side.LEFT)
        assert left.matrix(1) == ratmat.mat([[0, 1], [1, 0]])
        assert left.matrix(0) == ratmat.identity(2)

    def test_homomorphism_s3_all_pairs(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        for side in (Side.LEFT, Side.RIGHT):
            rep = regular_representation(sub, side)
            for x in sub.elements:
                for y in sub.elements:
                    assert ratmat.mat_mul(rep.matrix(x), rep.matrix(y)) == rep.matrix(
                        sub.mul(x, y)
                    )

    def test_left_right_commute(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        left = regular_representation(sub, Side.LEFT)
        right = regular_representation(sub, Side.RIGHT)
        for x in sub.elements:
            for y in sub.elements:
                assert ratmat.mat_mul(left.matrix(x), right.matrix(y)) == ratmat.mat_mul(
                    right.matrix(y), left.matrix(x)
                )

    def test_matrices_are_permutations(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.RIGHT)
        for x in sub.elements:
            for row in rep.matrix(x):
                assert sorted(row) == [0, 0, 1]


class TestPermutationRepresentation:
    def test_z2_swap_action_matches_regular(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        funcs = [(1, 2), (2, 1), (1, 1), (2, 2)]

        def act(x, p):
            return funcs[x][p - 1]

        rep = permutation_representation(z2, act, [1, 2])
        reg = regular_representation(z2, Side.LEFT)
        assert all(rep.matrix(x) == reg.matrix(x) for x in z2.elements)

    def test_s3_natural_action(self, s3_table, s3_perms):
        sub = find_subgroups(s3_table)[0]

        def act(x, p):
            return s3_perms[x][p]

        rep = permutation_representation(sub, act, range(3))
        assert rep.degree == 3

    def test_trivial_action(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = permutation_representation(sub, lambda x, p: p, range(4))
        assert all(rep.matrix(x) == ratmat.identity(4) for x in sub.elements)

    def test_non_action_rejected(self, z3_table):
        sub = find_subgroups(z3_table)[0]

        def bad(x, p):  # not a homomorphism
            return (p + x * x) % 2

        with pytest.raises(TableError):
            permutation_representation(sub, bad, range(2))

    def test_non_injective_action_rejected(self, z3_table):
        sub = find_subgroups(z3_table)[0]

        def collapse(x, p):  # element 1 sends every point to 0
            return 0 if x == 1 else p

        with pytest.raises(TableError, match="^element 1 does not act bijectively$") as exc:
            permutation_representation(sub, collapse, range(3))
        assert exc.value.witness == 1

    def test_action_leaving_the_points_rejected(self, z3_table):
        sub = find_subgroups(z3_table)[0]

        def shift(x, p):  # element 2 sends the points 0, 1, 2 to 1, 2, 3
            return p + 1 if x == 2 else p

        with pytest.raises(TableError, match="^element 2 does not act bijectively$") as exc:
            permutation_representation(sub, shift, range(3))
        assert exc.value.witness == 2


class TestMakeRepresentation:
    def test_broken_law_names_the_first_pair(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        with pytest.raises(TableError, match="homomorphism law") as exc:
            make_representation(z2, {0: ratmat.identity(1), 1: ratmat.mat([[2]])})
        assert exc.value.witness == (1, 1)

    def test_identity_must_map_to_identity(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        with pytest.raises(TableError, match="identity") as exc:
            make_representation(z2, {0: ratmat.mat([[-1]]), 1: ratmat.mat([[-1]])})
        assert exc.value.witness == (0,)

    def test_law_is_checked_once(self, monkeypatch):
        # the |G|^2 pairs of the left regular representation of C_6, no more
        c6 = find_subgroups(validate_table([[(i + j) % 6 for j in range(6)] for i in range(6)]))[0]
        calls = []
        real = ratmat.mat_mul

        def mat_mul(a, b):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(ratmat, "mat_mul", mat_mul)
        regular_representation(c6, Side.LEFT)
        assert len(calls) == 36


class TestIntertwiner:
    def test_z2_is_identity(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        assert left_right_intertwiner(*regular_pair(z2)) == ratmat.identity(2)

    def test_z3_swaps_inverses(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        t = left_right_intertwiner(*regular_pair(sub))
        # basis order (0, 1, 2); inversion swaps 1 <-> 2
        assert t == ratmat.mat([[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_trivial_group(self, t2_table):
        const = find_subgroups(t2_table)[1]
        assert left_right_intertwiner(*regular_pair(const)) == ratmat.identity(1)

    def test_s3_intertwines(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        left_right_intertwiner(*regular_pair(sub))  # all identities asserted inside

    def test_different_subgroups_rejected(self, t2_table):
        z2, const = find_subgroups(t2_table)[:2]
        with pytest.raises(ValueError):
            left_right_intertwiner(
                regular_representation(z2, Side.LEFT), regular_representation(const, Side.RIGHT)
            )


class TestAveragedProjection:
    def test_z2_mean(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        rep = regular_representation(z2, Side.LEFT)
        p = averaged_projection(rep, [ratmat.vec([1, 1])], ratmat.mat([[1, 0], [1, 0]]))
        assert p == ratmat.mat([["1/2", "1/2"], ["1/2", "1/2"]])

    def test_full_space_identity(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        basis = [ratmat.vec([1 if i == j else 0 for i in range(3)]) for j in range(3)]
        p = averaged_projection(rep, basis, ratmat.identity(3))
        assert p == ratmat.identity(3)

    def test_zero_subspace(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        p = averaged_projection(rep, [], projection_onto([], 3))
        assert p == ratmat.zeros(3, 3)

    def test_s3_constants(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        w = [ratmat.vec([1] * 6)]
        p = averaged_projection(rep, w, projection_onto(w, 6))
        assert all(x == Fraction(1, 6) for row in p for x in row)
        # complement = zero-sum functions
        kernel = ratmat.nullspace(p)
        assert len(kernel) == 5
        for z in kernel:
            assert sum(z) == 0

    def test_commutes_with_action(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        w = [ratmat.vec([1, 1, 1])]
        p = averaged_projection(rep, w, projection_onto(w, 3))
        for y in sub.elements:
            assert ratmat.mat_mul(rep.matrix(y), p) == ratmat.mat_mul(p, rep.matrix(y))

    def test_non_invariant_rejected(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        w = [ratmat.vec([1, 0, 0])]  # not invariant under rotation
        with pytest.raises(ValueError, match="not invariant"):
            averaged_projection(rep, w, projection_onto(w, 3))

    def test_non_invariant_witness_is_first_failing_element(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        # span of the indicators at 0 (the identity) and 1 (a transposition):
        # element 1 keeps it, element 2 is the first to move it
        w = [ratmat.vec([1, 1, 0, 0, 0, 0]), ratmat.vec([1, -1, 0, 0, 0, 0])]
        with pytest.raises(ValueError, match="witness element 2$"):
            averaged_projection(rep, w, projection_onto(w, 6))

    def test_bad_projection_rejected(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        w = [ratmat.vec([1, 1, 1])]
        with pytest.raises(ValueError, match="idempotent"):
            averaged_projection(rep, w, ratmat.scale(2, ratmat.identity(3)))


class TestIsomorphism:
    def test_left_right_regular(self, z3_table, s3_table):
        for table in (z3_table, s3_table):
            sub = find_subgroups(table)[0]
            left = regular_representation(sub, Side.LEFT)
            right = regular_representation(sub, Side.RIGHT)
            report = rep_isomorphic(left, right)
            assert report.isomorphic
            t = report.intertwiner
            for x in sub.elements:
                assert ratmat.mat_mul(t, left.matrix(x)) == ratmat.mat_mul(
                    right.matrix(x), t
                )

    def test_degree_mismatch(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        report = rep_isomorphic(
            trivial_representation(sub), regular_representation(sub, Side.LEFT)
        )
        assert not report.isomorphic
        assert report.certificate["reason"] == "degree_mismatch"

    def test_relabelled_permutation_reps(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        funcs = [(1, 2), (2, 1), (1, 1), (2, 2)]
        rep1 = permutation_representation(z2, lambda x, p: funcs[x][p - 1], [1, 2])
        rep2 = permutation_representation(
            z2, lambda x, p: 3 - funcs[x][(3 - p) - 1], [1, 2]
        )
        report = rep_isomorphic(rep1, rep2)
        assert report.isomorphic

    def test_character_mismatch(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        # sign representation vs trivial: same degree, different characters
        sign = make_representation(
            z2, {0: ((Fraction(1),),), 1: ((Fraction(-1),),)}
        )
        report = rep_isomorphic(trivial_representation(z2), sign)
        assert not report.isomorphic
        assert report.certificate["reason"] == "character_mismatch"

    def test_explicit_isomorphism_between_subgroups(self, t2_table):
        consts = find_subgroups(t2_table)[1:]  # the two singleton subgroups
        rep1 = trivial_representation(consts[0])
        rep2 = trivial_representation(consts[1])
        with pytest.raises(ValueError):
            rep_isomorphic(rep1, rep2)  # different subgroups, no map given
        report = rep_isomorphic(rep1, rep2, isomorphism={2: 3})
        assert report.isomorphic

    def test_bad_explicit_isomorphism(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        with pytest.raises(ValueError):
            rep_isomorphic(rep, rep, isomorphism={0: 0, 1: 2, 2: 2})

    def test_nontrivial_hom_space_not_isomorphic(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        one = Fraction(1)
        two_trivial = make_representation(
            z2,
            {
                0: ratmat.identity(2),
                1: ratmat.identity(2),
            },
        )
        mixed = make_representation(
            z2,
            {
                0: ratmat.identity(2),
                1: ratmat.mat([[1, 0], [0, -1]]),
            },
        )
        report = rep_isomorphic(two_trivial, mixed)
        assert not report.isomorphic


class TestDecomposition:
    def test_z2_two_lines(self, t2_table):
        z2 = find_subgroups(t2_table)[0]
        blocks = decompose_invariants(regular_representation(z2, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == [1, 1]
        assert all(b.irreducible for b in blocks)

    def test_z3_line_plus_plane(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        blocks = decompose_invariants(regular_representation(sub, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == [1, 2]
        plane = next(b for b in blocks if b.dimension == 2)
        assert plane.irreducible and plane.certificate == "commutant_field"

    def test_factorization_error_propagates(self, z3_table, monkeypatch):
        def fail(f):
            raise ValueError(f"no factorization of {f}")

        monkeypatch.setattr(semigroup.intpoly, "factor_monic", fail)
        sub = find_subgroups(z3_table)[0]
        with pytest.raises(ValueError, match="no factorization"):
            semigroup._decompose(regular_representation(sub, Side.LEFT))

    def test_z4_splits_1_1_2(self, z4_table):
        sub = find_subgroups(z4_table)[0]
        blocks = decompose_invariants(regular_representation(sub, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == [1, 1, 2]

    def test_s3_regular(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        blocks = decompose_invariants(regular_representation(sub, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == [1, 1, 2, 2]
        assert all(b.irreducible for b in blocks)

    def test_trivial_rep(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        blocks = decompose_invariants(trivial_representation(sub))
        assert len(blocks) == 1 and blocks[0].dimension == 1

    def test_block_diagonal_reconstruction(self, s3_table):
        sub = find_subgroups(s3_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        blocks = decompose_invariants(rep)
        vectors = [v for b in blocks for v in b.basis]
        cols = ratmat.mat([[vectors[j][i] for j in range(6)] for i in range(6)])
        inv = ratmat.inverse(cols)
        assert inv is not None
        boundaries = []
        start = 0
        for b in blocks:
            boundaries.append((start, start + b.dimension))
            start += b.dimension
        for x in sub.elements:
            conj = ratmat.mat_mul(ratmat.mat_mul(inv, rep.matrix(x)), cols)
            for i in range(6):
                for j in range(6):
                    inside = any(a <= i < b and a <= j < b for a, b in boundaries)
                    if not inside:
                        assert conj[i][j] == 0

    def test_subspaces_invariant(self, z4_table):
        sub = find_subgroups(z4_table)[0]
        rep = regular_representation(sub, Side.LEFT)
        for block in decompose_invariants(rep):
            basis = list(block.basis)
            for x in sub.elements:
                for v in basis:
                    assert ratmat.solve_in_span(basis, [ratmat.mat_vec(rep.matrix(x), v)]) != [None]

    @pytest.mark.parametrize(
        "m,dims",
        [(5, [1, 4]), (6, [1, 1, 2, 2]), (7, [1, 6]), (8, [1, 1, 2, 4])],
    )
    def test_cyclic_regular_decompositions(self, m, dims):
        table = validate_table([[(i + j) % m for j in range(m)] for i in range(m)])
        sub = find_subgroups(table)[0]
        blocks = decompose_invariants(regular_representation(sub, Side.LEFT))
        assert sorted(b.dimension for b in blocks) == dims
        for b in blocks:
            assert b.irreducible
            if b.dimension > 1:
                assert b.certificate == "commutant_field"

    def test_quaternion_group_regular(self):
        # Q8: the 4-dim block has a quaternionic (noncommutative,
        # division) commutant, so it must be kept whole
        names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        units = {
            ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1),
            ("1", "k"): ("k", 1), ("i", "1"): ("i", 1), ("j", "1"): ("j", 1),
            ("k", "1"): ("k", 1), ("i", "i"): ("1", -1), ("j", "j"): ("1", -1),
            ("k", "k"): ("1", -1), ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
            ("j", "k"): ("i", 1), ("k", "j"): ("i", -1), ("k", "i"): ("j", 1),
            ("i", "k"): ("j", -1),
        }

        def q_mul(a, b):
            sa, ua = (-1 if a.startswith("-") else 1), a.lstrip("-")
            sb, ub = (-1 if b.startswith("-") else 1), b.lstrip("-")
            unit, s = units[(ua, ub)]
            return unit if sa * sb * s == 1 else "-" + unit

        table = table_from_operation(names, q_mul)
        sub = find_subgroups(table)[0]
        assert sub.order == 8
        left = regular_representation(sub, Side.LEFT)
        right = regular_representation(sub, Side.RIGHT)
        assert rep_isomorphic(left, right).isomorphic
        blocks = decompose_invariants(left)
        assert sorted(b.dimension for b in blocks) == [1, 1, 1, 1, 4]
        assert all(b.irreducible for b in blocks)

    def test_degree_bound(self, z3_table):
        sub = find_subgroups(z3_table)[0]
        rep = regular_representation(sub, Side.LEFT)

        def triple(m):  # direct sum of three copies, degree 9 > 8
            return tuple(
                tuple(
                    m[i % 3][j % 3] if i // 3 == j // 3 else Fraction(0)
                    for j in range(9)
                )
                for i in range(9)
            )

        big = make_representation(sub, {x: triple(rep.matrix(x)) for x in sub.elements})
        with pytest.raises(ValueError):
            decompose_invariants(big)


def _associative_tables(max_order):
    """Every labelled table of order <= max_order that validate_table accepts."""
    for m in range(1, max_order + 1):
        for entries in itertools.product(range(m), repeat=m * m):
            try:
                yield validate_table([entries[i * m:(i + 1) * m] for i in range(m)])
            except TableError:
                continue


def _closure_table(generators, compose):
    """Cayley table of the group generated under compose."""
    elements = set(generators)
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        for g in generators:
            y = compose(x, g)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return table_from_operation(sorted(elements), compose)


def _quaternion_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _compose(f, g):
    return tuple(f[i] for i in g)


GROUP_TABLES = {
    **{f"C{n}": validate_table([[(i + j) % n for j in range(n)] for i in range(n)])
       for n in range(2, 9)},
    "S3": _closure_table([(1, 0, 2), (1, 2, 0)], _compose),
    "D4": _closure_table([(1, 2, 3, 0), (0, 3, 2, 1)], _compose),
    "Q8": _closure_table([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion_mul),
}
GROUPS = {name: find_subgroups(table)[0] for name, table in GROUP_TABLES.items()}


def _dicyclic_table(m):
    """Dic_m of order 4m: a^i b^j with a^(2m) = 1, b^2 = a^m, b a = a^-1 b."""
    def mul(x, y):
        (i, j), (k, l) = x, y
        if j == 0:
            return ((i + k) % (2 * m), l)
        return ((i - k + m * l) % (2 * m), 1 - l)

    return table_from_operation([(i, j) for j in (0, 1) for i in range(2 * m)], mul)


@pytest.mark.parametrize(
    "m, dims", [(4, [1, 1, 1, 1, 2, 2, 8]), (5, [1, 1, 2, 4, 4, 8])], ids=["Q16", "Dic5"]
)
def test_decompose_regular_dicyclic_in_time(m, dims):
    # the candidates' minimal polynomials have constant terms past 2^57,
    # whose divisors factor_monic must not list by trial division
    group = find_subgroups(_dicyclic_table(m))[0]
    assert group.order == 4 * m
    rep = regular_representation(group, Side.LEFT)
    start = time.perf_counter()
    blocks = semigroup._decompose(rep)
    assert time.perf_counter() - start < 2.0
    assert sorted(b.dimension for b in blocks) == dims


def _coset_representation(group, h):
    """Permutation representation on the left cosets of the subgroup h."""
    cosets = sorted({tuple(sorted(group.mul(x, y) for y in h.elements)) for x in group.elements})
    index = {c: i for i, c in enumerate(cosets)}

    def act(x, p):
        return index[tuple(sorted(group.mul(x, y) for y in cosets[p]))]

    return permutation_representation(group, act, range(len(cosets)))


def _conjugation_representation(group):
    return permutation_representation(
        group, lambda x, p: group.mul(group.mul(x, p), group.inverse(x)), group.elements
    )


@functools.cache
def permutation_representations(name):
    """The regular representations of a group on both sides, conjugation,
    and the left cosets of each proper nontrivial subgroup."""
    group = GROUPS[name]
    perms = [regular_representation(group, side) for side in Side]
    perms.append(_conjugation_representation(group))
    return perms + [
        _coset_representation(group, h)
        for h in find_subgroups(GROUP_TABLES[name], all_subgroups=True)
        if 1 < h.order < group.order
    ]


@functools.cache
def base_representations(name):
    """The permutation representations of a group, each also restricted
    to its zero-sum subspace, and the trivial ones of degrees 1-3."""
    group = GROUPS[name]
    perms = permutation_representations(name)
    restricted = []
    for rep in perms:
        d = rep.degree
        zero_sum = [
            ratmat.vec([1 if i == j else -1 if i == d - 1 else 0 for i in range(d)])
            for j in range(d - 1)
        ]
        restricted.append(Representation(group, d - 1, _restrict(rep, zero_sum)[0]))
    trivial = [permutation_representation(group, lambda x, p: p, range(k)) for k in (1, 2, 3)]
    return perms + restricted + trivial


@pytest.mark.parametrize("name", sorted(GROUP_TABLES))
def test_decomposition_matches_whole_space_recursion(name):
    for rep in permutation_representations(name):
        assert decompose_invariants(rep) == decompose_whole_space(rep)


@st.composite
def representations(draw, name, degree=None):
    """One of the base representations (of the given degree), optionally
    conjugated by D (I + a E_ij)(I + b E_kl), D an invertible diagonal:
    a rational change of basis that keeps the constraint oracle fast."""
    rep = draw(st.sampled_from(
        [r for r in base_representations(name) if degree in (None, r.degree)]
    ))
    d = rep.degree
    if d == 1 or not draw(st.booleans()):
        return rep
    units = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3)])
    p = ratmat.mat([[draw(units) if i == j else 0 for j in range(d)] for i in range(d)])
    for _ in range(2):
        i, j = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True))
        shear = [list(row) for row in ratmat.identity(d)]
        shear[i][j] = draw(units)
        p = ratmat.mat_mul(p, ratmat.mat(shear))
    return _conjugated(rep, p)


def _conjugated(rep, p):
    """The representation x -> P^-1 M(x) P."""
    inv = ratmat.inverse(p)
    return Representation(
        rep.subgroup,
        rep.degree,
        {x: ratmat.mat_mul(ratmat.mat_mul(inv, m), p) for x, m in rep.matrices.items()},
    )


def _oracle(m1, m2, group):
    d = len(m1[group.identity])
    return intertwiner_space_by_constraints(m1, m2, group.elements, d, d)


class TestIntertwinerSpace:
    """The Reynolds span gives the same basis, entry for entry, as the
    nullspace of the constraint system."""

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_commutant_matches_constraint_oracle(self, data):
        name = data.draw(st.sampled_from(sorted(GROUPS)))
        group = GROUPS[name]
        rep = data.draw(representations(name))
        assert _intertwiner_space(rep.matrices, rep.matrices, group) == _oracle(
            rep.matrices, rep.matrices, group
        )

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_intertwiners_match_constraint_oracle(self, data):
        # the second representation pulled back along an inner
        # automorphism x -> g x g^-1, as rep_isomorphic pulls it back
        name = data.draw(st.sampled_from(sorted(GROUPS)))
        group = GROUPS[name]
        g = data.draw(st.sampled_from(group.elements))
        rep1 = data.draw(representations(name))
        rep2 = data.draw(representations(name, rep1.degree))
        pulled = {
            x: rep2.matrix(group.mul(group.mul(g, x), group.inverse(g)))
            for x in group.elements
        }
        assert _intertwiner_space(rep1.matrices, pulled, group) == _oracle(
            rep1.matrices, pulled, group
        )

    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_explicit_isomorphism_matches_constraint_oracle(self, data):
        # regular representations of a group and of a relabelled copy of
        # its table, compared through the relabelling
        name = data.draw(st.sampled_from(sorted(GROUPS)))
        group, table = GROUPS[name], GROUP_TABLES[name].table
        perm = data.draw(st.permutations(range(len(table))))
        copy_group = find_subgroups(_relabelled(table, perm))[0]
        rep1 = regular_representation(group, data.draw(st.sampled_from(Side)))
        rep2 = regular_representation(copy_group, data.draw(st.sampled_from(Side)))
        phi = {x: perm[x] for x in group.elements}
        pulled = {x: rep2.matrix(phi[x]) for x in group.elements}
        basis = _intertwiner_space(rep1.matrices, pulled, group)
        assert basis == _oracle(rep1.matrices, pulled, group)
        report = rep_isomorphic(rep1, rep2, isomorphism=phi)
        assert report.isomorphic
        flat = [tuple(x for row in b for x in row) for b in basis]
        witness = tuple(x for row in report.intertwiner for x in row)
        assert ratmat.solve_in_span(flat, [witness]) != [None]

    def test_one_elimination_of_at_most_d_squared_rows(self, monkeypatch):
        # C_6: rep_isomorphic plus decompose_invariants solve eight
        # intertwiner spaces; each must be a single rref of <= d^2 rows
        group = GROUPS["C6"]
        left, right = regular_pair(group)
        solves, active = [], []
        real_space, real_rref = semigroup._intertwiner_space, ratmat.rref

        def space(m1, *args):
            rows = []
            solves.append((len(m1[group.identity]), rows))
            active.append(rows)
            try:
                return real_space(m1, *args)
            finally:
                active.pop()

        def rref(m, *args):
            if active:
                active[-1].append(len(m))
            return real_rref(m, *args)

        monkeypatch.setattr(semigroup, "_intertwiner_space", space)
        monkeypatch.setattr(ratmat, "rref", rref)
        assert rep_isomorphic(left, right).isomorphic
        decompose_invariants(left)
        assert len(solves) == 8
        for d, rows in solves:
            assert len(rows) == 1 and rows[0] <= d * d, (d, rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5), st.data())
def test_matrix_poly_is_horner_with_scaled_identity(dim, data):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    m = ratmat.mat([[data.draw(small) for _ in range(dim)] for _ in range(dim)])
    coeffs = data.draw(st.lists(small, max_size=5))
    expected = ratmat.zeros(dim, dim)
    for c in reversed(coeffs):
        expected = ratmat.add(ratmat.mat_mul(expected, m), ratmat.scale(c, ratmat.identity(dim)))
    got = semigroup._matrix_poly(coeffs, m)
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)


def _product_table(m, n):
    """Z_m x Z_n, the pair (i, j) at index i n + j."""
    return validate_table([
        [((a // n + b // n) % m) * n + (a + b) % n for b in range(m * n)] for a in range(m * n)
    ])


# every group of order 2-8, up to isomorphism
SMALL_GROUP_TABLES = {
    **GROUP_TABLES,
    "C2xC2": validate_table([[a ^ b for b in range(4)] for a in range(4)]),
    "C2xC4": _product_table(2, 4),
    "C2^3": validate_table([[a ^ b for b in range(8)] for a in range(8)]),
}


def _relabelled(table, perm):
    """The table with each element x renamed perm[x]."""
    copy = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            copy[perm[x]][perm[y]] = perm[z]
    return validate_table(copy)


def _direct_sum(group, reps):
    d = sum(r.degree for r in reps)

    def block(x):
        rows, offset = [], 0
        for r in reps:
            for row in r.matrix(x):
                rows.append([0] * offset + list(row) + [0] * (d - offset - r.degree))
            offset += r.degree
        return ratmat.mat(rows)

    return Representation(group, d, {x: block(x) for x in group.elements})


def _irreducible_plane_of_s3():
    group = GROUPS["S3"]
    h = next(h for h in find_subgroups(GROUP_TABLES["S3"], all_subgroups=True) if h.order == 2)
    zero_sum = [ratmat.vec([1, 0, -1]), ratmat.vec([0, 1, -1])]
    return Representation(group, 2, _restrict(_coset_representation(group, h), zero_sum)[0])


@functools.cache
def sums_with_repeated_components():
    c2, c3, s3 = GROUPS["C2"], GROUPS["C3"], GROUPS["S3"]
    w = _irreducible_plane_of_s3()
    return [
        *(_direct_sum(g, [trivial_representation(g)] * m) for g in (c2, s3) for m in (2, 3, 4)),
        _direct_sum(c3, [regular_representation(c3, Side.LEFT), trivial_representation(c3)]),
        _direct_sum(s3, [regular_representation(s3, Side.LEFT), trivial_representation(s3)]),
        _direct_sum(s3, [w, w]),
        _direct_sum(s3, [w, w, trivial_representation(s3)]),
        *(_direct_sum(g, [regular_representation(g, Side.LEFT)] * 2) for g in (c2, c3)),
    ]


@st.composite
def integer_conjugators(draw, d):
    """An invertible d x d integer matrix with entries in [-3, 3]."""
    entries = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    p = ratmat.mat(draw(st.lists(entries, min_size=d, max_size=d)))
    assume(ratmat.rank(p) == d)
    return p


def _assert_witness(report, rep1, rep2):
    t = report.intertwiner
    assert report.isomorphic and ratmat.rank(t) == rep1.degree
    for x in rep1.subgroup.elements:
        assert ratmat.mat_mul(t, rep1.matrix(x)) == ratmat.mat_mul(rep2.matrix(x), t)


class TestWitnessSearch:
    """rep_isomorphic builds its witness by raising the rank of T + c B_i."""

    @pytest.mark.parametrize("d, limit", [(4, 0.1), (8, 1.0)])
    def test_trivial_representation_of_c2_in_time(self, d, limit):
        # every intertwiner basis element E_ij has rank 1, so the search
        # takes d steps; the {0..d}^k grid needed about 2.5e8 candidates at d = 4
        rep = permutation_representation(GROUPS["C2"], lambda x, p: p, range(d))
        start = time.perf_counter()
        report = rep_isomorphic(rep, rep)
        assert time.perf_counter() - start < limit
        _assert_witness(report, rep, rep)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_conjugated_direct_sums_with_repeated_components(self, data):
        rep = data.draw(st.sampled_from(sums_with_repeated_components()))
        rep1 = _conjugated(rep, data.draw(integer_conjugators(rep.degree)))
        rep2 = _conjugated(rep, data.draw(integer_conjugators(rep.degree)))
        _assert_witness(rep_isomorphic(rep1, rep2), rep1, rep2)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(SMALL_GROUP_TABLES)), st.data())
    def test_left_right_regular_witness_is_the_first_basis_element(self, name, data):
        # B_1 is the indicator of one orbit on pairs: a permutation matrix
        table = SMALL_GROUP_TABLES[name].table
        perm = data.draw(st.permutations(range(len(table))))
        group = find_subgroups(_relabelled(table, perm))[0]
        left, right = regular_pair(group)
        report = rep_isomorphic(left, right)
        assert report.intertwiner == _intertwiner_space(left.matrices, right.matrices, group)[0]
        _assert_witness(report, left, right)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(GROUPS)), st.data())
    def test_grid_oracle_agrees_up_to_degree_3(self, name, data):
        rep1 = data.draw(representations(name).filter(lambda r: r.degree <= 3))
        rep2 = data.draw(representations(name, rep1.degree))
        report = rep_isomorphic(rep1, rep2)
        grid = rep_isomorphic_by_grid(rep1, rep2)
        assert report.isomorphic == (grid is not None)
        if grid is not None:
            assert rat_det(grid) != 0
            _assert_witness(report, rep1, rep2)

    def test_a_stalled_search_names_its_rank(self, monkeypatch):
        # a basis missing every intertwiner that could raise rank 1
        rep = permutation_representation(GROUPS["C2"], lambda x, p: p, range(2))
        corner = ratmat.mat([[1, 0], [0, 0]])
        monkeypatch.setattr(semigroup, "_intertwiner_space", lambda *args: [corner])
        with pytest.raises(AssertionError, match="stalled at rank 1 of 2"):
            rep_isomorphic(rep, rep)
