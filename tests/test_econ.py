import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference_algebra import (
    best_by_grid,
    best_by_vertex_enumeration,
    first_positive_power_by_products,
    leontief_best_key,
)
from smaralg import econ, ratmat
from smaralg.econ import (
    NON_PRODUCTIVE_LABEL,
    TransitionKind,
    classify_transition,
    closed_solve,
    markov_step,
    open_solve,
    parse_consumption_csv,
)


def m(rows):
    return ratmat.mat(rows)


class TestClassification:
    def test_classical(self):
        cls = classify_transition(m([["1/2", "3/10"], ["1/2", "7/10"]]))
        assert cls.kind is TransitionKind.CLASSICAL and not cls.violations

    def test_smarandache(self):
        cls = classify_transition(m([["1/2", "-1/5"], ["2/5", "7/10"]]))
        assert cls.kind is TransitionKind.SMARANDACHE
        assert any("negative" in v for v in cls.violations)

    def test_invalid_entry(self):
        cls = classify_transition(m([[2, 0], [0, 1]]))
        assert cls.kind is TransitionKind.INVALID

    def test_invalid_column_sum(self):
        cls = classify_transition(m([["-1/2", 0], ["-3/4", 0]]))
        assert cls.kind is TransitionKind.INVALID
        assert any("column" in v for v in cls.violations)

    def test_non_square(self):
        with pytest.raises(ValueError):
            classify_transition(m([[0, 1]]))

    rational = st.fractions(
        min_value=Fraction(-3, 2), max_value=Fraction(3, 2), max_denominator=8
    )

    @given(st.lists(rational, min_size=4, max_size=4))
    @settings(deadline=None, max_examples=300)
    def test_partition(self, entries):
        p = m([entries[:2], entries[2:]])
        kind = classify_transition(p).kind
        in_range = all(abs(x) <= 1 for row in p for x in row)
        nonneg = all(x >= 0 for row in p for x in row)
        sums = [p[0][j] + p[1][j] for j in range(2)]
        classical = nonneg and all(s == 1 for s in sums)
        smarandache = in_range and not classical and all(abs(s) <= 1 for s in sums)
        expected = (
            TransitionKind.CLASSICAL
            if classical
            else TransitionKind.SMARANDACHE
            if smarandache
            else TransitionKind.INVALID
        )
        assert kind is expected


class TestMarkovStep:
    def test_first_column(self):
        tr = markov_step(m([["1/2", "3/10"], ["1/2", "7/10"]]), [1, 0], 1)
        assert tr.states == ((Fraction(1, 2), Fraction(1, 2)),)

    def test_identity_fixed_point(self):
        tr = markov_step(ratmat.identity(3), ["1/3", "1/3", "1/3"], 5)
        assert all(s == (Fraction(1, 3),) * 3 for s in tr.states)

    def test_smarandache_diagnostics(self):
        tr = markov_step(m([["1/2", "-1/5"], ["2/5", "7/10"]]), [1, 0], 1)
        assert tr.states[0] == (Fraction(1, 2), Fraction(2, 5))
        assert tr.diagnostics[0].total == Fraction(9, 10)

    def test_probability_preserved_exactly(self):
        rng = random.Random(99)
        for _ in range(50):
            cols = []
            for _ in range(3):
                cuts = sorted(rng.randint(0, 12) for _ in range(2))
                cols.append(
                    [
                        Fraction(cuts[0], 12),
                        Fraction(cuts[1] - cuts[0], 12),
                        Fraction(12 - cuts[1], 12),
                    ]
                )
            p = tuple(zip(*cols))
            tr = markov_step(p, ["1/2", "1/4", "1/4"], 4)
            for s in tr.states:
                assert sum(s) == 1

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            markov_step(m([[2, 0], [0, 1]]), [1, 0], 1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            markov_step(ratmat.identity(2), [1, 0, 0], 1)


class TestClosedModel:
    def test_normalized_ray(self):
        sol = closed_solve(m([["1/2", "1/4"], ["1/2", "3/4"]]))
        assert sol.path == "classical"
        assert sol.unique and sol.nonnegative_exists
        assert sol.representative == (Fraction(1, 3), Fraction(2, 3))
        assert sol.positive_power == 1

    def test_positive_power_up_to_wielandts_bound(self):
        # primitive, but A, A^2, A^3 and A^4 each have a zero entry
        sol = closed_solve(m([[0, 0, "1/2"], [1, 0, "1/2"], [0, 1, 0]]))
        assert sol.path == "classical" and sol.positive_power == 5
        # a 4-cycle is irreducible but not primitive
        cycle = m([[int(i == (j + 1) % 4) for j in range(4)] for i in range(4)])
        assert closed_solve(cycle).positive_power is None

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5).flatmap(
        lambda d: st.lists(st.lists(st.booleans(), min_size=d, max_size=d), min_size=d, max_size=d)
    ))
    def test_positive_power_matches_a_long_boolean_search(self, pattern):
        # no power past the bound is positive when none up to it is:
        # search three times as far over the boolean pattern of A
        d = len(pattern)
        power, found = pattern, None
        for k in range(1, 3 * d * d + 1):
            if all(map(all, power)):
                found = k
                break
            power = [[any(p and pattern[t][j] for t, p in enumerate(row)) for j in range(d)]
                     for row in power]
        a = m([[int(x) for x in row] for row in pattern])
        assert econ._first_positive_power(a) == found

    @staticmethod
    def wielandt(d):
        """The d-cycle 0 -> 1 -> ... -> d-1 -> 0 plus the chord d-1 -> 1:
        primitive with exponent (d-1)^2 + 1, the largest possible."""
        return m([[int(j == i + 1 or (i == d - 1 and j in (0, 1))) for j in range(d)]
                  for i in range(d)])

    def test_positive_power_reaches_wielandts_bound(self):
        for d in range(2, 13):
            assert econ._first_positive_power(self.wielandt(d)) == (d - 1) ** 2 + 1
        a = self.wielandt(12)
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            econ._first_positive_power(a)
            elapsed.append(time.perf_counter() - start)
        assert min(elapsed) < 0.005

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda d: st.lists(st.lists(st.sampled_from([0, 0, 0, Fraction(1, 3), 1, 2]),
                                    min_size=d, max_size=d), min_size=d, max_size=d)
    ))
    def test_positive_power_matches_the_fraction_powers(self, rows):
        a = m(rows)
        assert econ._first_positive_power(a) == first_positive_power_by_products(a)

    def test_identity_full_nullspace(self):
        sol = closed_solve(ratmat.identity(2))
        assert len(sol.basis) == 2 and not sol.unique

    def test_no_equilibrium_on_s_path(self):
        sol = closed_solve(m([["1/2", "1/4"], ["1/4", "3/4"]]))
        assert sol.path == "smarandache" and sol.no_equilibrium

    def test_s_path_best_solution(self):
        a = m([[1, 1], [0, "1/2"]])  # (I-A) = [[0,-1],[0,1/2]]: kernel = span((1,0))
        sol = closed_solve(a)
        assert sol.path == "smarandache" and not sol.no_equilibrium
        assert sol.best == (Fraction(1), Fraction(0))

    def test_exact_resubstitution(self):
        rng = random.Random(5)
        for _ in range(30):
            cols = []
            for _ in range(3):
                cuts = sorted(rng.randint(0, 6) for _ in range(2))
                cols.append(
                    [
                        Fraction(cuts[0], 6),
                        Fraction(cuts[1] - cuts[0], 6),
                        Fraction(6 - cuts[1], 6),
                    ]
                )
            a = tuple(zip(*cols))
            sol = closed_solve(a)
            system = ratmat.sub(ratmat.identity(3), a)
            for b in sol.basis:
                assert all(x == 0 for x in ratmat.mat_vec(system, b))

    def test_non_square(self):
        with pytest.raises(ValueError):
            closed_solve(m([[1, 0]]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            closed_solve(m([]))

    def test_best_policy_default(self):
        a = m([[1, 1], [0, "1/2"]])
        assert closed_solve(a).best == (Fraction(1), Fraction(0))

    @pytest.mark.parametrize(
        "rows, path",
        [
            ([["1/2", "1/4"], ["1/2", "3/4"]], "classical"),
            ([[3, 1, 3], [0, 1, 0], [0, 0, 1]], "smarandache"),
        ],
    )
    def test_one_elimination_per_solve(self, rows, path, monkeypatch):
        calls = []
        real = ratmat.rref
        monkeypatch.setattr(ratmat, "rref", lambda *args: calls.append(args) or real(*args))
        sol = closed_solve(m(rows))
        assert sol.path == path and sol.basis
        assert len(calls) == 1

    @st.composite
    def low_rank_systems(draw):
        """I - A = U V of rank dim - nullity, dimension <= 6, nullity 1-4."""
        dim = draw(st.integers(1, 6))
        rank = dim - draw(st.integers(1, min(4, dim)))
        entry = st.fractions(min_value=-2, max_value=2, max_denominator=2)

        def block(rows, cols):
            return st.lists(st.lists(entry, min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows)

        u, v = draw(block(dim, rank)), draw(block(rank, dim))
        return ratmat.mat_mul(u, v) if rank else ratmat.zeros(dim, dim)

    @given(low_rank_systems())
    @example(ratmat.zeros(4, 4))  # W = Q^4
    @example(m([[1, -2, 0], [0, 0, 1], [1, -2, 1]]))  # nullity 1
    @settings(deadline=None, max_examples=100)
    def test_best_is_the_exact_optimum(self, system):
        dim = len(system)
        reduced, pivots = ratmat.rref(system)
        basis = ratmat.nullspace_from_rref(reduced, pivots, dim)
        assume(1 <= len(basis) <= 4)
        best = econ._best_on_unit_ball(reduced, pivots, dim)
        assert best == best_by_vertex_enumeration(basis)
        assert leontief_best_key(best) <= leontief_best_key(best_by_grid(basis))
        sol = closed_solve(ratmat.sub(ratmat.identity(dim), system))
        assert sol.best == (best if sol.path == "smarandache" else None)



class TestOpenModel:
    def test_paper_style_example(self):
        sol = open_solve(m([["1/5", "3/10"], ["2/5", "1/10"]]), [10, 10])
        assert sol.productive
        assert sol.solution == (Fraction(20), Fraction(20))
        assert sol.row_sums_below_one and sol.col_sums_below_one

    def test_zero_consumption(self):
        sol = open_solve(ratmat.zeros(2, 2), [3, 4])
        assert sol.solution == (Fraction(3), Fraction(4))

    def test_non_productive_labelled(self):
        sol = open_solve(m([["3/2", 0], [0, "1/2"]]), [1, 1])
        assert not sol.productive
        assert sol.label == NON_PRODUCTIVE_LABEL

    def test_s_path_with_negative_entries(self):
        sol = open_solve(m([[0, "-1/2"], ["-1/2", 0]]), [1, -1])
        assert sol.path == "smarandache"
        assert sol.solution is not None

    def test_singular_reports_nullspace(self):
        sol = open_solve(ratmat.identity(2), [1, 1])  # I - C = 0
        assert not sol.productive and len(sol.singular_nullspace) == 2

    def test_row_sum_sufficiency_random(self):
        rng = random.Random(77)
        for _ in range(200):
            dim = rng.randint(2, 3)
            rows = []
            for _ in range(dim):
                weights = [rng.randint(0, 5) for _ in range(dim)]
                denom = sum(weights) + rng.randint(1, 5)
                rows.append([Fraction(w, denom) for w in weights])
            c = ratmat.mat(rows)
            assert all(sum(r) < 1 for r in c)
            sol = open_solve(c, [1] * dim)
            assert sol.productive, f"row sums < 1 must imply productive: {c}"
            assert all(x >= 0 for x in sol.solution)

    def test_column_sum_sufficiency_random(self):
        rng = random.Random(78)
        for _ in range(200):
            dim = rng.randint(2, 3)
            cols = []
            for _ in range(dim):
                weights = [rng.randint(0, 5) for _ in range(dim)]
                denom = sum(weights) + rng.randint(1, 5)
                cols.append([Fraction(w, denom) for w in weights])
            c = ratmat.mat(tuple(zip(*cols)))
            sol = open_solve(c, [1] * dim)
            assert sol.productive, f"column sums < 1 must imply productive: {c}"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            open_solve(ratmat.identity(2), [1, 2, 3])


class TestCsv:
    def test_round_trip(self):
        names, matrix = parse_consumption_csv("steel,food\n1/5,3/10\n2/5,1/10\n")
        assert names == ["steel", "food"]
        assert matrix == m([["1/5", "3/10"], ["2/5", "1/10"]])

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            parse_consumption_csv("a,b\n1,2\n")

    def test_floats_rejected(self):
        with pytest.raises(ValueError):
            ratmat.frac_from_json(0.5)
