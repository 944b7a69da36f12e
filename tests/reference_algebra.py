"""Independent reference implementations that tests compare against.

Brute-force or single-purpose versions of routines whose fast or
field-generic forms live in ``smaralg``: the divisor-by-divisor subfield
search, the subfield maps tabulated as dicts that the closed forms
replaced, the separate Z_q and rational Gauss-Jordan loops that the one
elimination kernel in ``smaralg.ratmat`` replaced, the dense matrix
products that ratmat's zero-skipping ones replaced, the subfield matrix
products read one ``at()`` entry at a time that linalg's row-by-column
kernel replaced, the minimal
polynomial solved one degree at a time, the monic integer factorization
by Kronecker's divisor interpolation that intpoly's Zassenhaus replaced,
the intertwiner space solved from its defining linear constraints, the
isomorphism witness found by sweeping the unit and all-ones weightings
and then the {0..d}^k grid, the spectral projections built from the
inverse of the whole eigenbasis and checked pair by pair that linalg's
Gram projections replaced, the primitive exponent found by exact
Fraction powers that econ's zero-pattern bitsets replaced, the
invariant decomposition with
every block re-expressed in the coordinates of the whole space and
every factor of the minimal polynomial tried, the subgroup list that
certifies every subset of a semigroup table, the lattice check that
tests every semivector axiom, the semivector combination folded one
vector at a time and the exact residual sets of the nonnegative-integer
search built as tuples, and the best relaxed Leontief equilibrium
found among the vertices of the unit 1-norm ball of the nullspace or on
the {-2..2}^k grid of basis weightings.

It also holds the helpers that only tests call: entrywise sums,
differences and scalar multiples of subfield matrices, the
Cayley-Hamilton residual p(A), the set of S-characteristic values of an
eigen system, the whole-ring test of a subfield, semigroup tables built
from a binary operation, and the trivial representation.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from smaralg import ratmat, semigroup
from smaralg.linalg import SubfieldMatrix, SubfieldVector, char_poly, identity_matrix, mat_mul
from smaralg.ringcore import SubfieldRejection, certify_subfield
from smaralg.semivector import _EXACT_SET_WORK, LatticeCheck


def subfield_oracle(n: int):
    """Certify d·Z_n for every divisor d; same contract as find_subfields,
    restricted to 2 <= n <= 64."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if n > 64:
        raise ValueError("subfield_oracle is limited to n <= 64")
    found = []
    for d in range(1, n + 1):
        if n % d != 0:
            continue
        candidate = sorted({(k * d) % n for k in range(n // d)})
        try:
            found.append(certify_subfield(n, candidate))
        except (SubfieldRejection, ValueError):
            continue
    return sorted(found, key=lambda s: s.prime_order)


def subfield_maps_by_dicts(sf):
    """The subfield's isomorphism with Z_q tabulated: the dict
    k·e mod n -> k over k in Z_q, and its inverse.  Membership is being a
    key of the first."""
    to_prime = {(k * sf.identity) % sf.n: k for k in range(sf.prime_order)}
    return to_prime, {v: k for k, v in to_prime.items()}


def rref_mod(a, q: int):
    """Reduced row echelon form mod prime q; returns (rref, pivot columns).
    Rows the elimination never touches keep their entries unreduced."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] % q != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, q)
        m[r] = [(x * inv) % q for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] % q != 0:
                factor = m[i][c] % q
                m[i] = [(x - factor * y) % q for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rat_rref(m):
    """Reduced row echelon form over Q; returns (rows as lists, pivot cols)."""
    work = [list(row) for row in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][c]
        work[r] = [x / inv for x in work[r]]
        for i in range(rows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


def rat_det(m) -> Fraction:
    """Determinant over Q by forward elimination."""
    work = [list(row) for row in m]
    dim = len(work)
    result = Fraction(1)
    for c in range(dim):
        pivot = next((i for i in range(c, dim) if work[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            work[c], work[pivot] = work[pivot], work[c]
            result = -result
        result *= work[c][c]
        inv = work[c][c]
        for i in range(c + 1, dim):
            if work[i][c] != 0:
                f = work[i][c] / inv
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    return result


def rat_solve(a, b):
    """One particular solution of A x = b over Q (free variables zero), or
    None when inconsistent."""
    b = [Fraction(x) for x in b]
    cols = len(a[0]) if a else 0
    aug = [[Fraction(x) for x in row] + [bi] for row, bi in zip(a, b)]
    reduced, pivots = rat_rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][cols]
    return tuple(x)


def dense_mat_mul(a, b):
    """Row-by-column product over every entry: d³ multiply-adds."""
    bt = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dense_mat_vec(a, v):
    v = [Fraction(x) for x in v]
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def _same_subfield(a, b) -> None:
    if a.k != b.k:
        raise ValueError("operands live over different subfields")


def mat_mul_by_entries(a: SubfieldMatrix, b: SubfieldMatrix) -> SubfieldMatrix:
    """A·B mod n over a subfield, each entry a sum of at() products."""
    _same_subfield(a, b)
    if a.cols != b.rows:
        raise ValueError("shape mismatch for multiplication")
    n = a.n
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            out.append(sum(a.at(i, t) * b.at(t, j) for t in range(a.cols)) % n)
    return SubfieldMatrix(a.k, a.rows, b.cols, tuple(out))


def apply_matrix_by_entries(a: SubfieldMatrix, v: SubfieldVector) -> SubfieldVector:
    """A·v mod n over a subfield, each entry a sum of at() products."""
    _same_subfield(a, v)
    if a.cols != len(v.entries):
        raise ValueError("shape mismatch for matrix-vector product")
    n = a.n
    out = tuple(
        sum(a.at(i, j) * v.entries[j] for j in range(a.cols)) % n
        for i in range(a.rows)
    )
    return SubfieldVector(a.k, out)


def transpose_by_entries(a: SubfieldMatrix) -> SubfieldMatrix:
    return SubfieldMatrix.from_rows(
        a.k, [[a.at(i, j) for i in range(a.rows)] for j in range(a.cols)]
    )


def mat_add(a: SubfieldMatrix, b: SubfieldMatrix) -> SubfieldMatrix:
    _same_subfield(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch for addition")
    n = a.n
    return SubfieldMatrix(a.k, a.rows, a.cols, tuple((x + y) % n for x, y in zip(a.entries, b.entries)))


def scalar_mul(c: int, a: SubfieldMatrix) -> SubfieldMatrix:
    if not a.k.contains(c):
        raise ValueError(f"scalar {c} is not in the subfield")
    n = a.n
    return SubfieldMatrix(a.k, a.rows, a.cols, tuple((c * x) % n for x in a.entries))


def mat_sub(a: SubfieldMatrix, b: SubfieldMatrix) -> SubfieldMatrix:
    _same_subfield(a, b)
    n = a.n
    return SubfieldMatrix(a.k, a.rows, a.cols, tuple((x - y) % n for x, y in zip(a.entries, b.entries)))


def char_poly_substitute(a: SubfieldMatrix) -> SubfieldMatrix:
    """p(A) with p the prime-field characteristic polynomial, evaluated
    mod n with scalar action through from_prime; zero by Cayley-Hamilton."""
    k = a.k
    dim = a.rows
    coeffs = char_poly(a).prime_coeffs
    power = identity_matrix(k, dim)
    acc = SubfieldMatrix(k, dim, dim, (0,) * (dim * dim))
    for i, c in enumerate(coeffs):
        if i > 0:
            power = mat_mul(power, a)
        acc = mat_add(acc, scalar_mul(k.from_prime(c), power))
    return acc


def intertwiner_space_by_constraints(m1, m2, elements, d1: int, d2: int):
    """Basis of {T : T M1(x) = M2(x) T for all x}, T d2 x d1, as the
    nullspace of the (|G| d1 d2) x (d1 d2) system the equations spell out."""
    unknowns = d2 * d1
    rows = []
    for x in elements:
        a, b = m1[x], m2[x]
        for i in range(d2):
            for j in range(d1):
                row = [Fraction(0)] * unknowns
                for t in range(d1):
                    row[i * d1 + t] += a[t][j]
                for t in range(d2):
                    row[t * d1 + j] -= b[i][t]
                rows.append(row)
    basis = ratmat.nullspace(ratmat.mat(rows)) if rows else []
    return [
        tuple(tuple(v[i * d1 + j] for j in range(d1)) for i in range(d2))
        for v in basis
    ]


def rep_isomorphic_by_grid(rep1, rep2):
    """An invertible intertwiner T (T M1(x) = M2(x) T) of two
    representations of one subgroup, or None when there is none.

    Over the constraint oracle's basis B_1..B_k it tries the unit
    weightings, then all ones, then every point of {0..d}^k in
    lexicographic order, one determinant each: det(sum w_i B_i) has degree
    at most d in each w_i, and a nonzero polynomial of that kind cannot
    vanish on the whole grid, so None means no invertible intertwiner
    exists.  Exponential in k: a degree-4 trivial representation of C2
    with itself does not finish in a minute."""
    d = rep1.degree
    if d != rep2.degree:
        return None
    elements = rep1.subgroup.elements
    basis = intertwiner_space_by_constraints(rep1.matrices, rep2.matrices, elements, d, d)
    k = len(basis)
    units = (tuple(int(i == j) for j in range(k)) for i in range(k))
    grid = itertools.product(range(d + 1), repeat=k)
    for weights in itertools.chain(units, [(1,) * k], grid):
        cand = tuple(
            tuple(sum((w * b[i][j] for w, b in zip(weights, basis)), Fraction(0)) for j in range(d))
            for i in range(d)
        )
        if rat_det(cand) != 0:
            return cand
    return None


def min_poly_by_degree(m):
    """Monic minimal polynomial, ascending coefficients: the first power
    M^k that lies in the span of I, ..., M^(k-1), one solve per degree."""
    dim = len(m)
    flats = []
    power = ratmat.identity(dim)
    while True:
        flat = tuple(x for row in power for x in row)
        coords = ratmat.solve_in_span(flats, [flat])[0] if flats else None
        if flats and coords is not None:
            return [-c for c in coords] + [Fraction(1)]
        flats.append(flat)
        power = ratmat.mat_mul(power, m)
        if len(flats) > dim * dim + 1:
            raise AssertionError("minimal polynomial search failed to terminate")


def _interpolate(points):
    """Lagrange interpolation; returns ascending Fraction coefficients."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        for t in range(len(basis)):
            coeffs[t] += yi * basis[t] / denom
    return coeffs


def _poly_eval(coeffs, x: int) -> int:
    return sum(c * x**i for i, c in enumerate(coeffs))


def _divisors_signed(n: int) -> list[int]:
    """The divisors of n != 0 built from its prime factorization, each
    followed by its negative, in ascending absolute value."""
    n = abs(n)
    divisors = [1]
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        divisors = [d * p**i for d in divisors for i in range(k + 1)]
        p += 1
    if n > 1:
        divisors += [d * n for d in divisors]
    return [s * d for d in sorted(divisors) for s in (1, -1)]


def _divmod_monic(f, g):
    """(quotient, remainder) of f by a monic g over the integers, by long
    division; [0] for a zero quotient or remainder."""
    rem = list(f)
    quot = [0] * max(len(f) - len(g) + 1, 1)
    for i in range(len(f) - len(g), -1, -1):
        quot[i] = c = rem[i + len(g) - 1]
        for j, y in enumerate(g):
            rem[i + j] -= c * y
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot, rem


_KRONECKER_CAP = 250_000
_VALUE_CAP = 10**12  # divisor enumeration is O(sqrt(value))


def factor_monic_by_kronecker(f) -> list[list[int]]:
    """intpoly.factor_monic by Kronecker's method: the integer roots
    peeled, then for r = 2 .. deg/2 every choice of divisors of f's values
    at r + 1 points interpolated and tried as a factor of degree r.

    Exponential in the degree, so it raises ValueError past a cap on the
    number of divisor combinations or on the size of the values.
    """
    f = list(f)
    assert f[-1] == 1, "input must be monic"
    factors: list[list[int]] = []

    # peel integer roots (monic => all rational roots are integers)
    changed = True
    while changed and len(f) > 2:
        changed = False
        if f[0] == 0:
            quot, rem = _divmod_monic(f, [0, 1])
            assert rem == [0]
            factors.append([0, 1])
            f = quot
            changed = True
            continue
        for r in _divisors_signed(f[0]):
            if _poly_eval(f, r) == 0:
                quot, rem = _divmod_monic(f, [-r, 1])
                assert rem == [0]
                factors.append([-r, 1])
                f = quot
                changed = True
                break

    degree = len(f) - 1
    if degree == 1:
        factors.append(f)
        return sorted(factors, key=lambda g: (len(g), g))
    if degree <= 1:
        return sorted(factors, key=lambda g: (len(g), g))

    # Kronecker sweep for factors of degree 2 .. degree//2
    r = 2
    while r <= (len(f) - 1) // 2:
        points = []
        x = 0
        while len(points) < r + 1:
            points.append(x)
            x = -x if x > 0 else -x + 1
        values = [_poly_eval(f, p) for p in points]
        assert all(v != 0 for v in values), "roots should have been peeled"
        if any(abs(v) > _VALUE_CAP for v in values):
            raise ValueError(f"Kronecker values too large for {f}")
        combos = 1
        for v in values:
            combos *= len(_divisors_signed(v))
        if combos > _KRONECKER_CAP:
            raise ValueError(
                f"Kronecker sweep too large ({combos} combinations) for {f}"
            )
        found = None
        for choice in itertools.product(*(_divisors_signed(v) for v in values)):
            cand = _interpolate(list(zip(points, choice)))
            if any(c.denominator != 1 for c in cand):
                continue
            cand_int = [int(c) for c in cand]
            while len(cand_int) > 1 and cand_int[-1] == 0:
                cand_int.pop()
            if len(cand_int) - 1 != r or cand_int[-1] != 1:
                continue
            quot, rem = _divmod_monic(f, cand_int)
            if rem == [0]:
                found = cand_int
                break
        if found is not None:
            factors.append(found)  # minimal degree => irreducible
            f, _ = _divmod_monic(f, found)
            continue  # retry the same r on the quotient
        r += 1

    if len(f) > 1:
        factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))


def _nullspace_mod(a, q: int) -> list[list[int]]:
    """Nullspace basis mod prime q from rref_mod: each free variable set
    to 1 in turn, ascending."""
    reduced, pivots = rref_mod(a, q)
    cols = len(a[0])
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free] % q
        basis.append(v)
    return basis


def spectral_terms_by_eigenbasis_inverse(a: SubfieldMatrix):
    """The spectral terms (c_i, E_i) of a self-adjoint A over k, values in
    eigen_system's order (residues q-1 down to 0), or None when A is not
    diagonalizable over k.  The eigenbasis B comes from rref_mod
    nullspaces, its inverse from rref_mod of [B | I], and
    E_i = B·D_i·B⁻¹ with D_i the 0/1 diagonal of c_i's columns; every
    identity E_iE_j = δ_ij·E_i, ΣE_i = I_e and Σc_iE_i = A is asserted
    mod n, k² products in all."""
    k, dim, q = a.k, a.rows, a.k.prime_order
    prime = [[k.to_prime(a.at(i, j)) for j in range(dim)] for i in range(dim)]
    blocks, columns = [], []
    for r in range(q - 1, -1, -1):
        shifted = [[(prime[i][j] - r * (i == j)) % q for j in range(dim)] for i in range(dim)]
        basis = _nullspace_mod(shifted, q)
        if basis:
            blocks.append((k.from_prime(r), range(len(columns), len(columns) + len(basis))))
            columns += basis
    if len(columns) < dim:
        return None
    b = [list(row) for row in zip(*columns)]
    reduced, pivots = rref_mod([row + [int(i == j) for j in range(dim)]
                                for i, row in enumerate(b)], q)
    assert pivots == list(range(dim)), "the eigenbasis must be invertible"
    b_inv = [row[dim:] for row in reduced]
    terms = []
    for c, block in blocks:
        entries = [
            k.from_prime(sum(b[i][t] * b_inv[t][j] for t in block) % q)
            for i in range(dim) for j in range(dim)
        ]
        terms.append((c, SubfieldMatrix(k, dim, dim, tuple(entries))))
    zero = SubfieldMatrix(k, dim, dim, (0,) * (dim * dim))
    for i, (_, e_i) in enumerate(terms):
        for j, (_, e_j) in enumerate(terms):
            want = e_i if i == j else zero
            assert mat_mul_by_entries(e_i, e_j).entries == want.entries, "E_iE_j = δ_ij·E_i"
    total, recon = zero, zero
    for c, e in terms:
        total, recon = mat_add(total, e), mat_add(recon, scalar_mul(c, e))
    identity = tuple(k.identity * (i == j) for i in range(dim) for j in range(dim))
    assert total.entries == identity, "ΣE_i = I_e"
    assert recon.entries == a.entries, "Σc_iE_i = A"
    return terms


def first_positive_power_by_products(a) -> int | None:
    """The least m up to Wielandt's bound (d-1)²+1 with A^m > 0 entrywise,
    from exact Fraction powers of A; None when there is none."""
    power = a
    for m in range(1, (len(a) - 1) ** 2 + 2):
        if all(x > 0 for row in power for x in row):
            return m
        power = ratmat.mat_mul(power, a)
    return None


def s_value_set(es) -> set[int]:
    """The S-characteristic values of an EigenSystem, as a set."""
    return {ev.value for ev in es.s_values}


def is_whole_ring(sf) -> bool:
    """Whether the subfield is all of Z_n (n prime)."""
    return sf.prime_order == sf.n


def table_from_operation(elements, op):
    """Build and validate a semigroup table from a concrete binary operation."""
    index = {x: i for i, x in enumerate(elements)}
    raw = [[index[op(x, y)] for y in elements] for x in elements]
    return semigroup.validate_table(raw)


def trivial_representation(subgroup):
    one = ((Fraction(1),),)
    return semigroup.make_representation(subgroup, {x: one for x in subgroup.elements})


def restrict(rep, basis):
    """Matrices of the action in the coordinates of an invariant subspace."""
    elements = rep.subgroup.elements
    k = len(basis)
    images = [ratmat.mat_vec(rep.matrix(x), b) for x in elements for b in basis]
    coords = ratmat.solve_in_span(basis, images)
    assert None not in coords, "subspace must be invariant"
    return {
        x: tuple(tuple(coords[n * k + j][i] for j in range(k)) for i in range(k))
        for n, x in enumerate(elements)
    }


def decompose_whole_space(rep):
    """decompose_invariants by recursion on bases of subspaces of the whole
    space: each step restricts the original action to the current basis
    (starting from the standard one), tries every irreducible factor of
    each candidate's minimal polynomial, skipping scalar candidates and
    non-integral minimal polynomials, and lifts the split parts back to
    the whole space before recursing on them."""
    dim = rep.degree
    return _decompose_in(rep, list(ratmat.identity(dim)))


def _lift(basis, coords):
    return tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(len(basis[0])))


def _decompose_in(rep, basis):
    subdim = len(basis)
    restricted = restrict(rep, basis)
    sub_rep = semigroup.Representation(rep.subgroup, subdim, restricted)
    commutant = semigroup._intertwiner_space(restricted, restricted, rep.subgroup)
    block = functools.partial(semigroup.InvariantBlock, tuple(basis), True)
    if len(commutant) == 1:
        return [block("commutant_scalars")]
    for cand in semigroup._split_candidates(commutant):
        scaled = semigroup._integer_scaled(cand)
        minp = min_poly_by_degree(scaled)
        if any(c.denominator != 1 for c in minp) or len(minp) <= 2:
            continue
        try:
            factors = factor_monic_by_kronecker([int(c) for c in minp])
        except ValueError:
            continue
        for g in factors:
            kernel = ratmat.nullspace(semigroup._matrix_poly([Fraction(c) for c in g], scaled))
            if 0 < len(kernel) < subdim:
                p0 = semigroup.projection_onto(kernel, subdim)
                complement = ratmat.nullspace(semigroup.averaged_projection(sub_rep, kernel, p0))
                return _decompose_in(rep, [_lift(basis, w) for w in kernel]) + _decompose_in(
                    rep, [_lift(basis, z) for z in complement]
                )
        if len(factors) == 1 and len(minp) - 1 == len(commutant):
            return [block("commutant_field")]
    return [block("candidate_pool_exhausted")]


def subgroups_by_subset_scan(table):
    """find_subgroups(table, all_subgroups=True) by certifying each of the
    2^m subsets of the table as a group; same records, same order."""
    found = []
    for r in range(1, table.order + 1):
        for subset in itertools.combinations(range(table.order), r):
            record = _group_from_subset(table, subset)
            if record is not None:
                found.append(record)
    return sorted(found, key=lambda g: (g.identity, -g.order, g.elements))


def _group_from_subset(table, elems):
    """Certify a sorted subset as a group under the table; None when it
    is not: closed, with a two-sided identity and two-sided inverses."""
    eset = set(elems)
    if any(table.mul(x, y) not in eset for x in elems for y in elems):
        return None
    identity = next(
        (e for e in elems if all(table.mul(e, x) == x == table.mul(x, e) for x in elems)), None
    )
    if identity is None:
        return None
    inverses = {}
    for x in elems:
        inv = next(
            (y for y in elems if table.mul(x, y) == identity == table.mul(y, x)), None
        )
        if inv is None:
            return None
        inverses[x] = inv
    return semigroup.SubgroupRecord(
        table=table,
        identity=identity,
        elements=tuple(elems),
        inverse_pairs=tuple(inverses.items()),
    )


def leontief_best_key(x):
    """The best-solution policy's key for a 1-norm-one equilibrium:
    negative mass, then minus the sum, then the vector itself."""
    return (sum(max(Fraction(0), -v) for v in x), -sum(x), tuple(x))


def _unit_pair(x):
    norm = sum(abs(v) for v in x)
    return [tuple(v / norm for v in x), tuple(-v / norm for v in x)]


def best_by_vertex_enumeration(basis):
    """closed_solve's relaxed best from the vertices of the unit 1-norm
    ball of W = span(basis): each set of k - 1 zero coordinates that
    leaves a one-dimensional solution w of the basis weights gives the
    vertices +-B w / |B w|_1, and the least key among them is the best."""
    k, dim = len(basis), len(basis[0])
    vertices = []
    for zeros in itertools.combinations(range(dim), k - 1):
        reduced, pivots = rat_rref([[b[i] for b in basis] for i in zeros])
        if len(pivots) != k - 1:
            continue
        free = next(c for c in range(k) if c not in pivots)
        w = [Fraction(0)] * k
        w[free] = Fraction(1)
        for r, c in enumerate(pivots):
            w[c] = -reduced[r][free]
        vertices += _unit_pair([sum(wj * b[i] for wj, b in zip(w, basis)) for i in range(dim)])
    return min(vertices, key=leontief_best_key)


def best_by_grid(basis):
    """The least key among the 1-norm-one combinations of the basis with
    weights in {-2..2}^k: it can miss the policy's optimum, so its key
    only bounds the best one from above."""
    candidates = []
    for weights in itertools.product(range(-2, 3), repeat=len(basis)):
        x = [sum(w * b[i] for w, b in zip(weights, basis)) for i in range(len(basis[0]))]
        if any(x):
            candidates.append(_unit_pair(x)[0])
    return min(candidates, key=leontief_best_key)


def lattice_check_all_axioms(join, meet) -> LatticeCheck:
    """lattice_semivector_check that, after the lattice laws, searches for
    bottom and top and tests every semivector axiom for the scalars
    {bottom, top} acting by meet, each exhaustively."""
    m = len(join)
    if m == 0 or len(meet) != m or any(len(r) != m for r in join + meet):
        raise ValueError("join/meet tables must be square and equal-sized")
    if any(not 0 <= x < m for r in join + meet for x in r):
        raise ValueError("table entry out of range")
    elems = range(m)
    for name, op in (("join", join), ("meet", meet)):
        for a in elems:
            if op[a][a] != a:
                return LatticeCheck(False, f"{name}_idempotent", (a,))
            for b in elems:
                if op[a][b] != op[b][a]:
                    return LatticeCheck(False, f"{name}_commutative", (a, b))
                for c in elems:
                    if op[op[a][b]][c] != op[a][op[b][c]]:
                        return LatticeCheck(False, f"{name}_associative", (a, b, c))
    for a, b in itertools.product(elems, repeat=2):
        if join[a][meet[a][b]] != a:
            return LatticeCheck(False, "absorption_join", (a, b))
        if meet[a][join[a][b]] != a:
            return LatticeCheck(False, "absorption_meet", (a, b))
    bottom = next((b for b in elems if all(join[b][x] == x for x in elems)), None)
    top = next((t for t in elems if all(meet[t][x] == x for x in elems)), None)
    if bottom is None or top is None:
        return LatticeCheck(False, "bounded", None)
    scalars = (bottom, top)
    for a in elems:
        if join[bottom][a] != a:
            return LatticeCheck(False, "additive_zero", (a,))
    for s, a in itertools.product(scalars, elems):
        if not 0 <= meet[s][a] < m:
            return LatticeCheck(False, "scalar_closure", (s, a))
    for a in elems:
        if meet[bottom][a] != bottom:
            return LatticeCheck(False, "zero_scalar_annihilates", (a,))
        if meet[top][a] != a:
            return LatticeCheck(False, "unit_scalar_identity", (a,))
    for s, t in itertools.product(scalars, repeat=2):
        for a in elems:
            if meet[meet[s][t]][a] != meet[s][meet[t][a]]:
                return LatticeCheck(False, "scalar_associativity", (s, t, a))
            if meet[join[s][t]][a] != join[meet[s][a]][meet[t][a]]:
                return LatticeCheck(False, "scalar_sum_distributes", (s, t, a))
        for b, a in itertools.product(elems, repeat=2):
            if meet[s][join[a][b]] != join[meet[s][a]][meet[s][b]]:
                return LatticeCheck(False, "vector_sum_distributes", (s, a, b))
    return LatticeCheck(True)


def combine_by_fold(semifield, coeffs, vectors) -> tuple:
    """semivector.combine folded one vector at a time into a list of
    coordinates with the semifield's add and mul."""
    length = len(vectors[0].entries) if vectors else 0
    acc = [semifield.zero] * length
    for c, v in zip(coeffs, vectors):
        for i, x in enumerate(v.entries):
            acc[i] = semifield.add(acc[i], semifield.mul(c, x))
    return tuple(acc)


def nonneg_exact_sets_by_tuples(target, generators, ranges) -> dict:
    """The tables of semivector._exact_residual_sets, unpacked: level i
    holds, as tuples, every combination of generators i..k-1 over their
    ranges that stays <= the target, for the same levels."""
    t = target.entries
    k = len(generators)
    exact = {k: {(0,) * len(t)}}
    i = k - 1
    while i >= 0 and len(exact[i + 1]) * len(ranges[i]) <= _EXACT_SET_WORK:
        g = generators[i].entries
        sums = (
            tuple(b + c * x for b, x in zip(base, g))
            for base in exact[i + 1]
            for c in ranges[i]
        )
        exact[i] = {v for v in sums if all(x <= y for x, y in zip(v, t))}
        i -= 1
    return exact
