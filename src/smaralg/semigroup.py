"""Finite semigroups, their subgroups, and exact-rational representations.

A semigroup arrives as a multiplication table (indices into itself);
subgroups sit at idempotents, and every subgroup comes from closure
inside the maximal subgroup at its identity.  Representations map
subgroup elements to invertible rational matrices, whose homomorphism
law make_representation verifies once, exhaustively, before use.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import Record, intpoly, json_form, ratmat
from .ratmat import Matrix, Vector


class TableError(ValueError):
    """A raw table fails a structural check; carries the witness."""

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


@dataclass(frozen=True)
class SemigroupTable(Record):
    """m x m multiplication table: table[x][y] = x*y, verified associative."""

    order: int
    table: tuple[tuple[int, ...], ...]

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def idempotents(self) -> list[int]:
        return [e for e in range(self.order) if self.mul(e, e) == e]


def validate_table(raw) -> SemigroupTable:
    """Check types, shape, range and associativity (O(m^3), with witness)."""
    if not isinstance(raw, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in raw):
        raise TableError("table must be a list of rows")
    rows = [list(r) for r in raw]
    m = len(rows)
    if m == 0 or any(len(r) != m for r in rows):
        raise TableError("table must be a nonempty square array")
    for x in range(m):
        for y in range(m):
            if not isinstance(rows[x][y], int) or isinstance(rows[x][y], bool):
                raise TableError(f"entry ({x},{y}) = {rows[x][y]!r} is not an integer", (x, y))
            if not 0 <= rows[x][y] < m:
                raise TableError(f"entry ({x},{y}) = {rows[x][y]} out of range", (x, y))
    for x in range(m):
        for y in range(m):
            xy = rows[x][y]
            for z in range(m):
                if rows[xy][z] != rows[x][rows[y][z]]:
                    raise TableError(
                        f"not associative at (x,y,z) = ({x},{y},{z})", (x, y, z)
                    )
    return SemigroupTable(order=m, table=tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class SubgroupRecord:
    """A subset of the semigroup that is a group, anchored at its idempotent."""

    table: SemigroupTable
    identity: int
    elements: tuple[int, ...]
    inverse_pairs: tuple[tuple[int, int], ...]
    _inv: dict = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not self._inv:
            object.__setattr__(self, "_inv", dict(self.inverse_pairs))

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, x: int, y: int) -> int:
        return self.table.mul(x, y)

    def inverse(self, x: int) -> int:
        return self._inv[x]

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "elements": list(self.elements),
            "inverses": {str(x): y for x, y in self.inverse_pairs},
        }


def maximal_subgroup_at(table: SemigroupTable, e: int) -> SubgroupRecord:
    """The group of units of the local monoid eSe, each unit paired with
    the inverse the search finds for it."""
    if table.mul(e, e) != e:
        raise ValueError(f"{e} is not idempotent")
    local = sorted({table.mul(table.mul(e, s), e) for s in range(table.order)})
    inverse = {x: y for x in local for y in local if table.mul(x, y) == e == table.mul(y, x)}
    assert all(table.mul(x, y) in inverse for x in inverse for y in inverse), "units must close"
    return SubgroupRecord(table, e, tuple(inverse), tuple(inverse.items()))


def _subgroups_within(group: SubgroupRecord) -> list[SubgroupRecord]:
    """Every subgroup of a group, from the trivial one up.

    Each subgroup K found and each g outside it give <K, g>: the set
    reached from the identity by right multiplication with K and g (in a
    finite group the monoid a set generates is the group it generates).
    Adding its elements one at a time reaches every subgroup.  Every
    element of the coset gK generates the same <K, g> (gx and x^-1 lie in
    it for x in K), so once <K, g> is built the whole coset is skipped.
    """
    e = group.identity
    found = {frozenset((e,))}
    pending = list(found)
    while pending:
        k = pending.pop()
        done = set(k)
        for g in group.elements:
            if g in done:
                continue
            done.update(group.mul(g, x) for x in k)
            generators = k | {g}
            reached, frontier = {e}, {e}
            while frontier:
                frontier = {group.mul(x, y) for x in frontier for y in generators} - reached
                reached |= frontier
            h = frozenset(reached)
            if h not in found:
                found.add(h)
                pending.append(h)
    return [
        SubgroupRecord(group.table, e, h, tuple((x, group.inverse(x)) for x in h))
        for h in (tuple(sorted(s)) for s in found)
    ]


def find_subgroups(table: SemigroupTable, all_subgroups: bool = False) -> list[SubgroupRecord]:
    """Maximal subgroup at every idempotent; with all_subgroups=True
    (order <= 12) every subgroup, by closure inside the maximal subgroup
    at its identity (a subgroup with identity e lies in the units of eSe).

    Order: identity index ascending, then size descending, then elements.
    """
    if all_subgroups and table.order > 12:
        raise ValueError("all-subgroups enumeration is limited to order <= 12")
    found = [maximal_subgroup_at(table, e) for e in table.idempotents()]
    if all_subgroups:
        found = [h for g in found for h in _subgroups_within(g)]
    return sorted(found, key=lambda g: (g.identity, -g.order, g.elements))


class Side(str, enum.Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Representation(Record):
    """Exact-rational matrix homomorphism on a subgroup.

    matrices[x] is the matrix of x on the chosen ordered basis; M(e) = I
    and the homomorphism law M(x)M(y) = M(xy) holds for every pair
    (verified once, at construction time, by make_representation).
    """

    subgroup: SubgroupRecord
    degree: int
    matrices: dict[int, Matrix] = field(compare=False)

    def matrix(self, x: int) -> Matrix:
        return self.matrices[x]


def make_representation(subgroup: SubgroupRecord, matrices: dict[int, Matrix]) -> Representation:
    """Verify M(e) = I and M(x)M(y) = M(xy) for every pair (so that
    M(x)M(x^-1) = I), then wrap.  A failure raises TableError with the
    first failing pair (x, y), or (e,) for the identity, as witness."""
    e = subgroup.identity
    degree = len(matrices[e])
    if matrices[e] != ratmat.identity(degree):
        raise TableError("identity must map to I", (e,))
    for x in subgroup.elements:
        for y in subgroup.elements:
            if ratmat.mat_mul(matrices[x], matrices[y]) != matrices[subgroup.mul(x, y)]:
                raise TableError(f"homomorphism law fails at ({x},{y})", (x, y))
    return Representation(subgroup=subgroup, degree=degree, matrices=matrices)


def _permutation_matrix(f, points) -> Matrix:
    """The matrix sending the indicator at p to the indicator at f(p), on
    the indicators of the points in their given order."""
    index = {p: i for i, p in enumerate(points)}
    m = [[Fraction(0)] * len(points) for _ in points]
    for p in points:
        m[index[f(p)]][index[p]] = Fraction(1)
    return tuple(tuple(row) for row in m)


def regular_representation(subgroup: SubgroupRecord, side: Side) -> Representation:
    """Permutation matrices of the translation action on functions.

    Basis: indicator functions of the sorted subgroup elements.  The left
    action sends the indicator at w to the one at x*w; the right action
    (built from f(z) -> f(zx)) sends it to the one at w*x^-1, which is
    what makes the map a homomorphism.
    """
    if side is Side.LEFT:
        action = subgroup.mul
    else:
        def action(x, w):
            return subgroup.mul(w, subgroup.inverse(x))
    return permutation_representation(subgroup, action, subgroup.elements)


def permutation_representation(subgroup: SubgroupRecord, action, points) -> Representation:
    """Representation on functions over a finite set acted on by the group.

    ``action(x, p)`` must be a left action by bijections; a map that is
    not a bijection, or whose matrices break the homomorphism law, raises
    TableError with a witness.  Basis: indicators of the sorted points.
    """
    point_set = set(points)
    pts = sorted(point_set)
    for x in subgroup.elements:
        if {action(x, p) for p in pts} != point_set:  # onto a finite set iff bijective
            raise TableError(f"element {x} does not act bijectively", x)
    return make_representation(
        subgroup,
        {x: _permutation_matrix(functools.partial(action, x), pts) for x in subgroup.elements},
    )


def left_right_intertwiner(left: Representation, right: Representation) -> Matrix:
    """T with T(indicator at a) = indicator at a^-1, for the left and right
    regular representations of one subgroup; satisfies T . R_x = L_x . T
    for every x (asserted), so L and R are isomorphic."""
    subgroup = left.subgroup
    if subgroup != right.subgroup:
        raise ValueError("the representations are over different subgroups")
    t = _permutation_matrix(subgroup.inverse, subgroup.elements)
    assert ratmat.rank(t) == subgroup.order, "intertwiner must be invertible"
    _assert_intertwines(
        t, right.matrices, left.matrices, subgroup.elements, "intertwining identity fails at {}"
    )
    return t


def _assert_intertwines(t: Matrix, m1, m2, elements, message: str) -> None:
    """Assert T M1(x) = M2(x) T for every x in elements; message.format(x)
    names the first x where it fails."""
    for x in elements:
        assert ratmat.mat_mul(t, m1[x]) == ratmat.mat_mul(m2[x], t), message.format(x)


def projection_onto(w_basis: list[Vector], dim: int) -> Matrix:
    """Some projection with range span(w_basis): extend the basis greedily
    with standard vectors, project along the extension.

    One rref of [W | I] gives both.  Its pivot columns past W are the
    greedy extension; its rows reduce the chosen columns B to I, so its
    last dim columns are B^-1, and P = B diag(1, ..., 1, 0, ..., 0) B^-1
    is W times the first k rows of B^-1.
    """
    k = len(w_basis)
    aug = [[w[i] for w in w_basis] + [int(i == j) for j in range(dim)] for i in range(dim)]
    reduced, pivots = ratmat.rref(ratmat.mat(aug))
    assert pivots[:k] == list(range(k)), "could not extend the basis"
    if not k:
        return ratmat.zeros(dim, dim)
    return ratmat.mat_mul(ratmat.transpose(w_basis), [row[k:] for row in reduced[:k]])


def averaged_projection(rep: Representation, w_basis, p0: Matrix) -> Matrix:
    """Group-average P0 into the invariant projection onto W.

    P = (1/|H|) sum_x M(x) P0 M(x)^-1.  Verifies the preconditions (W
    invariant, P0 a projection onto W) and asserts every claimed output
    property: P^2 = P, P fixes W, range(P) = W, P commutes with the
    action, and ker P is an invariant complement of W.
    """
    return _invariant_projection(rep, w_basis, p0)[0]


def _invariant_projection(rep: Representation, w_basis, p0: Matrix):
    """averaged_projection's P, with W and ker P each paired with the
    action on it that the invariance checks solve for."""
    sub = rep.subgroup
    dim = rep.degree
    w_basis = [ratmat.vec(w) for w in w_basis]
    w_action, witness = _restrict(rep, w_basis)
    if witness is not None:
        raise ValueError(f"W is not invariant: witness element {witness}")
    if ratmat.mat_mul(p0, p0) != p0:
        raise ValueError("P0 is not idempotent")
    for w in w_basis:
        if ratmat.mat_vec(p0, w) != tuple(w):
            raise ValueError("P0 does not fix W pointwise")
    if None in ratmat.solve_in_span(w_basis, ratmat.transpose(p0)):
        raise ValueError("range of P0 is not contained in W")

    total = ratmat.zeros(dim, dim)
    for x in sub.elements:
        conj = ratmat.mat_mul(
            ratmat.mat_mul(rep.matrix(x), p0), rep.matrix(sub.inverse(x))
        )
        total = ratmat.add(total, conj)
    p = ratmat.scale(Fraction(1, sub.order), total)

    assert ratmat.mat_mul(p, p) == p, "average must stay idempotent"
    for w in w_basis:
        assert ratmat.mat_vec(p, w) == tuple(w), "average must fix W"
    assert None not in ratmat.solve_in_span(w_basis, ratmat.transpose(p)), (
        "range must stay inside W"
    )
    _assert_intertwines(
        p, rep.matrices, rep.matrices, sub.elements, "average must commute with M({})"
    )
    kernel = ratmat.nullspace(p)
    stacked = ratmat.mat(list(w_basis) + list(kernel))
    assert ratmat.rank(stacked) == len(w_basis) + len(kernel) == dim, (
        "kernel must complement W"
    )
    kernel_action, witness = _restrict(rep, kernel)
    assert witness is None, "kernel must be invariant"
    return p, [(w_basis, w_action), (kernel, kernel_action)]


def _restrict(rep: Representation, basis: list[Vector]):
    """(action, None), the matrices of the action in the coordinates of
    span(basis), from one elimination; or (None, x) for the first
    element x that moves a basis vector out of the span."""
    elements = rep.subgroup.elements
    k = len(basis)
    images = [ratmat.mat_vec(rep.matrix(x), b) for x in elements for b in basis]
    coords = ratmat.solve_in_span(basis, images)
    if None in coords:
        return None, elements[coords.index(None) // k]
    action = {
        x: tuple(tuple(coords[n * k + j][i] for j in range(k)) for i in range(k))
        for n, x in enumerate(elements)
    }
    return action, None


@dataclass(frozen=True)
class IsoReport(Record):
    isomorphic: bool
    intertwiner: Matrix | None
    certificate: dict | None


def _intertwiner_space(m1: dict[int, Matrix], m2: dict[int, Matrix], group: SubgroupRecord):
    """Basis of {T : T M1(x) = M2(x) T for all x}, M1 and M2 of one degree
    and keyed by the elements of group: the span of the group averages
    sum_g M2(g) E_ij M1(g^-1) of the elementary matrices (the Reynolds
    operator).  The basis is the one a nullspace with free columns set to
    one would give: the rref of the flattened averages with the columns
    reversed, read back and listed by ascending last nonzero entry.
    """
    d = len(m1[group.identity])
    last = d * d - 1
    # entry (a, b) of the (i, j) term is M2(g)[a][i] M1(g^-1)[j][b]
    flipped = [[Fraction(0)] * (d * d) for _ in range(d * d)]
    for x in group.elements:
        b, c = m2[x], m1[group.inverse(x)]
        columns = [[(a, b[a][i]) for a in range(d) if b[a][i]] for i in range(d)]
        rows = [[(e, c[j][e]) for e in range(d) if c[j][e]] for j in range(d)]
        for i, column in enumerate(columns):
            for j, row in enumerate(rows):
                average = flipped[i * d + j]
                for a, u in column:
                    for e, v in row:
                        average[last - a * d - e] += u * v
    reduced, pivots = ratmat.rref(flipped)
    return [
        tuple(tuple(v[a * d : (a + 1) * d]) for a in range(d))
        for v in (row[::-1] for row in reversed(reduced[: len(pivots)]))
    ]


def rep_isomorphic(rep1: Representation, rep2: Representation, isomorphism=None) -> IsoReport:
    """Decide isomorphism and produce an invertible intertwiner witness.

    The decision is by exact character equality (valid over the rationals
    for finite groups).  The witness is built from the basis B_1, ..., B_k
    of the intertwiners (_intertwiner_space) by raising the rank: from
    T = 0 of rank r = 0, while r < d, T becomes the first T + c B_i, in
    basis order and then c = 1, ..., r + 1, whose rank exceeds r.

    The search cannot stall.  K = ker T is a submodule of V1, and by
    Maschke's theorem and Krull-Schmidt cancellation V2 / im T is
    isomorphic to K, so some B_i maps K outside im T.  In bases adapted
    to T, the (r+1)-minor that borders T's nonsingular r-minor with a
    nonzero entry of B_i from K to V2 / im T is c h(c), h of degree <= r
    with h(0) != 0, so one of c = 1, ..., r + 1 raises the rank: at most
    d steps of at most k (r + 1) rank tests each.
    """
    if isomorphism is None:
        if rep1.subgroup.elements != rep2.subgroup.elements or rep1.subgroup.table != rep2.subgroup.table:
            raise ValueError("subgroups differ; supply an explicit isomorphism")
        mapping = {x: x for x in rep1.subgroup.elements}
    else:
        mapping = dict(isomorphism)
        if sorted(mapping) != sorted(rep1.subgroup.elements) or sorted(
            mapping.values()
        ) != sorted(rep2.subgroup.elements):
            raise ValueError("the supplied isomorphism does not match the subgroups")
        for x in rep1.subgroup.elements:
            for y in rep1.subgroup.elements:
                if mapping[rep1.subgroup.mul(x, y)] != rep2.subgroup.mul(
                    mapping[x], mapping[y]
                ):
                    raise ValueError(f"supplied map is not a homomorphism at ({x},{y})")
    m2_pulled = {x: rep2.matrix(mapping[x]) for x in rep1.subgroup.elements}

    if rep1.degree != rep2.degree:
        return IsoReport(
            False, None, {"reason": "degree_mismatch", "degrees": [rep1.degree, rep2.degree]}
        )
    d = rep1.degree
    for x in rep1.subgroup.elements:
        t1 = sum(rep1.matrix(x)[i][i] for i in range(d))
        t2 = sum(m2_pulled[x][i][i] for i in range(d))
        if t1 != t2:
            return IsoReport(
                False,
                None,
                {
                    "reason": "character_mismatch",
                    "element": x,
                    "traces": json_form([t1, t2]),
                },
            )

    basis = _intertwiner_space(rep1.matrices, m2_pulled, rep1.subgroup)
    assert basis, "equal characters force a nonzero intertwiner space"
    t, r = ratmat.zeros(d, d), 0
    while r < d:
        candidates = (ratmat.add(t, ratmat.scale(c, b)) for b in basis for c in range(1, r + 2))
        for cand in candidates:
            if (rank := ratmat.rank(cand)) > r:
                t, r = cand, rank
                break
        else:
            raise AssertionError(f"the witness search stalled at rank {r} of {d}")
    _assert_intertwines(
        t, rep1.matrices, m2_pulled, rep1.subgroup.elements, "witness must intertwine"
    )
    return IsoReport(True, t, None)


@dataclass(frozen=True)
class InvariantBlock:
    basis: tuple[Vector, ...]
    irreducible: bool
    certificate: str

    @property
    def dimension(self) -> int:
        return len(self.basis)


def decompose_invariants(rep: Representation) -> list[InvariantBlock]:
    """Split the representation into invariant subspaces, recursively,
    and certify each emitted block irreducible over the rationals.

    Splitting operators are drawn from the commutant (spanned by the group
    averages sum_g M(g) E_ij M(g^-1) of the elementary matrices), products
    of its basis and deterministic combinations, each built when reached;
    when a candidate's minimal polynomial has two or more irreducible
    factors, the kernel of the first is proper and yields a split,
    realized with the averaged projection so the complement is invariant
    too.
    """
    if rep.degree > 8:
        raise ValueError("decomposition is limited to degree <= 8")
    blocks = _decompose(rep)
    stacked = ratmat.mat([v for b in blocks for v in b.basis])
    assert ratmat.rank(stacked) == rep.degree, "blocks must span the whole space"
    return blocks


def _matrix_poly(coeffs, m: Matrix) -> Matrix:
    dim = len(m)
    acc = ratmat.zeros(dim, dim)
    for c in reversed(coeffs):
        acc = ratmat.mat_mul(acc, m)
        acc = tuple(
            tuple(x + c if i == j else x for j, x in enumerate(row))
            for i, row in enumerate(acc)
        )
    return acc


def _integer_scaled(m: Matrix) -> Matrix:
    return ratmat.scale(math.lcm(*(x.denominator for row in m for x in row)), m)


def _split_candidates(commutant):
    """Commutant elements to try as splitting operators, each once and
    built only when reached: the basis, its pairwise products, then the
    combinations sum_i s^i B_i for s = 2, ..., 2k + 3."""
    products = (ratmat.mat_mul(a, b) for a in commutant for b in commutant)
    combos = (
        functools.reduce(
            ratmat.add, (ratmat.scale(Fraction(s) ** i, b) for i, b in enumerate(commutant))
        )
        for s in range(2, 2 * len(commutant) + 4)
    )
    seen = set()
    for m in itertools.chain(commutant, products, combos):
        if m not in seen:
            seen.add(m)
            yield m


def _decompose(rep: Representation) -> list[InvariantBlock]:
    """The blocks of rep, with bases in rep's coordinates: each part of a
    split recurses in the coordinates of its own basis, and its blocks
    are mapped back through that basis."""
    dim = rep.degree
    commutant = _intertwiner_space(rep.matrices, rep.matrices, rep.subgroup)
    if len(commutant) == 1:
        return [
            InvariantBlock(
                basis=ratmat.identity(dim), irreducible=True, certificate="commutant_scalars"
            )
        ]
    field_evidence = False
    for cand in _split_candidates(commutant):
        scaled = _integer_scaled(cand)
        minp = ratmat.min_poly(scaled)
        assert all(c.denominator == 1 for c in minp), "an integer matrix has an integer minp"
        factors = intpoly.factor_monic([int(c) for c in minp])
        if len(factors) > 1:
            # g = factors[0] properly divides minp = g h, so g(M) != 0 and
            # h(M) != 0 by minimality, and g(M) h(M) = 0 makes g(M) singular
            evaluated = _matrix_poly([Fraction(c) for c in factors[0]], scaled)
            kernel = ratmat.nullspace(evaluated)
            assert 0 < len(kernel) < dim, "a proper factor of minp must split"
            _, parts = _invariant_projection(rep, kernel, projection_onto(kernel, dim))
            blocks = []
            for part, action in parts:
                lift = ratmat.transpose(part)
                blocks += [
                    replace(b, basis=tuple(ratmat.mat_vec(lift, v) for v in b.basis))
                    for b in _decompose(Representation(rep.subgroup, len(part), action))
                ]
            return blocks
        # the powers of cand span a subalgebra as large as the commutant,
        # so the commutant is Q[x]/(minp), a field (minp irreducible): no
        # idempotents, hence no invariant splitting exists at all
        if len(minp) - 1 == len(commutant):
            assert all(
                ratmat.mat_mul(a, b) == ratmat.mat_mul(b, a)
                for a, b in itertools.combinations(commutant, 2)
            ), "a commutant spanned by the powers of one element must commute"
            field_evidence = True
            break
    return [
        InvariantBlock(
            basis=ratmat.identity(dim),
            irreducible=True,
            certificate="commutant_field" if field_evidence else "candidate_pool_exhausted",
        )
    ]
