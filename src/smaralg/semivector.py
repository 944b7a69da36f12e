"""Semivector spaces over the nonnegative integers and over chain lattices.

No subtraction exists here, so independence and spanning behave unlike
vector spaces: independent sets can outnumber any spanning set, and an
element can have several representations in a basis.

Span membership and representation enumeration search the coefficient
box of ``_coefficient_ranges`` (per generator: the allowed scalars over a
chain, 0..min_j floor(t_j / g_ij) over the nonnegative integers), which
provably holds every solution; ``searched_domain_sizes`` reports the
sizes of that box.  The box is walked in lexicographic order, so the
first solution and the order of the enumeration are those of the full
scan, but a prefix is entered only when it can still be completed:

- over a chain lattice by Sanchez's residuation bound (1976; see also
  Cuninghame-Green, *Minimax Algebra*): coefficient i never exceeds
  min{t_j : g_ij > t_j}, so every partial combination stays <= t and
  only which coordinates already equal the target decides whether a
  prefix completes.  The search state is that set of covered
  coordinates (a bitmask, at most 2^d per level), and a prefix completes
  exactly when its coordinates and those that every later generator
  covers at the largest allowed scalar are all of them.  That test
  costs O(d), so a non-member is decided before any coefficient is
  tried;
- over the nonnegative integers by reachability of the residual target
  t - (prefix combination), which must stay >= 0 and within what the
  later generators can cover; the residuals the last generators can
  cover are tabulated exactly, each packed into one int with a guard
  bit per coordinate so that a table level is built by int additions
  and one mask test per sum.

A (level, state) pair is searched at most once per call: when its
subtree is finished, its fruitful (coefficient, next state) edges are
stored (none for a dead state), and every later prefix that reaches the
pair replays them instead of searching again.  Once the distinct states
are solved, the cost of an enumeration is linear in its output.

The semifield operations are builtins (``max``/``min`` over a chain,
``operator.add``/``operator.mul`` over the integers), and ``dot`` is one
builtin reduction.  Every returned coefficient tuple, searched or
replayed, is re-verified with ``combine``, which recomputes it from
scratch one coordinate at a time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat

from . import Record


@dataclass(frozen=True)
class NonNegIntegers(Record):
    """The strict semifield of nonnegative integers."""

    kind: str = "nonneg"

    def valid(self, x) -> bool:
        return isinstance(x, int) and x >= 0

    zero = 0
    one = 1
    add, mul = staticmethod(operator.add), staticmethod(operator.mul)

    @staticmethod
    def dot(coeffs, column) -> int:
        """sum_i c_i * x_i."""
        return sum(map(operator.mul, coeffs, column))


@dataclass(frozen=True)
class ChainLattice(Record):
    """C_m: ranks 0 < 1 < ... < m-1 with join = max and meet = min."""

    size: int
    kind: str = "chain"

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("a chain lattice needs at least 2 elements")

    def valid(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.size

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return self.size - 1

    add, mul = staticmethod(max), staticmethod(min)  # join and meet

    @staticmethod
    def dot(coeffs, column) -> int:
        """The join of the meets min(c_i, x_i); the bottom 0 when empty."""
        return max(map(min, coeffs, column), default=0)

    def carrier(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class SemivectorTuple:
    semifield: object
    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for x in self.entries:
            if not self.semifield.valid(x):
                raise ValueError(f"{x!r} is not an element of the semifield")

    def is_zero(self) -> bool:
        return all(x == self.semifield.zero for x in self.entries)

    def to_json(self):
        return list(self.entries)


def combine(semifield, coeffs, vectors) -> tuple:
    """sum_i c_i * v_i with the semifield's operations, one coordinate
    (column of the family) at a time by ``semifield.dot``; coefficients
    beyond the family, or vectors beyond the coefficients, take no part."""
    return tuple(map(semifield.dot, repeat(coeffs), zip(*[v.entries for v in vectors])))


def _check_family(vectors):
    if not vectors:
        raise ValueError("need at least one tuple")
    sf = vectors[0].semifield
    length = len(vectors[0].entries)
    for v in vectors:
        if v.semifield != sf or len(v.entries) != length:
            raise ValueError("tuples must share a semifield and a length")
    return sf, length


def _coefficient_ranges(target: SemivectorTuple, generators, scalars):
    """Per-generator coefficient domains that provably cover all solutions."""
    sf = target.semifield
    chain = isinstance(sf, ChainLattice)
    if chain and scalars is None:
        scalars = sf.carrier()
    if scalars is not None:
        for s in scalars:
            if not sf.valid(s):
                where = "the lattice carrier" if chain else "the nonnegative integers"
                raise ValueError(f"scalar {s!r} outside {where}")
        return [list(scalars) for _ in generators]
    ranges = []
    for g in generators:
        if g.is_zero():
            raise ValueError(
                "zero generator over the nonnegative integers: coefficient unbounded"
            )
        bound = min(
            t // x for t, x in zip(target.entries, g.entries) if x > 0
        )
        ranges.append(range(bound + 1))
    return ranges


@dataclass(frozen=True)
class SpanResult:
    member: bool
    coefficients: tuple | None
    searched: tuple  # sizes of the exhausted coefficient domains

    def to_json(self):
        return {
            "member": self.member,
            "coefficients": None if self.coefficients is None else list(self.coefficients),
            "searched_domain_sizes": list(self.searched),
        }


def _chain_bounds(sf, target, generators, ranges):
    """(start, step, candidates, completes) for the search over a chain
    lattice, from Sanchez's residuation bound.

    candidates(i): the scalars of ranges[i], in order, that are at most
    min{t_j : g_ij > t_j} (the top when no such j); any larger one
    overshoots the target.  With only those, min(c, g_ij) <= t_j for
    every term, so every partial combination stays <= t, and whether a
    prefix completes depends only on the coordinates it already takes to
    t_j: the state is that set, a bitmask from start (the coordinates
    where t_j is 0), and step(state, i, c) adds the coordinates where
    min(c, g_ij) = t_j.  suffix[i]: the coordinates that generators
    i..k-1 cover, each at the largest of its candidates, or None where
    some generator from i on has none.  combine is monotone, so no later
    choice covers more, and a state completes exactly when it and
    suffix[i] cover every coordinate.
    """
    t = target.entries
    full = (1 << len(t)) - 1
    allowed, covers = [], []
    for g, r in zip(generators, ranges):
        bound = min((tj for tj, x in zip(t, g.entries) if x > tj), default=sf.one)
        allowed.append([c for c in r if c <= bound])
        covers.append({
            c: sum(1 << j for j, (tj, x) in enumerate(zip(t, g.entries)) if min(c, x) == tj)
            for c in allowed[-1]
        })
    suffix = [None] * len(generators) + [0]
    for i in range(len(generators) - 1, -1, -1):
        if not allowed[i]:
            break
        suffix[i] = suffix[i + 1] | covers[i][max(allowed[i])]
    start = sum(1 << j for j, tj in enumerate(t) if tj == sf.zero)

    def step(state, i, c):
        return state | covers[i][c]

    def candidates(i, state):
        return allowed[i]

    def completes(i, state):
        return suffix[i] is not None and state | suffix[i] == full

    return start, step, candidates, completes


# Most tuples built for the exact residual sets of the last generators.
_EXACT_SET_WORK = 1024


def _exact_residual_sets(target, generators, ranges):
    """(exact, pack): exact[i] holds, packed, every residual that
    generators i..k-1 cover without exceeding the target, built from the
    last generator up while len(exact[i + 1]) * len(ranges[i]) stays
    within _EXACT_SET_WORK: the deepest levels hold most of the search
    states.

    pack(r) is one int of w = max(t).bit_length() + 2 bits per
    coordinate, field j holding 2^(w-1) - 1 - t_j + r_j.  Each step
    c * g_i is packed without the offset, and only when it is <= t (so
    explicit scalars that overshoot are dropped); a field of base + step
    then stays below 2^w, so no carry crosses into the next field, and
    its top bit is set exactly when the sum exceeds t_j.  A sum therefore
    stays within the target exactly when it has no bit of guard.
    """
    t = target.entries
    w = max(t, default=0).bit_length() + 2
    shifts = range(0, w * len(t), w)
    guard = sum(1 << (s + w - 1) for s in shifts)
    zero = sum(((1 << (w - 1)) - 1 - tj) << s for tj, s in zip(t, shifts))

    def pack(residual):
        return zero + sum(map(operator.lshift, residual, shifts))

    exact = {len(generators): {zero}}
    i = len(generators) - 1
    while i >= 0 and len(exact[i + 1]) * len(ranges[i]) <= _EXACT_SET_WORK:
        steps = set()
        for c in ranges[i]:
            step = [c * x for x in generators[i].entries]
            if all(map(operator.le, step, t)):
                steps.add(sum(map(operator.lshift, step, shifts)))
        exact[i] = {
            s for base in exact[i + 1] for step in steps if not (s := base + step) & guard
        }
        i -= 1
    return exact, pack


def _nonneg_bounds(target, generators, ranges):
    """(start, step, candidates, completes) for the residual search over
    the nonnegative integers with nonnegative scalars: the state is the
    residual target, from the target itself.

    Every term is >= 0, so no coefficient may take the residual below 0,
    and generators i..k-1 cover at most reach[i] in each coordinate; at
    the levels that ``_exact_residual_sets`` tabulates, a residual
    completes exactly when its packed form is in the table.
    """
    reach = [(0,) * len(target.entries)]
    for g, r in zip(reversed(generators), reversed(ranges)):
        top = max(r, default=0)
        reach.append(tuple(m + top * x for m, x in zip(reach[-1], g.entries)))
    reach.reverse()
    exact, pack = _exact_residual_sets(target, generators, ranges)

    def step(residual, i, c):
        return tuple(r - c * x for r, x in zip(residual, generators[i].entries))

    def candidates(i, residual):
        cap = min(
            (r // x for r, x in zip(residual, generators[i].entries) if x), default=None
        )
        return ranges[i] if cap is None else [c for c in ranges[i] if c <= cap]

    def completes(i, residual):
        if i in exact:
            return pack(residual) in exact[i]
        return all(r <= m for r, m in zip(residual, reach[i]))

    return target.entries, step, candidates, completes


_EXHAUSTED = object()


def _solutions(sf, target, generators, ranges):
    """The coefficient tuples of itertools.product(*ranges) that combine
    to the target, in that order, skipping every prefix that cannot be
    completed.  Each one, searched or replayed, is re-verified with
    ``combine`` before it is yielded; with no generators, () is yielded
    exactly when the target is zero (``combine`` cannot size the empty
    combination).

    ``solved`` maps each (level, state) pair whose subtree has been
    searched to the (coefficient, next state) edges that lead to a
    solution, in order; a dead state maps to no edge.  A prefix that
    reaches a solved pair replays its edges (``_replay``) and searches
    nothing under it.
    """
    t = target.entries
    k = len(generators)
    if isinstance(sf, ChainLattice):
        bounds = _chain_bounds(sf, target, generators, ranges)
    else:
        bounds = _nonneg_bounds(target, generators, ranges)
    start, step, candidates, completes = bounds
    if not completes(0, start):
        return
    if k == 0:
        if target.is_zero():
            yield ()
        return
    solved = {}
    prefix, states, edges = [], [start], [[]]
    choices = [iter(candidates(0, start))]
    while choices:
        i = len(choices) - 1
        c = next(choices[i], _EXHAUSTED)
        if c is _EXHAUSTED:
            choices.pop()
            state, found = states.pop(), edges.pop()
            solved[i, state] = found
            if prefix:
                c = prefix.pop()
                if found:
                    edges[-1].append((c, state))
            continue
        state = step(states[i], i, c)
        if i + 1 == k:
            if completes(k, state):
                coeffs = (*prefix, c)
                if combine(sf, coeffs, generators) == t:
                    edges[i].append((c, state))
                    yield coeffs
            continue
        found = solved.get((i + 1, state))
        if found is None:
            if completes(i + 1, state):
                prefix.append(c)
                states.append(state)
                edges.append([])
                choices.append(iter(candidates(i + 1, state)))
        elif found:
            edges[i].append((c, state))
            head = (*prefix, c)
            for tail in _replay(solved, i + 1, found, k):
                coeffs = head + tail
                if combine(sf, coeffs, generators) == t:
                    yield coeffs


def _replay(solved, level, found, k):
    """The coefficient tails, in order, along the recorded edges ``found``
    of the solved pair at ``level`` and the solved pairs below it; every
    path ends at a solution, so the cost is linear in the tails."""
    tail, stack = [], [iter(found)]
    while stack:
        edge = next(stack[-1], None)
        if edge is None:
            stack.pop()
            if tail:
                tail.pop()
            continue
        c, state = edge
        below = level + len(stack)
        if below == k:
            yield (*tail, c)
        else:
            tail.append(c)
            stack.append(iter(solved[below, state]))


def span_membership(target: SemivectorTuple, generators, scalars=None) -> SpanResult:
    """The lexicographically first coefficient tuple in the bounded box
    that combines to the target, if any.

    Over the nonnegative integers a coefficient beyond floor(t_j / g_ij)
    overshoots coordinate j (all terms are nonnegative), so the box
    contains every solution; over a chain lattice the box is the scalar
    carrier (or the given scalars) for every generator.
    """
    sf, _ = _check_family([target] + list(generators))
    ranges = _coefficient_ranges(target, generators, scalars)
    coeffs = next(_solutions(sf, target, generators, ranges), None)
    return SpanResult(
        member=coeffs is not None,
        coefficients=coeffs,
        searched=tuple(len(r) for r in ranges),
    )


@dataclass(frozen=True)
class DependenceReport(Record):
    independent: bool
    witness_index: int | None
    witness_coefficients: tuple | None


def independence_check(vectors, scalars=None) -> DependenceReport:
    """Independent iff no vector lies in the span of the others."""
    sf, _ = _check_family(vectors)
    for j, v in enumerate(vectors):
        others = [w for i, w in enumerate(vectors) if i != j]
        if v.is_zero():
            return DependenceReport(
                independent=False,
                witness_index=j,
                witness_coefficients=(sf.zero,) * len(others),
            )
        kept = [(i, w) for i, w in enumerate(others) if not w.is_zero()]
        result = span_membership(v, [w for _, w in kept], scalars)
        if result.member:
            coeffs = [sf.zero] * len(others)
            for (pos, _), c in zip(kept, result.coefficients):
                coeffs[pos] = c
            witness = tuple(coeffs)
            assert combine(sf, witness, others) == v.entries
            return DependenceReport(
                independent=False, witness_index=j, witness_coefficients=witness
            )
    return DependenceReport(
        independent=True, witness_index=None, witness_coefficients=None
    )


@dataclass(frozen=True)
class SpansReport(Record):
    spans: bool
    missing: tuple | None


def spans_space(generators, space, scalars=None) -> SpansReport:
    """Do the generators span the named space?

    ``space`` may be an int d (the full d-tuple space over the
    nonnegative integers, decided by testing the unit vectors, which is
    equivalent: units generate everything and a unit is only reachable
    if it is reachable directly), the carrier of the generators' chain
    lattice (pass "carrier"), or an explicit list of tuples.
    """
    sf, length = _check_family(generators)
    if isinstance(space, int):
        if not isinstance(sf, NonNegIntegers):
            raise ValueError("dimension form of the space needs nonneg tuples")
        if space != length:
            raise ValueError("dimension does not match the tuple length")
        targets = [
            SemivectorTuple(sf, tuple(1 if i == j else 0 for i in range(space)))
            for j in range(space)
        ]
    elif space == "carrier":
        if not isinstance(sf, ChainLattice):
            raise ValueError("carrier form of the space needs a chain lattice")
        if length != 1:
            raise ValueError("carrier spanning uses 1-tuples")
        targets = [SemivectorTuple(sf, (x,)) for x in sf.carrier()]
    else:
        targets = [
            t if isinstance(t, SemivectorTuple) else SemivectorTuple(sf, tuple(t))
            for t in space
        ]
    usable = [g for g in generators if not g.is_zero()]
    for t in targets:
        if not span_membership(t, usable, scalars).member:
            return SpansReport(spans=False, missing=t.entries)
    return SpansReport(spans=True, missing=None)


def enumerate_representations(target: SemivectorTuple, basis, scalars=None) -> list[tuple]:
    """Every coefficient tuple that combines to the target, in
    lexicographic order over the scalar domains."""
    sf, _ = _check_family([target] + list(basis))
    ranges = _coefficient_ranges(target, basis, scalars)
    return list(_solutions(sf, target, basis, ranges))


@dataclass(frozen=True)
class LatticeCheck(Record):
    ok: bool
    axiom: str | None = None
    witness: tuple | None = None


def lattice_semivector_check(join, meet) -> LatticeCheck:
    """Verify that a finite lattice is a semivector space over the
    two-element Boolean algebra acting by meet (scalars = bottom, top).

    The join/meet tables must be a lattice (commutative, associative,
    idempotent, absorbing); the vector-space-style axioms for the scalars
    {0, 1} then follow.
    """
    m = len(join)
    if m == 0 or len(meet) != m or any(len(r) != m for r in join) or any(
        len(r) != m for r in meet
    ):
        raise ValueError("join/meet tables must be square and equal-sized")
    for table in (join, meet):
        for row in table:
            for x in row:
                if not 0 <= x < m:
                    raise ValueError(f"table entry {x} out of range")

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
    for a in elems:
        for b in elems:
            if join[a][meet[a][b]] != a:
                return LatticeCheck(False, "absorption_join", (a, b))
            if meet[a][join[a][b]] != a:
                return LatticeCheck(False, "absorption_meet", (a, b))
    # The tables now form a finite lattice, which is bounded: bottom is the
    # meet and top the join of all elements.  So every semivector axiom for
    # the scalars {bottom, top} acting by meet is a lattice law: bottom is
    # the additive zero, meet(bottom, a) = bottom, meet(top, a) = a, scalar
    # products are meets, meet(s, a) is in range by the check above, and
    # each distributive law, with s and t in {bottom, top}, reduces to
    # idempotence or to the laws just listed.
    return LatticeCheck(True)


def chain_lattice_check(m: int) -> LatticeCheck:
    """lattice_semivector_check(*chain_tables(m)), answered without the
    tables: max and min on 0..m-1 form a distributive lattice for every
    m >= 1, so the check cannot fail."""
    if m < 1:
        raise ValueError("join/meet tables must be square and equal-sized")
    return LatticeCheck(True)


def chain_tables(m: int):
    """Join/meet tables of the chain lattice C_m, for the checker."""
    join = [[max(a, b) for b in range(m)] for a in range(m)]
    meet = [[min(a, b) for b in range(m)] for a in range(m)]
    return join, meet

