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
  min{t_j : g_ij > t_j}, and a prefix completes exactly when it,
  combined with every later generator at the largest allowed scalar
  under that bound, gives the target.  That test costs O(k*d), so a
  non-member is decided before any coefficient is tried;
- over the nonnegative integers by reachability of the residual target
  t - (prefix combination), which must stay >= 0 and within what the
  later generators can cover; the residuals the last generators can
  cover are tabulated exactly, each packed into one int with a guard
  bit per coordinate so that a table level is built by int additions
  and one mask test per sum, and a (generator index, residual) state
  whose subtree held no solution is remembered for the rest of the call
  and never entered again.

The semifield operations are builtins (``max``/``min`` over a chain,
``operator.add``/``operator.mul`` over the integers).  Every returned
coefficient tuple is re-verified with ``combine``, which recomputes it
from scratch one coordinate at a time.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

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
    (column of the family) at a time; coefficients beyond the family, or
    vectors beyond the coefficients, take no part."""
    add, mul, zero = semifield.add, semifield.mul, semifield.zero
    return tuple(
        reduce(add, map(mul, coeffs, column), zero)
        for column in zip(*(v.entries for v in vectors))
    )


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
    """(candidates, completes) for the search over a chain lattice, from
    Sanchez's residuation bound.

    candidates(i): the scalars of ranges[i], in order, that are at most
    min{t_j : g_ij > t_j} (the top when no such j); any larger one
    overshoots the target.  suffix[i]: the combination of generators
    i..k-1, each at the largest of its candidates, or None where some
    generator from i on has none.  combine is monotone, so suffix[i] is
    the largest combination those generators can add without
    overshooting, and a prefix combination completes exactly when its
    join with suffix[i] is the target.
    """
    t = target.entries
    allowed = []
    for g, r in zip(generators, ranges):
        bound = min((tj for tj, x in zip(t, g.entries) if x > tj), default=sf.one)
        allowed.append([c for c in r if c <= bound])
    acc = (sf.zero,) * len(t)
    suffix = [None] * len(generators) + [acc]
    for i in range(len(generators) - 1, -1, -1):
        if not allowed[i]:
            break
        top = max(allowed[i])
        acc = tuple(max(a, min(top, x)) for a, x in zip(acc, generators[i].entries))
        suffix[i] = acc

    def candidates(i, acc):
        return allowed[i]

    def completes(i, acc):
        return suffix[i] is not None and tuple(map(max, acc, suffix[i])) == t

    return candidates, completes


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
    """(candidates, completes) for the residual search over the
    nonnegative integers with nonnegative scalars.

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

    def candidates(i, residual):
        cap = min(
            (r // x for r, x in zip(residual, generators[i].entries) if x), default=None
        )
        return ranges[i] if cap is None else [c for c in ranges[i] if c <= cap]

    def completes(i, residual):
        if i in exact:
            return pack(residual) in exact[i]
        return all(r <= m for r, m in zip(residual, reach[i]))

    return candidates, completes


_EXHAUSTED = object()


def _solutions(sf, target, generators, ranges):
    """The coefficient tuples of itertools.product(*ranges) that combine
    to the target, in that order, skipping every prefix that cannot be
    completed.  Each one is re-verified with ``combine`` before it is
    yielded; with no generators, () is yielded exactly when the target is
    zero (``combine`` cannot size the empty combination).  The search
    state is the combination so far (chain lattice) or the residual
    target (nonnegative integers).
    """
    t = target.entries
    k = len(generators)
    if isinstance(sf, ChainLattice):
        start = (sf.zero,) * len(t)
        meets = [{} for _ in generators]  # c -> meet of c with generator i

        def step(acc, i, c):
            meet = meets[i].get(c)
            if meet is None:
                meet = meets[i][c] = tuple(min(c, x) for x in generators[i].entries)
            return tuple(map(max, acc, meet))

        candidates, completes = _chain_bounds(sf, target, generators, ranges)
    else:
        start = t

        def step(residual, i, c):
            return tuple(r - c * x for r, x in zip(residual, generators[i].entries))

        candidates, completes = _nonneg_bounds(target, generators, ranges)

    if not completes(0, start):
        return
    if k == 0:
        if target.is_zero():
            yield ()
        return
    dead = set()  # (level, state) pairs whose subtree held no solution
    prefix, states, fruitful = [], [start], [False]
    choices = [iter(candidates(0, start))]
    while choices:
        i = len(choices) - 1
        c = next(choices[i], _EXHAUSTED)
        if c is _EXHAUSTED:
            choices.pop()
            state = states.pop()
            if fruitful.pop():
                if fruitful:
                    fruitful[-1] = True
            else:
                dead.add((i, state))
            if prefix:
                prefix.pop()
            continue
        state = step(states[i], i, c)
        if (i + 1, state) in dead or not completes(i + 1, state):
            continue
        if i + 1 == k:
            coeffs = (*prefix, c)
            if combine(sf, coeffs, generators) == t:
                fruitful[i] = True
                yield coeffs
        else:
            prefix.append(c)
            states.append(state)
            choices.append(iter(candidates(i + 1, state)))
            fruitful.append(False)


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


def chain_tables(m: int):
    """Join/meet tables of the chain lattice C_m, for the checker."""
    join = [[max(a, b) for b in range(m)] for a in range(m)]
    meet = [[min(a, b) for b in range(m)] for a in range(m)]
    return join, meet

