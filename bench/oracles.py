"""Independent arithmetic used to check the program's outputs.

Nothing here imports smaralg: every routine is written from the
definitions, by a different method than the program's where one exists
(Bareiss elimination instead of cofactor expansion, Sanchez residuation
and dynamic programming instead of exhaustive coefficient search,
subgroup generation instead of subset enumeration).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

# --- integers and residues --------------------------------------------------


def euler_phi(m: int) -> int:
    return sum(1 for x in range(1, m + 1) if gcd(x, m) == 1)


def bareiss_det(m) -> int:
    """Exact integer determinant by fraction-free elimination."""
    a = [list(row) for row in m]
    size = len(a)
    sign, prev = 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if size else 1


def det_mod(m, q: int) -> int:
    """Determinant over the prime field Z_q by column elimination."""
    a = [[x % q for x in row] for row in m]
    size = len(a)
    det = 1
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % q
        inv = pow(a[c][c], q - 2, q)
        for r in range(c + 1, size):
            f = a[r][c] * inv % q
            if f:
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[c])]
    return det % q


def rank_mod(m, q: int) -> int:
    a = [[x % q for x in row] for row in m]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], q - 2, q)
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c] * inv % q
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def mat_mul_mod(a, b, n: int):
    return [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)] for row in a]


def poly_eval_mod(coeffs, x: int, q: int) -> int:
    """Ascending coefficients, Horner evaluation."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def root_multiplicity_mod(coeffs, r: int, q: int) -> int:
    """Multiplicity of the root r, by repeated division by (t - r)."""
    poly = [c % q for c in coeffs]
    mult = 0
    while len(poly) > 1:
        d = len(poly) - 1
        quotient = [0] * d
        quotient[d - 1] = poly[d]
        for i in range(d - 1, 0, -1):
            quotient[i - 1] = (poly[i] + r * quotient[i]) % q
        if (poly[0] + r * quotient[0]) % q:
            break
        poly = quotient
        mult += 1
    return mult


# --- subfields of Z_n ------------------------------------------------------


def field_identity(n: int, elements) -> int | None:
    """The multiplicative identity of a subset of Z_n if the subset is a
    field under the induced operations, else None; brute force."""
    s = sorted(set(elements))
    ss = set(s)
    if len(s) < 2 or any((a + b) % n not in ss or a * b % n not in ss for a in s for b in s):
        return None
    e = next((x for x in s if x and all(x * a % n == a for a in s)), None)
    if e is None:
        return None
    if any(a and not any(a * b % n == e for b in s) for a in s):
        return None
    return e


def subfields_by_closure(n: int):
    """Every proper subfield of Z_n as (elements, identity, order): the
    additive closure of each residue, kept when brute force finds the
    field axioms."""
    found = {}
    for a in range(1, n):
        closure = sorted({k * a % n for k in range(n)})
        key = tuple(closure)
        if key in found or len(closure) == n:
            continue
        found[key] = field_identity(n, closure)
    return sorted(
        ((k, e, len(k)) for k, e in found.items() if e is not None), key=lambda t: t[2]
    )


# --- exact rationals -------------------------------------------------------


def rat_rank(rows) -> int:
    a = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][c] != 0:
                f = a[r][c] / a[rank][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def rat_mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def rat_mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


# --- finite groups given by tables -----------------------------------------


def generated_subgroup(table, identity, gens) -> frozenset:
    """Closure of the generators under the table product."""
    group = {identity} | set(gens)
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for g in list(group):
            for y in (table[x][g], table[g][x]):
                if y not in group:
                    group.add(y)
                    frontier.append(y)
    return frozenset(group)


def subgroups_of(table, identity, elements) -> set[frozenset]:
    """All subgroups of the group on ``elements``, by joining generators
    one at a time starting from the trivial subgroup."""
    found = {frozenset([identity])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in elements:
            if g not in h:
                k = generated_subgroup(table, identity, set(h) | {g})
                if k not in found:
                    found.add(k)
                    frontier.append(k)
    return found


def wedderburn_dims_abelian(table, identity, elements) -> list[int]:
    """Q-irreducible dimensions of the regular representation of an
    abelian group: phi(|C|) for every cyclic subgroup C."""
    cyclic = {generated_subgroup(table, identity, {g}) for g in elements}
    return sorted(euler_phi(len(c)) for c in cyclic)


# Non-abelian groups used by the workloads: simple components of Q[G].
WEDDERBURN_NONABELIAN = {
    "S3": [1, 1, 2, 2],
    "D4": [1, 1, 1, 1, 2, 2],
    "Q8": [1, 1, 1, 1, 4],
}


def is_abelian(table, elements) -> bool:
    return all(table[x][y] == table[y][x] for x in elements for y in elements)


# --- semivector spaces -----------------------------------------------------


def chain_principal(target, gens, scalars):
    """Sanchez residuation for max-min equations over a chain.

    The greatest coefficient bound is c_i = min{t_j : g_ij > t_j}, or the
    top when no coordinate constrains generator i; rounded down into the
    allowed scalars.  Returns (member, coefficients or None).
    """
    allowed = sorted(scalars)
    coeffs = []
    for g in gens:
        bound = min((t for t, x in zip(target, g) if x > t), default=allowed[-1])
        below = [s for s in allowed if s <= bound]
        if not below:
            return False, None
        coeffs.append(below[-1])
    reached = tuple(
        max([min(c, g[j]) for c, g in zip(coeffs, gens)], default=0)
        for j in range(len(target))
    )
    return reached == tuple(target), tuple(coeffs)


def chain_count(target, gens, scalars) -> int:
    """Number of coefficient tuples over the scalars combining to the
    target, by dynamic programming over the running join."""
    target = tuple(target)
    states = {tuple(0 for _ in target): 1}
    for g in gens:
        nxt: dict = {}
        for acc, ways in states.items():
            for c in scalars:
                new = tuple(max(a, min(c, x)) for a, x in zip(acc, g))
                if all(v <= t for v, t in zip(new, target)):
                    nxt[new] = nxt.get(new, 0) + ways
        states = nxt
    return states.get(target, 0)


def nonneg_count(target, gens, scalars=None) -> int:
    """Number of nonnegative coefficient tuples (or tuples over the given
    scalars) with sum c_i g_i = target, by DP over the residual target."""
    gens = [tuple(g) for g in gens]

    @lru_cache(maxsize=None)
    def count(i: int, residual: tuple) -> int:
        if i == len(gens):
            return int(not any(residual))
        g = gens[i]
        total = 0
        if scalars is None:
            rest = residual
            while all(r >= 0 for r in rest):
                total += count(i + 1, rest)
                if not any(g):
                    break
                rest = tuple(r - x for r, x in zip(rest, g))
        else:
            for c in scalars:
                rest = tuple(r - c * x for r, x in zip(residual, g))
                if all(r >= 0 for r in rest):
                    total += count(i + 1, rest)
        return total

    return count(0, tuple(target))


def combine(kind: str, coeffs, gens, length: int):
    if kind == "chain":
        return tuple(
            max([min(c, g[j]) for c, g in zip(coeffs, gens)], default=0)
            for j in range(length)
        )
    return tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(length))


def in_span(kind: str, target, gens, scalars) -> bool:
    """Membership by the exact routine of the semifield: residuation over
    a chain, residual-target DP over the nonnegative integers."""
    if not gens:
        return not any(target)
    if kind == "chain":
        return chain_principal(target, gens, scalars)[0]
    return nonneg_count(target, gens, scalars) > 0


# --- lattices --------------------------------------------------------------


def is_bounded_lattice(join, meet) -> bool:
    m = range(len(join))
    for op in (join, meet):
        if any(op[a][a] != a for a in m):
            return False
        if any(op[a][b] != op[b][a] for a in m for b in m):
            return False
        if any(op[op[a][b]][c] != op[a][op[b][c]] for a in m for b in m for c in m):
            return False
    if any(join[a][meet[a][b]] != a or meet[a][join[a][b]] != a for a in m for b in m):
        return False
    return any(all(join[b][x] == x for x in m) for b in m) and any(
        all(meet[t][x] == x for x in m) for t in m
    )
