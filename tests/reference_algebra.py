"""Independent reference implementations that tests compare against.

Brute-force or single-purpose versions of routines whose fast or
field-generic forms live in ``smaralg``: the divisor-by-divisor subfield
search, the separate Z_q and rational Gauss-Jordan loops that the one
elimination kernel in ``smaralg.ratmat`` replaced, and the intertwiner
space solved from its defining linear constraints.
"""

from __future__ import annotations

from fractions import Fraction

from smaralg import ratmat
from smaralg.ringcore import SubfieldRejection, certify_subfield


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
