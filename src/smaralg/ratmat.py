"""Exact rational linear algebra on plain tuples of Fractions.

Shared by the representation and economic-model modules.  Matrices are
tuples of row tuples; everything returns canonical forms so results are
byte-stable across runs.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]
Vector = tuple[Fraction, ...]


def mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def vec(xs) -> Vector:
    return tuple(Fraction(x) for x in xs)


def identity(dim: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(
        tuple(one if i == j else zero for j in range(dim)) for i in range(dim)
    )


def zeros(rows: int, cols: int) -> Matrix:
    zero = Fraction(0)
    return tuple(tuple(zero for _ in range(cols)) for _ in range(rows))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def scale(c, m: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_vec(a: Matrix, v) -> Vector:
    v = vec(v)
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def rref(m: Matrix):
    """Reduced row echelon form; returns (rref rows as lists, pivot cols)."""
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


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def nullspace(m: Matrix) -> list[Vector]:
    """Canonical basis: each free column set to 1 in ascending order."""
    reduced, pivots = rref(m)
    cols = len(m[0]) if m else 0
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(v))
    return basis


def inverse(m: Matrix):
    """Exact inverse or None when singular."""
    dim = len(m)
    aug = mat([list(row) + list(irow) for row, irow in zip(m, identity(dim))])
    reduced, pivots = rref(aug)
    if pivots[:dim] != list(range(dim)):
        return None
    return tuple(tuple(row[dim:]) for row in reduced)


def det(m: Matrix) -> Fraction:
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


def solve(a: Matrix, b) -> Vector | None:
    """One particular solution of A x = b, or None when inconsistent."""
    b = vec(b)
    cols = len(a[0]) if a else 0
    aug = mat([list(row) + [bi] for row, bi in zip(a, b)])
    reduced, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][cols]
    return tuple(x)


def solve_in_span(basis: list[Vector], target) -> Vector | None:
    """Coordinates of target in span(basis), or None."""
    if not basis:
        return () if all(x == 0 for x in vec(target)) else None
    columns = mat([[b[i] for b in basis] for i in range(len(basis[0]))])
    return solve(columns, target)


def min_poly(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, ascending coefficients."""
    dim = len(m)
    flats = []
    power = identity(dim)
    while True:
        flat = tuple(x for row in power for x in row)
        coords = solve_in_span(flats, flat) if flats else None
        if flats and coords is not None:
            return [-c for c in coords] + [Fraction(1)]
        flats.append(flat)
        power = mat_mul(power, m)
        if len(flats) > dim * dim + 1:
            raise AssertionError("minimal polynomial search failed to terminate")


def frac_to_json(x: Fraction):
    """Integers stay integers; everything else becomes a "p/q" string."""
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def frac_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        raise ValueError("floats are not accepted; use 'p/q' strings")
    raise ValueError(f"cannot read a rational from {x!r}")


def matrix_to_json(m: Matrix) -> list[list]:
    return [[frac_to_json(x) for x in row] for row in m]


def matrix_from_json(rows) -> Matrix:
    return tuple(tuple(frac_from_json(x) for x in row) for row in rows)
