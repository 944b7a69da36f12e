"""Exact linear algebra: the one Gauss-Jordan kernel, over Q or Z_q.

rref, rank, nullspace, inverse and solve take a Field (Q by default,
prime_field(q) for Z_q); echelon forms use the first nonzero pivot and
nullspace bases set free variables to one in ascending column order.
The rest is rational matrix arithmetic on tuples of row tuples of
Fractions, shared by the representation and economic-model modules.
Products and elimination row updates skip zero entries, so the sparse
and permutation matrices of the representation layer cost little, and
min_poly is one elimination of the flattened powers of its matrix.
Everything returns canonical forms, so results are byte-stable.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, NamedTuple

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
    """Each row of a times b, accumulated from the nonzero entries of the
    row and of b's matching rows only: a product of permutation matrices
    costs d multiplications, not d³."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [Fraction(0)] * cols
        for x, b_row in zip(row, b):
            if x:
                for j, y in enumerate(b_row):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a: Matrix, v) -> Vector:
    return tuple(
        sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a
    )


class Field(NamedTuple):
    """A field as the elimination and polynomial kernels see it: its zero
    and one, the inverse of a nonzero element, the map that brings a row
    back to canonical representatives after arithmetic on it, and the
    characteristic."""

    zero: object
    one: object
    inverse: Callable
    reduce: Callable
    characteristic: int


Q = Field(Fraction(0), Fraction(1), lambda x: 1 / Fraction(x), lambda row: row, 0)


def residue_ring(m: int) -> Field:
    """Z_m on the residues 0..m-1.  A field only for prime m; for any m > 1
    it still serves the polynomial kernel's sums, products and division by
    a polynomial whose leading coefficient is a unit."""
    return Field(0, 1, lambda x: pow(x, -1, m), lambda row: [x % m for x in row], m)


prime_field = functools.cache(residue_ring)  # Z_q for a prime q, built once per q


def rref(m, field: Field = Q):
    """Gauss-Jordan elimination over field: the first nonzero entry of a
    column is its pivot.  Returns (reduced rows as lists, pivot columns)."""
    reduce = field.reduce
    work = [reduce(list(row)) for row in m]
    rows = len(work)
    cols = len(work[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = field.inverse(work[r][c])
        pivot_row = work[r] = reduce([x * inv for x in work[r]])
        for i in range(rows):
            f = work[i][c]
            if i != r and f != 0:
                work[i] = reduce(
                    [x - f * y if y else x for x, y in zip(work[i], pivot_row)]
                )
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return work, pivots


def rank(m, field: Field = Q) -> int:
    return len(rref(m, field)[1])


def nullspace(m, field: Field = Q) -> list[Vector]:
    """Canonical basis: each free column set to one in ascending order."""
    reduced, pivots = rref(m, field)
    return nullspace_from_rref(reduced, pivots, len(m[0]) if m else 0, field)


def nullspace_from_rref(reduced, pivots, cols: int, field: Field = Q) -> list[Vector]:
    """The canonical nullspace basis read off a reduced echelon form."""
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [field.zero] * cols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        basis.append(tuple(field.reduce(v)))
    return basis


def inverse(m, field: Field = Q):
    """Exact inverse or None when singular."""
    dim = len(m)
    ident = [[field.one if i == j else field.zero for j in range(dim)] for i in range(dim)]
    reduced, pivots = rref([list(row) + irow for row, irow in zip(m, ident)], field)
    if pivots[:dim] != list(range(dim)):
        return None
    return tuple(tuple(row[dim:]) for row in reduced)


def solve(a, bs, field: Field = Q) -> list[Vector | None]:
    """One particular solution of A x = b for each right-hand side b in
    bs (free variables zero), or None where b is inconsistent; one
    elimination of [A | B] for all of them.

    Every row past the rank of A has a zero A-part, so b is consistent
    iff those rows vanish in b's column.  A pivot that an inconsistent
    column gains is such a row, and it is zero in every consistent
    column, so each answer is the one a single-column solve gives.
    """
    cols = len(a[0]) if a else 0
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a)]
    reduced, pivots = rref(aug, field)
    a_pivots = [c for c in pivots if c < cols]
    rest = reduced[len(a_pivots):]
    out = []
    for j in range(cols, cols + len(bs)):
        if any(row[j] != 0 for row in rest):
            out.append(None)
            continue
        x = [field.zero] * cols
        for r, c in enumerate(a_pivots):
            x[c] = reduced[r][j]
        out.append(tuple(x))
    return out


def solve_in_span(basis: list[Vector], targets) -> list[Vector | None]:
    """Coordinates of each target in span(basis), or None where a target
    lies outside it."""
    dim = len(targets[0]) if targets else 0
    return solve([[b[i] for b in basis] for i in range(dim)], targets)


def min_poly(m: Matrix) -> list[Fraction]:
    """Monic minimal polynomial, ascending coefficients, from one rref of
    the flattened powers I, M, ..., M^d as columns.  By Cayley-Hamilton
    M^d depends on the lower powers, and once a power does every later
    one does, so the pivots are the first k columns and column k holds
    the coordinates of M^k in I, ..., M^(k-1)."""
    dim = len(m)
    powers = [identity(dim)]
    for _ in range(dim):
        powers.append(mat_mul(powers[-1], m))
    reduced, pivots = rref(transpose([[x for row in p for x in row] for p in powers]))
    k = len(pivots)
    assert pivots == list(range(k)) and k <= dim, "powers must turn dependent for good"
    return [-reduced[i][k] for i in range(k)] + [Fraction(1)]


def frac_from_json(x) -> Fraction:
    if isinstance(x, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, float):
        raise ValueError("floats are not accepted; use 'p/q' strings")
    raise ValueError(f"cannot read a rational from {x!r}")


def matrix_from_json(rows) -> Matrix:
    return tuple(tuple(frac_from_json(x) for x in row) for row in rows)
