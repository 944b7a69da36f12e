"""Matrix and polynomial routines over prime fields Z_q.

Matrices are lists of row lists of ints, polynomials ascending
coefficient lists.  Elimination (rref, nullspace, inverse) is the
field-generic kernel in ratmat, run over ratmat.prime_field(q).
"""

from __future__ import annotations


def charpoly_mod(a, q: int) -> list[int]:
    """Monic characteristic polynomial det(tI - A) over Z_q, ascending
    coefficients, in O(d^3): a similarity transform to upper Hessenberg
    form, then the recurrence on its leading principal minors (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    h = [[x % q for x in row] for row in a]
    dim = len(h)
    for m in range(1, dim - 1):
        pivot = next((i for i in range(m, dim) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], -1, q)
        for i in range(m + 1, dim):
            u = h[i][m - 1] * inv % q
            if u:
                # row_i -= u*row_m, then column_m += u*column_i (the inverse)
                h[i] = [(x - u * y) % q for x, y in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % q
    # minors[m] = det(tI - H[:m, :m]), by expansion along the last column
    minors = [[1]]
    for m in range(1, dim + 1):
        prev = minors[m - 1]
        poly = [0] + prev
        for j, c in enumerate(prev):
            poly[j] = (poly[j] - h[m - 1][m - 1] * c) % q
        sub = 1  # product of the subdiagonal entries h[m-1][m-2] ... h[m-i][m-i-1]
        for i in range(1, m):
            sub = sub * h[m - i][m - i - 1] % q
            coef = sub * h[m - i - 1][m - 1] % q
            for j, c in enumerate(minors[m - i - 1]):
                poly[j] = (poly[j] - coef * c) % q
        minors.append(poly)
    poly = minors[dim]
    assert poly[-1] == 1, "characteristic polynomial must be monic"
    return poly


def poly_eval_mod(coeffs, x: int, q: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % q
    return acc


def _synth_div(coeffs, r: int, q: int):
    """Divide by (t - r); returns (quotient coeffs, remainder)."""
    d = len(coeffs) - 1
    b = [0] * d
    b[d - 1] = coeffs[d] % q
    for i in range(d - 1, 0, -1):
        b[i - 1] = (coeffs[i] + r * b[i]) % q
    rem = (coeffs[0] + r * b[0]) % q
    return b, rem


def root_multiplicity(coeffs, r: int, q: int) -> int:
    """Multiplicity of the root r: repeated synthetic division by (t - r)."""
    mult = 0
    current = list(coeffs)
    while len(current) > 1:
        quotient, rem = _synth_div(current, r, q)
        if rem != 0:
            break
        current = quotient
        mult += 1
    return mult
