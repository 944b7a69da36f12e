"""Matrix and polynomial routines over prime fields Z_q.

Matrices are lists of row lists of ints, polynomials ascending
coefficient lists.  Elimination (rref, nullspace, inverse) is the
field-generic kernel in ratmat, run over ratmat.prime_field(q).
factor_mod factors a polynomial over Z_q by Berlekamp's algorithm, on
the polynomial arithmetic below; the sum, difference, product and
division by a monic polynomial also hold mod any q > 1, which is how
intpoly lifts factors mod p^k.
"""

from __future__ import annotations

from . import ratmat


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


def root_multiplicity(coeffs, r: int, q: int) -> int:
    """Multiplicity of the root r: repeated division by (t - r)."""
    mult = 0
    current = coeffs
    while len(current) > 1:
        current, rem = poly_divmod_mod(current, [-r, 1], q)
        if rem:
            break
        mult += 1
    return mult


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add_mod(a, b, q: int) -> list[int]:
    """a + b over Z_q.  Polynomials mod q are reduced to residues 0..q-1
    with trailing zeros trimmed; the zero polynomial is []."""
    if len(a) < len(b):
        a, b = b, a
    return _trim([(x + y) % q for x, y in zip(a, b)] + [x % q for x in a[len(b):]])


def poly_sub_mod(a, b, q: int) -> list[int]:
    return poly_add_mod(a, [-y for y in b], q)


def poly_mul_mod(a, b, q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim([c % q for c in out])


def poly_divmod_mod(a, b, q: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by b over Z_q.  b's leading coefficient
    must be a unit mod q, so q need not be prime when b is monic."""
    rem = _trim([x % q for x in a])
    db = len(b) - 1
    inv = pow(b[-1], -1, q)
    quot = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] * inv % q
        if c:
            quot[i - db] = c
            for j, y in enumerate(b, i - db):
                rem[j] = (rem[j] - c * y) % q
    return _trim(quot), _trim(rem[:db])


def _monic_mod(a, q: int) -> list[int]:
    inv = pow(a[-1], -1, q)
    return [x * inv % q for x in a]


def poly_gcd_mod(a, b, q: int) -> list[int]:
    """Monic gcd over Z_q, q prime ([] when a and b are both zero)."""
    a, b = _trim([x % q for x in a]), _trim([x % q for x in b])
    while b:
        a, b = b, poly_divmod_mod(a, b, q)[1]
    return _monic_mod(a, q) if a else []


def poly_xgcd_mod(a, b, q: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) over Z_q, q prime, with s a + t b = g the monic gcd; for
    coprime a and b of positive degree, deg s < deg b and deg t < deg a."""
    r0, r1 = _trim([x % q for x in a]), _trim([x % q for x in b])
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        quot, rem = poly_divmod_mod(r0, r1, q)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub_mod(s0, poly_mul_mod(quot, s1, q), q)
        t0, t1 = t1, poly_sub_mod(t0, poly_mul_mod(quot, t1, q), q)
    inv = pow(r0[-1], -1, q)
    return tuple([x * inv % q for x in p] for p in (r0, s0, t0))


def factor_mod(coeffs, q: int) -> list[list[int]]:
    """Monic irreducible factors over Z_q, q prime, of a polynomial whose
    leading coefficient is nonzero mod q, with multiplicity, sorted by
    (degree, coefficients); the leading coefficient itself is dropped.

    A squarefree decomposition first, then Berlekamp's algorithm on each
    part (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 3.4.2 and 3.4.10; von zur Gathen & Gerhard, Modern Computer
    Algebra, Ch. 14).  Deterministic for every q: the splitting tries
    every residue, not random ones.
    """
    assert coeffs[-1] % q, "the leading coefficient must be a unit mod q"
    out = []
    for part, mult in _squarefree_mod(_monic_mod(coeffs, q), q):
        out += _berlekamp(part, q) * mult
    return sorted(out, key=lambda g: (len(g), g))


def _squarefree_mod(f, q: int) -> list[tuple[list[int], int]]:
    """(part, multiplicity) pairs with f = prod part^multiplicity, each part
    monic, squarefree, nonconstant and coprime to the others; f monic."""
    derivative = _trim([i * c % q for i, c in enumerate(f)][1:])
    c = poly_gcd_mod(f, derivative, q)
    w = poly_divmod_mod(f, c, q)[0]
    out = []
    mult = 1
    # w is the product of the factors of multiplicity >= mult not divisible by q
    while len(w) > 1:
        y = poly_gcd_mod(w, c, q)
        z = poly_divmod_mod(w, y, q)[0]
        if len(z) > 1:
            out.append((z, mult))
        mult += 1
        w = y
        c = poly_divmod_mod(c, y, q)[0]
    if len(c) > 1:
        # c is left with the factors of multiplicity divisible by q, so
        # c(x) = r(x^q) = r(x)^q, since a^q = a in Z_q
        out += [(g, m * q) for g, m in _squarefree_mod(c[::q], q)]
    return out


def _berlekamp(f, q: int) -> list[list[int]]:
    """The irreducible factors of a monic squarefree f over Z_q.  The g
    with g^q = g mod f form the kernel of Q - I, where row i of Q is
    x^(iq) mod f; its dimension is the number of factors, and the gcds
    of f with g - s over the residues s separate every pair of factors
    for some basis vector g."""
    n = len(f) - 1
    rows = []
    power = [1] + [0] * (n - 1)  # x^k mod f for k = 0, 1, ..., (n-1)q
    for k in range((n - 1) * q + 1):
        if k % q == 0:
            rows.append(power)
        lead = power[-1]
        power = [-lead * f[0] % q] + [(x - lead * y) % q for x, y in zip(power, f[1:-1])]
    transposed = [[row[j] - (i == j) for i, row in enumerate(rows)] for j in range(n)]
    kernel = ratmat.nullspace(transposed, ratmat.prime_field(q))
    factors = [f]
    for g in kernel:
        if len(factors) == len(kernel):
            break
        factors = [
            part
            for h in factors
            for part in (
                poly_gcd_mod(h, poly_sub_mod(g, [s], q), q) for s in range(q)
            )
            if len(part) > 1
        ]
    return factors
