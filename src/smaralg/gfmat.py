"""Matrix routines over prime fields Z_q, and the one polynomial kernel.

Elimination (rref, nullspace, inverse) is ratmat's field-generic kernel,
run over ratmat.prime_field(q).  Polynomials are ascending coefficient
lists, reduced and trimmed; the zero polynomial is [].  Sum, difference,
product, division, monic gcd, extended gcd, derivative and squarefree
decomposition are written once, over a ratmat.Field: Q, prime_field(q),
or residue_ring(m), where division by a polynomial with a unit leading
coefficient lets intpoly lift factors mod p^k.  factor_mod runs
Berlekamp's algorithm on the kernel.  charpoly_mod, evaluation mod q and
polylab's mod-n arithmetic (loaded without this module) stay specialized.
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
    """Multiplicity of the root r of a reduced polynomial over Z_q:
    repeated division by (t - r)."""
    field = ratmat.prime_field(q)
    mult = 0
    while len(coeffs) > 1:
        coeffs, rem = poly_divmod(coeffs, [-r % q, 1], field)
        if rem:
            break
        mult += 1
    return mult


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def poly_add(a, b, field: ratmat.Field) -> list:
    if len(a) < len(b):
        a, b = b, a
    return _trim(field.reduce([x + y for x, y in zip(a, b)] + list(a[len(b):])))


def poly_sub(a, b, field: ratmat.Field) -> list:
    return poly_add(a, [-y for y in b], field)


def poly_mul(a, b, field: ratmat.Field) -> list:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim(field.reduce(out))


def _monic(a, field: ratmat.Field) -> list:
    """a divided by its leading coefficient ([] for a = [])."""
    if not a:
        return []
    inv = field.inverse(a[-1])
    return field.reduce([x * inv for x in a])


def poly_divmod(a, b, field: ratmat.Field) -> tuple[list, list]:
    """(quotient, remainder) of reduced a by reduced b over field, b's
    leading coefficient a unit.  Only the top coefficient is reduced at
    each step, the remainder once at the end; over Q a monic b keeps
    integer coefficients integers."""
    lead = b[-1]
    if lead != field.one:
        b = _monic(b, field)
    p = field.characteristic
    rem = _trim(list(a))
    db = len(b) - 1
    quot = []
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p if p else rem[i]
        quot.append(c)
        if c:
            for j, y in enumerate(b, i - db):
                rem[j] -= c * y
    quot.reverse()
    if lead != field.one:
        inv = field.inverse(lead)
        quot = field.reduce([x * inv for x in quot])
    return quot, _trim(field.reduce(rem[:db]))


def poly_gcd(a, b, field: ratmat.Field) -> list:
    """Monic gcd over field ([] when a and b are both zero)."""
    a, b = _trim(field.reduce(list(a))), _trim(field.reduce(list(b)))
    while b:
        a, b = b, poly_divmod(a, b, field)[1]
    return _monic(a, field)


def poly_xgcd(a, b, field: ratmat.Field) -> tuple[list, list, list]:
    """(g, s, t) over field with s a + t b = g the monic gcd of a and b, not
    both zero; for a and b of positive degree, deg s < deg b and deg t <
    deg a."""
    r0, r1 = _trim(field.reduce(list(a))), _trim(field.reduce(list(b)))
    s0, s1, t0, t1 = [field.one], [], [], [field.one]
    while r1:
        quot, rem = poly_divmod(r0, r1, field)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quot, s1, field), field)
        t0, t1 = t1, poly_sub(t0, poly_mul(quot, t1, field), field)
    inv = field.inverse(r0[-1])
    return tuple(field.reduce([x * inv for x in p]) for p in (r0, s0, t0))


def derivative(f, field: ratmat.Field) -> list:
    return _trim(field.reduce([i * c for i, c in enumerate(f)][1:]))


def squarefree(f, field: ratmat.Field) -> list[tuple[list, int]]:
    """(part, multiplicity) pairs with f = prod part^multiplicity for a
    monic f over Q or Z_q, each part monic, squarefree, nonconstant and
    coprime to the others (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 3.4.2).  Step i peels the factors of multiplicity
    exactly i off w, the product of those of multiplicity >= i that the
    derivative sees.  In characteristic p that misses the factors whose
    multiplicity p divides; c is left with them as a polynomial in x^p,
    and their pairs follow the others."""
    c = poly_gcd(f, derivative(f, field), field)
    w = poly_divmod(f, c, field)[0]
    out = []
    mult = 1
    while len(w) > 1:
        y = poly_gcd(w, c, field)
        z = poly_divmod(w, y, field)[0]
        if len(z) > 1:
            out.append((z, mult))
        mult += 1
        w = y
        c = poly_divmod(c, y, field)[0]
    if len(c) > 1:
        # c(x) = r(x^p) = r(x)^p, since a^p = a in Z_p
        p = field.characteristic
        out += [(g, m * p) for g, m in squarefree(c[::p], field)]
    return out


def factor_mod(coeffs, q: int) -> list[list[int]]:
    """Monic irreducible factors over Z_q, q prime, of a polynomial whose
    leading coefficient is nonzero mod q, with multiplicity, sorted by
    (degree, coefficients); the leading coefficient itself is dropped.

    The squarefree decomposition first, then Berlekamp's algorithm on
    each part (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 3.4.2 and 3.4.10; von zur Gathen & Gerhard, Modern Computer
    Algebra, Ch. 14).  Deterministic for every q: the splitting tries
    every residue, not random ones.
    """
    assert coeffs[-1] % q, "the leading coefficient must be a unit mod q"
    field = ratmat.prime_field(q)
    out = []
    for part, mult in squarefree(_monic(field.reduce(list(coeffs)), field), field):
        out += _berlekamp(part, field) * mult
    return sorted(out, key=lambda g: (len(g), g))


def _berlekamp(f, field: ratmat.Field) -> list[list[int]]:
    """The irreducible factors of a monic squarefree f over Z_q.  The g
    with g^q = g mod f form the kernel of Q - I, where row i of Q is
    x^(iq) mod f; its dimension is the number of factors, and the gcds
    of f with g - s over the residues s separate every pair of factors
    for some basis vector g."""
    q = field.characteristic
    n = len(f) - 1
    rows = []
    power = [1] + [0] * (n - 1)  # x^k mod f for k = 0, 1, ..., (n-1)q
    for k in range((n - 1) * q + 1):
        if k % q == 0:
            rows.append(power)
        lead = power[-1]
        power = [-lead * f[0] % q] + [(x - lead * y) % q for x, y in zip(power, f[1:-1])]
    transposed = [[row[j] - (i == j) for i, row in enumerate(rows)] for j in range(n)]
    kernel = ratmat.nullspace(transposed, field)
    factors = [f]
    for g in kernel:
        if len(factors) == len(kernel):
            break
        factors = [
            part
            for h in factors
            for part in (
                poly_gcd(h, poly_sub(g, [s], field), field) for s in range(q)
            )
            if len(part) > 1
        ]
    return factors
