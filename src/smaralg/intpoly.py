"""Factorization of monic integer polynomials over Z.

Linear factors come from the rational root theorem while the constant
term is small enough to list its divisors; a root-free rest of degree 2
or 3 is then irreducible.  Beyond that, Zassenhaus's algorithm
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 3.5.7;
von zur Gathen & Gerhard, Modern Computer Algebra, Ch. 15): Yun's
squarefree decomposition over Q, then each squarefree part factored mod
the smallest prime that keeps it squarefree (gfmat.factor_mod), Hensel
lifted past the Landau-Mignotte bound and recombined by exact division.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import gfmat

# integer roots are peeled by trial division of the constant term only
# below this bound (at most 2^12 divisions); past it Zassenhaus finds
# the linear factors too
_PEEL_BOUND = 1 << 24


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divmod_monic(f, g):
    """Divide f by monic g over the integers; returns (quotient, remainder)."""
    assert g[-1] == 1, "divisor must be monic"
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(f) - dg, 1)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        quot[i - dg] = c
        for j, gj in enumerate(g):
            rem[i - dg + j] -= c * gj
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot, rem


def _divisors_signed(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    out = []
    for d in small + large[::-1]:
        out.extend((d, -d))
    return out


def factor_monic(f) -> list[list[int]]:
    """Monic irreducible integer factors of a monic integer polynomial,
    with multiplicity, sorted by (degree, coefficients)."""
    f = list(f)
    assert f[-1] == 1, "input must be monic"
    factors: list[list[int]] = []

    # peel integer roots (monic => all rational roots are integers)
    changed = True
    while changed and len(f) > 2 and abs(f[0]) < _PEEL_BOUND:
        changed = False
        if f[0] == 0:
            quot, rem = divmod_monic(f, [0, 1])
            assert rem == [0]
            factors.append([0, 1])
            f = quot
            changed = True
            continue
        for r in _divisors_signed(f[0]):
            if poly_eval(f, r) == 0:
                quot, rem = divmod_monic(f, [-r, 1])
                assert rem == [0]
                factors.append([-r, 1])
                f = quot
                changed = True
                break

    # a reducible monic polynomial of degree <= 3 has a linear factor, hence
    # an integer root, and a peeled f has none left (or is linear)
    root_free = abs(f[0]) < _PEEL_BOUND
    if len(f) > (4 if root_free else 2):
        for part, mult in _squarefree_parts(f):
            factors += _factor_squarefree(part, root_free) * mult
    elif len(f) > 1:
        factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))


def _primes():
    return (p for p in itertools.count(2) if all(p % d for d in range(2, math.isqrt(p) + 1)))


def _derivative(f) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:] or [0]


def _squarefree_parts(f) -> list[tuple[list[int], int]]:
    """(part, multiplicity) pairs with f = prod part^multiplicity, the
    parts monic, squarefree and pairwise coprime.  When p does not divide
    deg f, f' keeps its degree mod p, so gcd(f, f') = 1 mod p makes the
    discriminant nonzero mod p and f squarefree; otherwise Yun's
    algorithm over Q."""
    df = _derivative(f)
    p = next(p for p in _primes() if (len(f) - 1) % p)
    if len(gfmat.poly_gcd_mod(f, df, p)) == 1:
        return [(f, 1)]
    a = _gcd_over_q(f, df)
    b, c = divmod_monic(f, a)[0], divmod_monic(df, a)[0]
    parts = []
    mult = 1
    while len(b) > 1:
        d = [x - y for x, y in itertools.zip_longest(c, _derivative(b), fillvalue=0)]
        a = _gcd_over_q(b, d)
        if len(a) > 1:
            parts.append((a, mult))
        b, c = divmod_monic(b, a)[0], divmod_monic(d, a)[0]
        mult += 1
    return parts


def _gcd_over_q(a, b) -> list[int]:
    """Monic gcd over Q of a monic integer a and an integer b; it divides
    a, so by Gauss's lemma its coefficients are integers."""
    a, b = [Fraction(x) for x in a], [Fraction(x) for x in b]
    while any(b):
        while not b[-1]:
            b.pop()
        rem = list(a)
        for i in range(len(rem) - 1, len(b) - 2, -1):
            c = rem[i] / b[-1]
            if c:
                for j, y in enumerate(b, i - len(b) + 1):
                    rem[j] -= c * y
        a, b = b, rem[: len(b) - 1]
    gcd = [x / a[-1] for x in a]
    assert all(x.denominator == 1 for x in gcd), "a monic factor of a monic integer polynomial"
    return [int(x) for x in gcd]


def _factor_squarefree(f, root_free: bool) -> list[list[int]]:
    """Irreducible factors of a monic squarefree f, which has no integer
    roots when root_free."""
    if len(f) <= (4 if root_free else 2):
        return [f]
    df = _derivative(f)
    p = next(p for p in _primes() if len(gfmat.poly_gcd_mod(f, df, p)) == 1)
    modular = gfmat.factor_mod(f, p)
    if len(modular) == 1:
        return [f]
    # a factor of f of degree <= n has coefficients of size at most
    # 2^n ||f||_2 (Landau-Mignotte), so symmetric residues mod a modulus
    # past twice that are its coefficients
    bound = 2 ** len(f) * (math.isqrt(sum(c * c for c in f)) + 1)
    modulus = p
    while modulus <= bound:
        modulus *= modulus
    lifted = _hensel_lift(f, modular, p, modulus)
    return _recombine(f, lifted, modulus)


def _hensel_lift(f, factors, p: int, modulus: int) -> list[list[int]]:
    """Monic factors of f mod modulus, a power p^(2^k), that reduce to the
    given pairwise coprime monic factors of f mod p: split the factors in
    two halves, lift their products quadratically, then each half."""
    if len(factors) == 1:
        return [[c % modulus for c in f]]
    half = len(factors) // 2
    g, h = _product_mod(factors[:half], p), _product_mod(factors[half:], p)
    _, s, t = gfmat.poly_xgcd_mod(g, h, p)
    m = p
    while m < modulus:
        m *= m
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
    return _hensel_lift(g, factors[:half], p, modulus) + _hensel_lift(
        h, factors[half:], p, modulus
    )


def _product_mod(polys, q: int) -> list[int]:
    out = [1]
    for g in polys:
        out = gfmat.poly_mul_mod(out, g, q)
    return out


def _hensel_step(f, g, h, s, t, m: int):
    """From f = g h and s g + t h = 1 modulo sqrt(m), with g and h monic,
    to the same identities modulo m (von zur Gathen & Gerhard,
    Alg. 15.10)."""
    add, sub, mul = gfmat.poly_add_mod, gfmat.poly_sub_mod, gfmat.poly_mul_mod
    e = sub(f, mul(g, h, m), m)
    quot, rem = gfmat.poly_divmod_mod(mul(s, e, m), h, m)
    g = add(g, add(mul(t, e, m), mul(quot, g, m), m), m)
    h = add(h, rem, m)
    b = sub(add(mul(s, g, m), mul(t, h, m), m), [1], m)
    quot, rem = gfmat.poly_divmod_mod(mul(s, b, m), h, m)
    s = sub(s, rem, m)
    t = sub(t, add(mul(t, b, m), mul(quot, g, m), m), m)
    return g, h, s, t


def _recombine(f, lifted, modulus: int) -> list[list[int]]:
    """The irreducible factors of f over Z from its lifted factors mod
    modulus: subsets in increasing size, each product taken in symmetric
    residues and kept when it divides f exactly.  A factor found removes
    its subset, so what is left at the end is irreducible."""
    half = modulus // 2
    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            # the constant term of a factor divides f's, which is nonzero
            const = math.prod(lifted[i][0] for i in subset) % modulus
            if const > half:
                const -= modulus
            if const == 0 or f[0] % const:
                continue
            g = _product_mod([lifted[i] for i in subset], modulus)
            g = [c - modulus if c > half else c for c in g]
            quot, rem = divmod_monic(f, g)
            if rem == [0]:
                found.append(g)
                f = quot
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]
