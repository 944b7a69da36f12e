"""Factorization of monic integer polynomials over Z.

Integer roots come from the rational root theorem while the constant
term is small enough to list its divisors: a Horner test of each, then
exact division.  A root-free rest of degree 2 or 3 is irreducible.
Beyond that, Zassenhaus's algorithm (Cohen, A Course in Computational
Algebraic Number Theory, Alg. 3.5.7; von zur Gathen & Gerhard, Modern
Computer Algebra, Ch. 15): the squarefree decomposition over Q unless f
is squarefree mod a small prime, then each part factored mod the
smallest prime that keeps it squarefree (gfmat.factor_mod), Hensel
lifted past the Landau-Mignotte bound and recombined by exact division.
The arithmetic is gfmat's kernel over ratmat.Q (a monic integer divisor
keeps integers), ratmat.prime_field(p) and ratmat.residue_ring(p^k).
"""

from __future__ import annotations

import functools
import itertools
import math

from . import gfmat, ratmat
from .ringcore import _is_prime

# integer roots are peeled by trial division of the constant term only
# below this bound (at most 2^12 divisions); past it Zassenhaus finds
# the linear factors too
_PEEL_BOUND = 1 << 24


def poly_eval(coeffs, x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divisors_signed(n: int) -> list[int]:
    """The divisors of n, each followed by its negative, ascending."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return [s * d for d in small + [n // d for d in small[::-1] if d * d != n] for s in (1, -1)]


def factor_monic(f) -> list[list[int]]:
    """Monic irreducible integer factors of a monic integer polynomial,
    with multiplicity, sorted by (degree, coefficients)."""
    f = list(f)
    assert f[-1] == 1, "input must be monic"
    factors: list[list[int]] = []

    # peel integer roots (monic => all rational roots are integers)
    while len(f) > 2 and abs(f[0]) < _PEEL_BOUND:
        candidates = _divisors_signed(f[0]) if f[0] else [0]
        r = next((r for r in candidates if poly_eval(f, r) == 0), None)
        if r is None:
            break
        f = gfmat.poly_divmod(f, [-r, 1], ratmat.Q)[0]
        factors.append([-r, 1])

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
    return filter(_is_prime, itertools.count(2))


def _squarefree_parts(f) -> list[tuple[list[int], int]]:
    """(part, multiplicity) pairs with f = prod part^multiplicity, the
    parts monic, squarefree and pairwise coprime.  When p does not divide
    deg f, f' keeps its degree mod p, so gcd(f, f') = 1 mod p makes the
    discriminant nonzero mod p and f squarefree; otherwise the squarefree
    decomposition over Q, whose monic parts divide f and so have integer
    coefficients by Gauss's lemma."""
    if _separable_mod(f, next(p for p in _primes() if (len(f) - 1) % p)):
        return [(f, 1)]
    return [([int(c) for c in part], mult) for part, mult in gfmat.squarefree(f, ratmat.Q)]


def _separable_mod(f, p: int) -> bool:
    """gcd(f, f') = 1 over Z_p."""
    field = ratmat.prime_field(p)
    return len(gfmat.poly_gcd(f, gfmat.derivative(f, field), field)) == 1


def _factor_squarefree(f, root_free: bool) -> list[list[int]]:
    """Irreducible factors of a monic squarefree f, which has no integer
    roots when root_free."""
    if len(f) <= (4 if root_free else 2):
        return [f]
    p = next(p for p in _primes() if _separable_mod(f, p))
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
    field = ratmat.prime_field(p)
    g, h = _product(factors[:half], field), _product(factors[half:], field)
    _, s, t = gfmat.poly_xgcd(g, h, field)
    m = p
    while m < modulus:
        m *= m
        g, h, s, t = _hensel_step(f, g, h, s, t, ratmat.residue_ring(m))
    return _hensel_lift(g, factors[:half], p, modulus) + _hensel_lift(
        h, factors[half:], p, modulus
    )


def _product(polys, ring: ratmat.Field) -> list[int]:
    return functools.reduce(functools.partial(gfmat.poly_mul, field=ring), polys, [1])


def _hensel_step(f, g, h, s, t, ring: ratmat.Field):
    """From f = g h and s g + t h = 1 modulo sqrt(m), with g and h monic,
    to the same identities modulo m, ring being Z_m (von zur Gathen &
    Gerhard, Alg. 15.10)."""
    add, sub, mul, divmod_ = (
        functools.partial(op, field=ring)
        for op in (gfmat.poly_add, gfmat.poly_sub, gfmat.poly_mul, gfmat.poly_divmod)
    )
    e = sub(f, mul(g, h))
    quot, rem = divmod_(mul(s, e), h)
    g = add(g, add(mul(t, e), mul(quot, g)))
    h = add(h, rem)
    b = sub(add(mul(s, g), mul(t, h)), [1])
    quot, rem = divmod_(mul(s, b), h)
    s = sub(s, rem)
    t = sub(t, add(mul(t, b), mul(quot, g)))
    return g, h, s, t


def _recombine(f, lifted, modulus: int) -> list[list[int]]:
    """The irreducible factors of f over Z from its lifted factors mod
    modulus: subsets in increasing size, each product taken in symmetric
    residues and kept when it divides f exactly.  A factor found removes
    its subset, so what is left at the end is irreducible."""
    half = modulus // 2
    ring = ratmat.residue_ring(modulus)
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
            g = _product([lifted[i] for i in subset], ring)
            g = [c - modulus if c > half else c for c in g]
            quot, rem = gfmat.poly_divmod(f, g, ratmat.Q)
            if not rem:
                found.append(g)
                f = quot
                lifted = [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]
