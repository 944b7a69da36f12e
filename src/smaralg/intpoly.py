"""Factorization of monic integer polynomials at desk scale.

Linear factors come from the rational root theorem; higher-degree
factors from Kronecker's divisor-interpolation method, which is complete
for the small degrees (<= 8) used by the representation splitter.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


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


def _interpolate(points):
    """Lagrange interpolation; returns ascending Fraction coefficients."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        for t in range(len(basis)):
            coeffs[t] += yi * basis[t] / denom
    return coeffs


_KRONECKER_CAP = 250_000
_VALUE_CAP = 10**12  # divisor enumeration is O(sqrt(value))


def factor_monic(f) -> list[list[int]]:
    """Monic irreducible integer factors of a monic integer polynomial,
    with multiplicity, sorted by (degree, coefficients).

    Raises ValueError when a Kronecker divisor sweep would exceed the
    desk-scale cap; callers treat that as "no factorization available".
    """
    f = list(f)
    assert f[-1] == 1, "input must be monic"
    factors: list[list[int]] = []

    # peel integer roots (monic => all rational roots are integers)
    changed = True
    while changed and len(f) > 2:
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

    degree = len(f) - 1
    if degree == 1:
        factors.append(f)
        return sorted(factors, key=lambda g: (len(g), g))
    if degree <= 1:
        return sorted(factors, key=lambda g: (len(g), g))

    # Kronecker sweep for factors of degree 2 .. degree//2
    r = 2
    while r <= (len(f) - 1) // 2:
        points = []
        x = 0
        while len(points) < r + 1:
            points.append(x)
            x = -x if x > 0 else -x + 1
        values = [poly_eval(f, p) for p in points]
        assert all(v != 0 for v in values), "roots should have been peeled"
        if any(abs(v) > _VALUE_CAP for v in values):
            raise ValueError(f"Kronecker values too large for {f}")
        combos = 1
        for v in values:
            combos *= len(_divisors_signed(v))
        if combos > _KRONECKER_CAP:
            raise ValueError(
                f"Kronecker sweep too large ({combos} combinations) for {f}"
            )
        found = None
        for choice in itertools.product(*(_divisors_signed(v) for v in values)):
            cand = _interpolate(list(zip(points, choice)))
            if any(c.denominator != 1 for c in cand):
                continue
            cand_int = [int(c) for c in cand]
            while len(cand_int) > 1 and cand_int[-1] == 0:
                cand_int.pop()
            if len(cand_int) - 1 != r or cand_int[-1] != 1:
                continue
            quot, rem = divmod_monic(f, cand_int)
            if rem == [0]:
                found = cand_int
                break
        if found is not None:
            factors.append(found)  # minimal degree => irreducible
            f, _ = divmod_monic(f, found)
            continue  # retry the same r on the quotient
        r += 1

    if len(f) > 1:
        factors.append(f)
    return sorted(factors, key=lambda g: (len(g), g))
