"""Polynomials over Z_n: arithmetic, root criteria, and the quotient maps.

Everything here works by exhaustive evaluation over the finite carrier;
"rootless" always means "no root in the stated domain", which for degree
>= 4 is weaker than factor-free irreducibility (see ReducibilityReport).
"""

from __future__ import annotations

import enum
import itertools
import re
from dataclasses import dataclass

from . import Record
from .ringcore import Subfield, _check_modulus, _is_prime


@dataclass(frozen=True)
class ModPolynomial(Record):
    """Coefficients over Z_n, ascending degree, trailing zeros trimmed.

    The zero polynomial has an empty coefficient tuple and no degree.
    """

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_modulus(self.n)
        reduced = tuple(c % self.n for c in self.coeffs)
        while reduced and reduced[-1] == 0:
            reduced = reduced[:-1]
        object.__setattr__(self, "coeffs", reduced)

    @property
    def degree(self) -> int | None:
        """None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x: int) -> int:
        """Horner evaluation mod n."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.n
        return acc

    def padded(self, length: int) -> tuple[int, ...]:
        return self.coeffs + (0,) * (length - len(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}x" if c != 1 else "x")
            else:
                terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
        return "+".join(terms)


_TERM_RE = re.compile(r"^(?:(\d+)|(\d*)x(?:\^(\d+))?)$")


def parse_poly(text: str, n: int | None = None) -> ModPolynomial:
    """Parse the strict text form "x^3+2x+1 mod 3".

    Terms are joined by '+', each term is a decimal residue, 'x', 'kx',
    'x^j' or 'kx^j'; an optional trailing "mod N" names the modulus when
    the ``n`` argument is not given.
    """
    s = text.strip()
    m = re.search(r"\bmod\s+(\d+)\s*$", s)
    if m:
        text_n = int(m.group(1))
        if n is not None and n != text_n:
            raise ValueError(f"modulus mismatch: {n} vs 'mod {text_n}'")
        n = text_n
        s = s[: m.start()].strip()
    if n is None:
        raise ValueError("no modulus: pass n or append 'mod N'")
    _check_modulus(n)
    coeffs: dict[int, int] = {}
    for raw in s.split("+"):
        term = raw.strip().replace(" ", "")
        tm = _TERM_RE.match(term)
        if not tm:
            raise ValueError(f"cannot parse term {raw!r}")
        const, coef, power = tm.groups()
        if const is not None:
            deg, c = 0, int(const)
        else:
            deg = int(power) if power is not None else 1
            c = int(coef) if coef else 1
        coeffs[deg] = (coeffs.get(deg, 0) + c) % n
    top = max(coeffs) if coeffs else 0
    return ModPolynomial(n, tuple(coeffs.get(i, 0) for i in range(top + 1)))


def poly_add(a: ModPolynomial, b: ModPolynomial) -> ModPolynomial:
    if a.n != b.n:
        raise ValueError(f"modulus mismatch: {a.n} vs {b.n}")
    length = max(len(a.coeffs), len(b.coeffs))
    pa, pb = a.padded(length), b.padded(length)
    return ModPolynomial(a.n, tuple((x + y) % a.n for x, y in zip(pa, pb)))


def poly_mul(a: ModPolynomial, b: ModPolynomial) -> ModPolynomial:
    if a.n != b.n:
        raise ValueError(f"modulus mismatch: {a.n} vs {b.n}")
    if a.is_zero() or b.is_zero():
        return ModPolynomial(a.n, ())
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = (out[i + j] + x * y) % a.n
    return ModPolynomial(a.n, tuple(out))


def roots_in(p: ModPolynomial, domain) -> list[int]:
    """All a in the domain with p(a) = 0 (mod n), ascending."""
    for a in domain:
        if not 0 <= a < p.n:
            raise ValueError(f"domain element {a} outside [0, {p.n})")
    return sorted(a for a in set(domain) if p.evaluate(a) == 0)


class Verdict(str, enum.Enum):
    HAS_ROOT = "has_root"
    ROOTLESS = "rootless"


@dataclass(frozen=True)
class ReducibilityReport(Record):
    """The four classical root criteria over Z_p plus exhaustive search.

    ``rootless_may_factor`` is set when the polynomial has degree >= 4:
    a rootless verdict then does not certify factor-free irreducibility.
    """

    polynomial: ModPolynomial
    roots: tuple[int, ...]
    criterion_root: bool
    criterion_coeff_sum: bool
    criterion_equal_odd: bool
    criterion_xp_plus_1: bool
    verdict: Verdict
    rootless_may_factor: bool


def reducibility_report(p: ModPolynomial) -> ReducibilityReport:
    """Evaluate the root criteria for a polynomial over a prime field."""
    q = p.n
    if not _is_prime(q):
        raise ValueError(f"criteria are stated over prime fields; {q} is composite")
    roots = tuple(roots_in(p, range(q)))
    coeff_sum = sum(p.coeffs) % q == 0 and not p.is_zero()
    deg = p.degree
    equal_odd = (
        deg is not None
        and deg >= 1
        and deg % 2 == 1
        and all(c != 0 for c in p.coeffs)
        and len(set(p.coeffs)) == 1
    )
    xp_plus_1 = p.coeffs == (1,) + (0,) * (q - 1) + (1,)
    return ReducibilityReport(
        polynomial=p,
        roots=roots,
        criterion_root=bool(roots),
        criterion_coeff_sum=coeff_sum,
        criterion_equal_odd=equal_odd,
        criterion_xp_plus_1=xp_plus_1,
        verdict=Verdict.HAS_ROOT if roots else Verdict.ROOTLESS,
        rootless_may_factor=deg is not None and deg >= 4,
    )


class FermatFamily(str, enum.Enum):
    XP_LINEAR = "xp_linear"          # x^p + (p-1)x + c, c != 0
    GEOMETRIC_SUM = "geometric_sum"  # x^(p-1) + ... + x + c, c not in {0,1}, p > 2


@dataclass(frozen=True)
class FamilyCheck:
    polynomial: ModPolynomial
    rootless: bool
    witnesses: tuple[int, ...]  # any root found would refute the theorem


def fermat_family_check(p: int, family: FermatFamily, c: int) -> FamilyCheck:
    """Build the named family member and verify rootlessness exhaustively."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    c %= p
    if family is FermatFamily.XP_LINEAR:
        if c == 0:
            raise ValueError("x^p + (p-1)x + c needs c != 0")
        coeffs = [c, p - 1] + [0] * (p - 2) + [1]
    elif family is FermatFamily.GEOMETRIC_SUM:
        if p <= 2:
            raise ValueError("the geometric-sum family needs p > 2")
        if c in (0, 1):
            raise ValueError("x^(p-1) + ... + x + c needs c not in {0, 1}")
        coeffs = [c] + [1] * (p - 1)
    else:
        raise ValueError(f"unknown family {family!r}")
    poly = ModPolynomial(p, tuple(coeffs))
    witnesses = tuple(roots_in(poly, range(p)))
    return FamilyCheck(polynomial=poly, rootless=not witnesses, witnesses=witnesses)


def fermat_power_sum(p: int, a: int, r: int) -> dict:
    """Return sum = a + a^2 + ... + a^(r-1) mod p and whether a^r = a.

    Both sides of the equivalence (sum = 0 <=> a^r = a mod p, valid for
    a != 1) are computed independently and asserted to agree.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 0 <= a < p:
        raise ValueError(f"a = {a} outside [0, {p})")
    if a == 1:
        raise ValueError("a = 1 is excluded by the theorem statement")
    if r < 2:
        raise ValueError("r must be >= 2")
    total = sum(pow(a, i, p) for i in range(1, r)) % p
    congruent = pow(a, r, p) == a
    assert (total == 0) == congruent, f"equivalence fails at p={p}, a={a}, r={r}"
    return {"sum": total, "congruent": congruent}


def coeff_sum_hom(p: ModPolynomial) -> int:
    """The coefficient-sum ring homomorphism Z_q[x] -> Z_q (prime q)."""
    if not _is_prime(p.n):
        raise ValueError(f"{p.n} is composite")
    return sum(p.coeffs) % p.n


def kernel_of_hom(q: int, max_degree: int) -> list[ModPolynomial]:
    """All polynomials of degree <= max_degree with zero coefficient sum.

    The quotient by this kernel has exactly q cosets, realizing the
    isomorphism onto Z_q (asserted).
    """
    if not _is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q ** (max_degree + 1) > 10**6:
        raise ValueError("enumeration bound exceeded: q^(max_degree+1) > 10^6")
    kernel = [
        ModPolynomial(q, head + (-sum(head) % q,))
        for head in itertools.product(range(q), repeat=max_degree)
    ]
    kernel.sort(key=lambda poly: poly.padded(max_degree + 1))
    assert len(kernel) * q == q ** (max_degree + 1), "quotient must have q cosets"
    return kernel


def block_transform(p: ModPolynomial, n: int, m: int) -> ModPolynomial:
    """Chunk the n+1 coefficients into m+1 blocks of size (n+1)/(m+1) and
    map each block to the sum of its entries mod q.

    Linear over Z_q and onto; the kernel is exactly the polynomials whose
    every block sum vanishes.
    """
    if (n + 1) % (m + 1) != 0:
        raise ValueError(f"(m+1) = {m + 1} must divide (n+1) = {n + 1}")
    if n <= m:
        raise ValueError("source degree bound must exceed the target's")
    if p.degree is not None and p.degree > n:
        raise ValueError(f"degree {p.degree} exceeds the source bound {n}")
    size = (n + 1) // (m + 1)
    padded = p.padded(n + 1)
    out = tuple(
        sum(padded[j * size : (j + 1) * size]) % p.n for j in range(m + 1)
    )
    return ModPolynomial(p.n, out)


class RootTruth(str, enum.Enum):
    TRUE = "true"
    FALSE = "false"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RootClassification(Record):
    """Three-valued verdict for p(x) = 0 relative to a subfield k of Z_n."""

    truth: RootTruth
    in_field_roots: tuple[int, ...]
    alien_roots: tuple[int, ...]


def neutrosophic_classify(p: ModPolynomial, k: Subfield) -> RootClassification:
    """Split the roots of p over Z_n by membership in k.

    TRUE when an in-field root exists, INDETERMINATE when only roots
    outside k exist, FALSE when there is no root at all.
    """
    if k.n != p.n:
        raise ValueError(f"subfield lives in Z_{k.n}, polynomial in Z_{p.n}")
    all_roots = roots_in(p, range(p.n))
    inside = tuple(r for r in all_roots if k.contains(r))
    alien = tuple(r for r in all_roots if not k.contains(r))
    if inside:
        truth = RootTruth.TRUE
    elif alien:
        truth = RootTruth.INDETERMINATE
    else:
        truth = RootTruth.FALSE
    return RootClassification(truth=truth, in_field_roots=inside, alien_roots=alien)
