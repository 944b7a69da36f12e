"""Arithmetic in Z_n and discovery of the subfields embedded in it.

A subfield of Z_n is a proper subset that is a field under the induced
operations; its multiplicative identity e is an idempotent of Z_n and is
usually not 1 (e.g. {0,2,4} inside Z_6 has identity 4).  Every such subset
is an additive subgroup d·Z_n, and d·Z_n is a field exactly when q = n/d is
prime and gcd(d, q) = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import Record


class SubfieldRejection(ValueError):
    """A candidate subset fails one of the field axioms.

    ``reason`` is a stable machine-readable code:
    not_multiplicatively_closed / not_additively_closed / no_identity /
    non_invertible_element / not_proper.
    """

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}")


def _check_modulus(n: int) -> None:
    """Z_n is a ring with at least two elements only for n >= 2."""
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")


@dataclass(frozen=True)
class Subfield(Record):
    """A field of prime order q living inside Z_n with identity e.

    ``elements`` is the sorted tuple of residues and ``identity`` the
    multiplicative identity (an idempotent of Z_n, nonzero).  Every
    Subfield comes from find_subfields, certify_subfield or whole_prime,
    so its elements are d·Z_n with d = n/q and gcd(d, q) = 1, and e is
    1 mod q and 0 mod d.  The ring isomorphism with Z_q that sends e to 1
    (k·e mod n -> k mod q) is therefore a -> a mod q, its inverse is
    r -> r·e mod n, and a is a member exactly when 0 <= a < n and d | a.
    """

    n: int
    elements: tuple[int, ...]
    identity: int
    prime_order: int

    @classmethod
    def whole_prime(cls, p: int) -> "Subfield":
        """The improper carrier Z_p itself (identity 1), for classical
        prime-field computations; never produced by discovery."""
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(n=p, elements=tuple(range(p)), identity=1, prime_order=p)

    @property
    def is_whole_ring(self) -> bool:
        return self.prime_order == self.n

    def to_prime(self, a: int) -> int:
        """Map an element of the subfield to its residue in Z_q; KeyError
        for a non-member."""
        if not self.contains(a):
            raise KeyError(a)
        return a % self.prime_order

    def from_prime(self, r: int) -> int:
        """Map a residue of Z_q back into the subfield."""
        return r * self.identity % self.n

    def contains(self, a: int) -> bool:
        return 0 <= a < self.n and a % (self.n // self.prime_order) == 0


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for d in range(2, math.isqrt(q) + 1):
        if q % d == 0:
            return False
    return True


def idempotents(n: int) -> list[int]:
    """All e in [0, n) with e*e = e (mod n), ascending."""
    _check_modulus(n)
    return [e for e in range(n) if (e * e) % n == e]


def find_subfields(n: int) -> list[Subfield]:
    """Every proper subset of Z_n that is a field, sorted by prime order.

    Uses the closed form: d·Z_n is a field iff q = n/d is prime and
    gcd(d, q) = 1; the identity is the unique nonzero idempotent in d·Z_n.
    Prime n yields [] since the only candidate field is Z_n itself, which
    is not a proper subset.
    """
    _check_modulus(n)
    found = []
    for d in range(2, n + 1):
        if n % d != 0:
            continue
        q = n // d
        if not _is_prime(q) or math.gcd(d, q) != 1:
            continue
        elements = tuple(sorted((k * d) % n for k in range(q)))
        es = [e for e in elements if e != 0 and (e * e) % n == e]
        assert len(es) == 1, f"expected a unique nonzero idempotent in {elements}"
        found.append(Subfield(n=n, elements=elements, identity=es[0], prime_order=q))
    return sorted(found, key=lambda s: s.prime_order)


def certify_subfield(n: int, elements) -> Subfield:
    """Verify that ``elements`` is a proper subfield of Z_n and build it.

    Raises SubfieldRejection with a structured reason on any axiom
    failure; every axiom is re-checked exhaustively, nothing is assumed.
    """
    _check_modulus(n)
    elems = sorted(set(elements))
    if not elems:
        raise ValueError("candidate subset is empty")
    if elems[0] < 0 or elems[-1] >= n:
        raise ValueError(f"elements must be residues in [0, {n})")
    eset = set(elems)

    for a in elems:
        for b in elems:
            if (a * b) % n not in eset:
                raise SubfieldRejection(
                    "not_multiplicatively_closed",
                    f"{a}*{b} = {(a * b) % n} (mod {n}) is outside the set",
                )
    for a in elems:
        for b in elems:
            if (a + b) % n not in eset:
                raise SubfieldRejection(
                    "not_additively_closed",
                    f"{a}+{b} = {(a + b) % n} (mod {n}) is outside the set",
                )

    identity = None
    for e in elems:
        if e != 0 and all((e * a) % n == a for a in elems):
            identity = e
            break
    if identity is None:
        raise SubfieldRejection(
            "no_identity", "no nonzero element acts as a multiplicative identity"
        )

    for a in elems:
        if a == 0:
            continue
        if not any((a * b) % n == identity for b in elems):
            raise SubfieldRejection(
                "non_invertible_element", f"{a} has no inverse onto {identity}"
            )

    if len(elems) == n:
        raise SubfieldRejection(
            "not_proper", "the whole ring is not a proper subset"
        )

    q = len(elems)
    assert _is_prime(q), f"field axioms hold but order {q} is not prime"
    sf = Subfield(n=n, elements=tuple(elems), identity=identity, prime_order=q)
    # a -> a mod q is a ring map on Z_n since q | n, so it is an isomorphism
    # onto Z_q exactly when it is a bijection on the elements sending the
    # identity to 1 (the pairwise identities hold for every pair of ints)
    assert sorted(map(sf.to_prime, elems)) == list(range(q)), "to_prime is not a bijection"
    assert sf.to_prime(identity) == 1, "to_prime does not send the identity to 1"
    return sf


def subfield_from_elements(n: int, elements) -> Subfield:
    """Build a scalar carrier from an element list: certification for a
    proper subset, the whole-field carrier when all of a prime Z_p is
    named (certify_subfield would reject that as not proper)."""
    elems = sorted(set(elements))
    if elems and (elems[0] < 0 or elems[-1] >= n):
        raise ValueError(f"elements must be residues in [0, {n})")
    if len(elems) == n and _is_prime(n):
        return Subfield.whole_prime(n)
    return certify_subfield(n, elems)
