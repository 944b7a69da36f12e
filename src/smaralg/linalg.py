"""Linear algebra for S-vector spaces over a subfield k of Z_n.

Strategy: all field-dependent work (echelon forms, determinants,
characteristic polynomials, eigenspaces) happens in the isomorphic prime
field Z_q and is mapped back entrywise; only the final arithmetic
identities (A·v = c·v, sum of projections, reconstruction) are stated and
re-verified directly mod n.  The identity matrix is I_e = diag(e, ..., e)
with e the subfield identity, which usually is not 1.

Every product is row × column: one kernel dots the rows of the left
factor (slices of its row-major entries) with the columns of the right
one (taken once with zip), reducing each entry mod n.  mat_mul,
apply_matrix, the eigenpair checks and the spectral construction and
re-verification all run through it.

The spectral re-verification checks A = Aᵀ, E_i = E_iᵀ, A·E_i = c_i·E_i,
ΣE_i = I_e and Σc_iE_i = A mod n: k products of d×d matrices for k
distinct values.  E_iA = c_iE_i, E_iE_j = 0 for i ≠ j and E_i² = E_i
are derived from those (the proof is in _reverify_spectral), not
multiplied out.  The pseudo-orthogonality of the eigenspaces is derived
too (from A = Aᵀ and the asserted eigenpairs; see _spectral_from_eigen),
not computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from . import Record, gfmat, ratmat
from .polylab import ModPolynomial
from .ringcore import Subfield


@dataclass(frozen=True)
class SubfieldVector:
    k: Subfield
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        for x in self.entries:
            if not self.k.contains(x):
                raise ValueError(f"entry {x} is not in the subfield {self.k.elements}")

    @property
    def n(self) -> int:
        return self.k.n

    def to_json(self) -> list[int]:
        return list(self.entries)


@dataclass(frozen=True)
class SubfieldMatrix:
    k: Subfield
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be >= 1")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match the dimensions")
        for x in self.entries:
            if not self.k.contains(x):
                raise ValueError(f"entry {x} is not in the subfield {self.k.elements}")

    @classmethod
    def from_rows(cls, k: Subfield, rows) -> "SubfieldMatrix":
        rows = [list(r) for r in rows]
        return cls(k, len(rows), len(rows[0]), tuple(x for r in rows for x in r))

    @property
    def n(self) -> int:
        return self.k.n

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def transpose(self) -> "SubfieldMatrix":
        return SubfieldMatrix.from_rows(self.k, _columns(self))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "subfield": list(self.k.elements),
            "rows": self.rows,
            "cols": self.cols,
            "entries": list(self.entries),
        }


def identity_matrix(k: Subfield, dim: int) -> SubfieldMatrix:
    """I_e: the subfield identity along the diagonal."""
    e = k.identity
    return SubfieldMatrix.from_rows(
        k, [[e if i == j else 0 for j in range(dim)] for i in range(dim)]
    )


def _rows(a: SubfieldMatrix) -> list[tuple[int, ...]]:
    c = a.cols
    return [a.entries[i:i + c] for i in range(0, len(a.entries), c)]


def _columns(a: SubfieldMatrix) -> list[tuple[int, ...]]:
    return list(zip(*_rows(a)))


def _products(rows, cols, n: int) -> tuple[int, ...]:
    """Row-major entries of the product whose left factor has these rows
    and whose right factor has these columns, mod n."""
    return tuple(sum(map(mul, row, col)) % n for row in rows for col in cols)


def _same_space(a, b) -> None:
    if a.k != b.k:
        raise ValueError("operands live over different subfields")


def mat_mul(a: SubfieldMatrix, b: SubfieldMatrix) -> SubfieldMatrix:
    _same_space(a, b)
    if a.cols != b.rows:
        raise ValueError("shape mismatch for multiplication")
    return SubfieldMatrix(a.k, a.rows, b.cols, _products(_rows(a), _columns(b), a.n))


def apply_matrix(a: SubfieldMatrix, v: SubfieldVector) -> SubfieldVector:
    _same_space(a, v)
    if a.cols != len(v.entries):
        raise ValueError("shape mismatch for matrix-vector product")
    return SubfieldVector(a.k, _products(_rows(a), (v.entries,), a.n))


def to_prime_matrix(a: SubfieldMatrix) -> list[list[int]]:
    """Entrywise image of the matrix in Z_q."""
    return [[a.k.to_prime(a.at(i, j)) for j in range(a.cols)] for i in range(a.rows)]


def from_prime_matrix(k: Subfield, m) -> SubfieldMatrix:
    return SubfieldMatrix.from_rows(k, [[k.from_prime(x) for x in row] for row in m])


def from_prime_vector(k: Subfield, v) -> SubfieldVector:
    return SubfieldVector(k, tuple(k.from_prime(x) for x in v))


def rref_and_nullspace(a: SubfieldMatrix):
    """(rank, reduced echelon form, canonical nullspace basis), all over k.

    Work happens in Z_q; free variables take the value 1 there (the
    subfield identity after mapping back), one at a time ascending.
    """
    field = ratmat.prime_field(a.k.prime_order)
    rref, pivots = ratmat.rref(to_prime_matrix(a), field)
    basis = ratmat.nullspace_from_rref(rref, pivots, a.cols, field)
    return (
        len(pivots),
        from_prime_matrix(a.k, rref),
        [from_prime_vector(a.k, v) for v in basis],
    )


@dataclass(frozen=True)
class CharPolyResult(Record):
    """prime_coeffs: monic characteristic polynomial over Z_q (ascending).
    zn_rendition: det(lam * I_e - A) mod n tabulated for lam = 0..n-1."""

    prime_coeffs: tuple[int, ...]
    zn_rendition: tuple[int, ...]


def char_poly(a: SubfieldMatrix) -> CharPolyResult:
    if not a.is_square():
        raise ValueError("characteristic polynomial needs a square matrix")
    k = a.k
    q = k.prime_order
    prime_coeffs = tuple(gfmat.charpoly_mod(to_prime_matrix(a), q))
    # Every entry of lam*I_e - A lies in k (lam*e mod n is in k) and the
    # Leibniz expansion uses only ring operations of k, so the isomorphism
    # k -> Z_q, which sends lam*e to lam mod q, maps the determinant to p(lam).
    rendition = tuple(
        k.from_prime(gfmat.poly_eval_mod(prime_coeffs, lam, q)) for lam in range(k.n)
    )
    return CharPolyResult(prime_coeffs=prime_coeffs, zn_rendition=rendition)


@dataclass(frozen=True)
class SEigenvalue:
    value: int  # an element of k
    basis: tuple[SubfieldVector, ...]
    algebraic_multiplicity: int

    @property
    def geometric_multiplicity(self) -> int:
        return len(self.basis)


@dataclass(frozen=True)
class AlienValue:
    """A residue outside k where det(lam·I_e - A) vanishes; the witness is
    an in-field vector with A·v = lam·v, taken from the eigenspace of the
    S-characteristic value lam·e."""

    value: int
    witness: SubfieldVector


@dataclass(frozen=True)
class EigenSystem(Record):
    matrix: SubfieldMatrix
    char: CharPolyResult
    s_values: tuple[SEigenvalue, ...]
    alien_values: tuple[AlienValue, ...]
    diagonalizable: bool


def eigen_system(a: SubfieldMatrix) -> EigenSystem:
    """S-characteristic values in k with canonical eigenbases, plus the
    alien values in Z_n \\ k; every (c, v) pair is re-verified mod n, and
    each alien value lam by A·w = lam·w mod n on the image A·w of its
    witness w that the eigenpair check already computed."""
    if not a.is_square():
        raise ValueError("eigen decomposition needs a square matrix")
    k = a.k
    q, n, dim = k.prime_order, k.n, a.rows
    cp = char_poly(a)
    prime = to_prime_matrix(a)
    field = ratmat.prime_field(q)
    a_rows = _rows(a)
    s_values = []
    first_images = {}  # c -> A·w mod n for the first basis vector w of c
    for r in range(q - 1, -1, -1):
        if cp.zn_rendition[r] != 0:  # from_prime(p(r)), zero exactly at the roots
            continue
        alg = gfmat.root_multiplicity(cp.prime_coeffs, r, q)
        shifted = [
            [(prime[i][j] - (r if i == j else 0)) % q for j in range(dim)]
            for i in range(dim)
        ]
        basis = tuple(from_prime_vector(k, v) for v in ratmat.nullspace(shifted, field))
        c = k.from_prime(r)
        for v in basis:
            got = _products(a_rows, (v.entries,), n)
            want = tuple((c * x) % n for x in v.entries)
            assert got == want, f"eigenpair re-verification failed at c={c}"
            first_images.setdefault(c, got)
        s_values.append(SEigenvalue(value=c, basis=basis, algebraic_multiplicity=alg))
    by_value = {ev.value: ev for ev in s_values}
    aliens = []
    for lam in range(n):
        if k.contains(lam) or cp.zn_rendition[lam] != 0:
            continue
        # det vanishes at lam iff lam mod q is a root, so lam·e is an s-value
        c = (lam * k.identity) % n
        witness = by_value[c].basis[0]
        want = tuple((lam * x) % n for x in witness.entries)
        assert first_images[c] == want, f"alien witness re-verification failed at {lam}"
        aliens.append(AlienValue(value=lam, witness=witness))
    diag = sum(ev.geometric_multiplicity for ev in s_values) == dim
    return EigenSystem(
        matrix=a,
        char=cp,
        s_values=tuple(s_values),
        alien_values=tuple(aliens),
        diagonalizable=diag,
    )


def pseudo_inner_product(u, v) -> int:
    """Coordinate-sum bilinear form; may vanish on nonzero arguments.

    Accepts a pair of SubfieldVectors (equal length required) or a pair
    of ModPolynomials (coefficient vectors, zero-padded to equal length).
    """
    if isinstance(u, SubfieldVector) and isinstance(v, SubfieldVector):
        if u.n != v.n:
            raise ValueError("modulus mismatch")
        if len(u.entries) != len(v.entries):
            raise ValueError("length mismatch")
        return sum(x * y for x, y in zip(u.entries, v.entries)) % u.n
    if isinstance(u, ModPolynomial) and isinstance(v, ModPolynomial):
        if u.n != v.n:
            raise ValueError("modulus mismatch")
        length = max(len(u.coeffs), len(v.coeffs))
        return sum(x * y for x, y in zip(u.padded(length), v.padded(length))) % u.n
    raise TypeError("expected two SubfieldVectors or two ModPolynomials")


def self_adjoint_check(a: SubfieldMatrix) -> bool:
    """True iff A equals its transpose (the adjoint for the coordinate
    pseudo inner product in standard coordinates)."""
    if not a.is_square():
        raise ValueError("adjoint comparison needs a square matrix")
    return _rows(a) == _columns(a)


@dataclass(frozen=True)
class SpectralDecomposition:
    terms: tuple[tuple[int, SubfieldMatrix], ...]  # (c_i, E_i)
    residual_ok: bool
    eigenspaces_pseudo_orthogonal: bool

    def to_json(self) -> dict:
        return {
            "terms": [{"value": c, "projection": e.to_json()} for c, e in self.terms],
            "residual_ok": self.residual_ok,
            "eigenspaces_pseudo_orthogonal": self.eigenspaces_pseudo_orthogonal,
        }


@dataclass(frozen=True)
class SpectralDiagnostic(Record):
    """Why the spectral decomposition does not exist over k."""

    reason: str  # defective_eigenvalue | char_poly_does_not_split_over_k
    defective_value: int | None = None
    geometric_multiplicity: int | None = None
    algebraic_multiplicity: int | None = None


def spectral_decompose(a: SubfieldMatrix):
    """T = sum c_i E_i for a self-adjoint diagonalizable operator.

    Each E_i is the orthogonal projection onto the eigenspace of c_i,
    built over Z_q from that eigenspace's Gram matrix and mapped back; the
    identities of the decomposition are re-verified mod n before
    returning (see _reverify_spectral).  Non-diagonalizable input yields
    a SpectralDiagnostic, never a partial answer.
    """
    if not a.is_square():
        raise ValueError("spectral decomposition needs a square matrix")
    if not self_adjoint_check(a):
        raise ValueError("matrix is not self-adjoint (A != A^T)")
    return _spectral_from_eigen(eigen_system(a))


def _spectral_from_eigen(es: EigenSystem):
    """spectral_decompose for a self-adjoint matrix whose eigen system
    is already computed.

    For A = Aᵀ the eigenspaces of distinct values are pseudo-orthogonal:
    (c_i − c_j)·uᵀv = (Au)ᵀv − uᵀ(Av) = 0, and c_i − c_j is a unit of k,
    so uᵀv = 0.  eigenspaces_pseudo_orthogonal is set by this theorem,
    not computed.  When the eigenspaces span k^d, the coordinate form,
    nondegenerate on k^d, is nondegenerate on each of them, so the Gram
    matrix B_iᵀB_i of the d×m_i eigenbasis B_i is invertible and
    E_i = B_i (B_iᵀB_i)⁻¹ B_iᵀ projects onto the eigenspace along the sum
    of the others: the spectral projection.  Only the m_i×m_i Gram
    matrices are inverted.
    """
    a = es.matrix
    if not es.diagonalizable:
        for ev in es.s_values:
            if ev.geometric_multiplicity < ev.algebraic_multiplicity:
                return SpectralDiagnostic(
                    reason="defective_eigenvalue",
                    defective_value=ev.value,
                    geometric_multiplicity=ev.geometric_multiplicity,
                    algebraic_multiplicity=ev.algebraic_multiplicity,
                )
        return SpectralDiagnostic(reason="char_poly_does_not_split_over_k")

    k = a.k
    q, dim = k.prime_order, a.rows
    field = ratmat.prime_field(q)
    terms = []
    for ev in es.s_values:
        basis = [tuple(map(k.to_prime, v.entries)) for v in ev.basis]  # the rows of B_iᵀ
        m = len(basis)
        gram = _products(basis, basis, q)
        gram_inv = ratmat.inverse([gram[r:r + m] for r in range(0, m * m, m)], field)
        assert gram_inv is not None, "eigenspace Gram matrix must be invertible"
        b_rows = list(zip(*basis))
        left = _products(b_rows, list(zip(*gram_inv)), q)  # B_i (B_iᵀB_i)⁻¹, d×m_i
        e_prime = _products([left[r:r + m] for r in range(0, dim * m, m)], b_rows, q)
        terms.append((ev.value, SubfieldMatrix(k, dim, dim, tuple(map(k.from_prime, e_prime)))))
    _reverify_spectral(a, terms)
    # pseudo-orthogonal by the theorem above: A = Aᵀ is asserted in
    # _reverify_spectral and each eigenpair in eigen_system
    return SpectralDecomposition(
        terms=tuple(terms),
        residual_ok=True,
        eigenspaces_pseudo_orthogonal=True,
    )


def _reverify_spectral(a: SubfieldMatrix, terms) -> None:
    """Assert, mod n, that the terms (c_i, E_i) with distinct c_i in k are
    the spectral decomposition of A: A = Aᵀ, each E_i = E_iᵀ, each
    A·E_i = c_i·E_i, ΣE_i = I_e and Σc_iE_i = A.  That is k products of
    d×d matrices, and these identities imply the rest:
    - E_iA = E_iᵀAᵀ = (A·E_i)ᵀ = c_iE_i;
    - so E_jAE_i is both c_i·E_jE_i and c_j·E_jE_i, and
      (c_i − c_j)·E_jE_i = 0.  c_i − c_j is a unit of k and e·X = X for
      every matrix X over k, so E_jE_i = 0 for i ≠ j;
    - hence E_i = E_i·I_e = Σ_j E_iE_j = E_i², so each E_i is idempotent.
    """
    n, dim = a.n, a.rows
    values = [c for c, _ in terms]
    assert len(set(values)) == len(values), "the values c_i must be distinct"
    a_rows = _rows(a)
    assert a_rows == _columns(a), "A must be self-adjoint"
    for c, proj in terms:
        cols = _columns(proj)
        assert _rows(proj) == cols, "E_i must be symmetric"
        want = tuple(c * x % n for x in proj.entries)
        assert _products(a_rows, cols, n) == want, "A E_i must equal c_i E_i"
    by_entry = list(zip(*(proj.entries for _, proj in terms)))  # (E_1[x], E_2[x], ...)
    total = tuple(sum(xs) % n for xs in by_entry)
    assert total == identity_matrix(a.k, dim).entries, "projections must sum to I_e"
    recon = tuple(sum(map(mul, values, xs)) % n for xs in by_entry)
    assert recon == a.entries, "sum of c_i E_i must reconstruct A"


@dataclass(frozen=True)
class BilinearFormReport(Record):
    rank: int
    symmetric: bool
    skew: bool


def bilinear_form_analyze(g: SubfieldMatrix):
    """Rank, symmetry and skewness of a Gram matrix, plus the quadratic
    evaluator alpha -> alpha^T G alpha mod n (returned as a callable)."""
    if not g.is_square():
        raise ValueError("a Gram matrix must be square")
    rank, _, _ = rref_and_nullspace(g)
    n = g.n
    transposed = g.transpose()
    symmetric = g.entries == transposed.entries
    skew = g.entries == tuple((-x) % n for x in transposed.entries)

    def quadratic(alpha) -> int:
        vec = alpha.entries if isinstance(alpha, SubfieldVector) else tuple(alpha)
        if len(vec) != g.rows:
            raise ValueError("vector length does not match the form")
        total = 0
        for i in range(g.rows):
            for j in range(g.cols):
                total += vec[i] * g.at(i, j) * vec[j]
        return total % n

    return BilinearFormReport(rank=rank, symmetric=symmetric, skew=skew), quadratic
