"""The four workloads: seeded job generation and the check of every output.

A workload hands out rounds.  Every round of a workload holds the same
job classes in the same numbers; the seed only chooses the concrete
inputs and their order.  A job is the argv of one ``smaralg`` command
plus a check that receives the command's JSON payload and raises
``CheckFailed`` when the answer is wrong.  Checks use ``oracles`` only.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles as orc


class CheckFailed(AssertionError):
    pass


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    label: str  # the size class, e.g. "spectral/d8/sa"
    argv: list[str]
    check: Callable[[dict], None]


class Files:
    """Input files the program reads (semigroup tables), kept in one
    directory inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, stem: str, data) -> str:
        self.root.mkdir(parents=True, exist_ok=True)
        self.count += 1
        path = self.root / f"{self.count:05d}-{stem}.json"
        path.write_text(json.dumps(data))
        return str(path)


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _fj(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# --- spectral ----------------------------------------------------------------

# (n, q): proper subfields of order q inside Z_n (identity e != 1) and
# whole prime fields (n == q).
SUBFIELDS_ODD = [(6, 3), (10, 5), (14, 7), (15, 5), (21, 7), (22, 11), (26, 13),
                 (33, 11), (39, 13), (66, 11)]
SUBFIELDS_TWO = [(6, 2), (10, 2), (14, 2)]
PRIME_FIELDS = [(5, 5), (7, 7), (11, 11), (13, 13)]


def subfield_of(n: int, q: int):
    """(elements, identity) of the order-q subfield of Z_n."""
    if n == q:
        return list(range(q)), 1
    elements = sorted({k * (n // q) % n for k in range(q)})
    return elements, orc.field_identity(n, elements)


def _reflection(rng, q: int, dim: int):
    while True:
        v = [rng.randrange(q) for _ in range(dim)]
        s = sum(x * x for x in v) % q
        if s:
            break
    two_over = 2 * pow(s, q - 2, q)
    return [[((i == j) - two_over * v[i] * v[j]) % q for j in range(dim)]
            for i in range(dim)]


def self_adjoint_matrix(rng, q: int, dim: int):
    """Q D Q^T over Z_q (q odd) with Q a product of reflections: Q is
    orthogonal, so the result is symmetric and diagonalizable."""
    qm = _reflection(rng, q, dim)
    for _ in range(2):
        qm = orc.mat_mul_mod(qm, _reflection(rng, q, dim), q)
    diag = [[rng.randrange(q) if i == j else 0 for j in range(dim)] for i in range(dim)]
    qt = [list(r) for r in zip(*qm)]
    return orc.mat_mul_mod(orc.mat_mul_mod(qm, diag, q), qt, q)


def general_matrix(rng, q: int, dim: int, dense: bool = False):
    """Random matrix over Z_q that is never symmetric.  A dense one has
    no zero entry, so the cofactor expansion prunes nothing and its cost
    does not depend on the seed."""
    low = 1 if dense else 0
    a = [[rng.randrange(low, q) for _ in range(dim)] for _ in range(dim)]
    if dense:
        a[1][0] = rng.choice([x for x in range(1, q) if x != a[0][1]])
    else:
        a[1][0] = (a[0][1] + 1 + rng.randrange(q - 1)) % q if q > 2 else 1 - a[0][1]
    return a


def spectral_job(rng, n: int, q: int, dim: int, sym: bool, label: str,
                 dense: bool = False) -> Job:
    elements, e = subfield_of(n, q)
    prime = self_adjoint_matrix(rng, q, dim) if sym else general_matrix(rng, q, dim, dense)
    entries = [x * e % n for row in prime for x in row]
    data = {"n": n, "subfield": elements, "rows": dim, "cols": dim, "entries": entries}
    argv = ["spectral", "--matrix", json.dumps(data, separators=(",", ":"))]
    return Job(label, argv, lambda payload: check_spectral(n, q, e, prime, payload))


def check_spectral(n: int, q: int, e: int, prime, payload) -> None:
    dim = len(prime)
    a = [[x * e % n for x in row] for row in prime]
    to_prime = {j * e % n: j for j in range(q)}
    es = payload["eigen_system"]
    expect(es["matrix"]["entries"] == [x for row in a for x in row], "matrix echo")
    sym = all(a[i][j] == a[j][i] for i in range(dim) for j in range(dim))
    expect(payload["self_adjoint"] == sym, "self_adjoint flag")

    cp = es["char"]["prime_coeffs"]
    expect(len(cp) == dim + 1 and cp[-1] == 1, "charpoly is monic of degree d")
    expect(cp[dim - 1] == -sum(prime[i][i] for i in range(dim)) % q, "charpoly trace")
    expect(cp[0] == (-1) ** dim * orc.det_mod(prime, q) % q, "charpoly det")
    for lam in range(q):
        shifted = [[(lam * (i == j) - prime[i][j]) % q for j in range(dim)]
                   for i in range(dim)]
        expect(orc.poly_eval_mod(cp, lam, q) == orc.det_mod(shifted, q),
               f"charpoly value at {lam}")

    zn = es["char"]["zn_rendition"]
    expect(len(zn) == n, "zn_rendition length")
    for lam in range(n):
        m = [[(lam * e * (i == j) - a[i][j]) % n for j in range(dim)] for i in range(dim)]
        expect(zn[lam] == orc.bareiss_det(m) % n, f"zn_rendition[{lam}]")

    def acts_as(vec, c) -> bool:
        return all(sum(a[i][j] * vec[j] for j in range(dim)) % n == c * vec[i] % n
                   for i in range(dim))

    roots = [r for r in range(q) if orc.poly_eval_mod(cp, r, q) == 0]
    svals = es["s_values"]
    expect(sorted(s["value"] for s in svals) == sorted(r * e % n for r in roots),
           "s-values are the roots in k")
    total = 0
    for s in svals:
        c = s["value"]
        r = to_prime[c]
        expect(s["algebraic_multiplicity"] == orc.root_multiplicity_mod(cp, r, q),
               f"algebraic multiplicity of {c}")
        basis = s["basis"]
        shifted = [[(prime[i][j] - r * (i == j)) % q for j in range(dim)] for i in range(dim)]
        expect(len(basis) == dim - orc.rank_mod(shifted, q), f"eigenspace dim of {c}")
        expect(all(x in to_prime for v in basis for x in v), "eigenvectors lie in k")
        expect(orc.rank_mod([[to_prime[x] for x in v] for v in basis], q) == len(basis),
               "eigenbasis independent")
        expect(all(acts_as(v, c) for v in basis), f"A v = {c} v")
        total += len(basis)
    expect(es["diagonalizable"] == (total == dim), "diagonalizable flag")

    aliens = es["alien_values"]
    expect([x["value"] for x in aliens]
           == [lam for lam in range(n) if lam not in to_prime and zn[lam] == 0],
           "alien values")
    expect(all(x["witness"] is None or acts_as(x["witness"], x["value"]) for x in aliens),
           "alien witnesses")

    if not sym:
        expect("spectral" not in payload, "no spectral form for a non-symmetric matrix")
        return
    terms = payload["spectral"]["terms"]
    expect([t["value"] for t in terms] == [s["value"] for s in svals], "spectral values")
    projections = [
        [t["projection"]["entries"][i * dim:(i + 1) * dim] for i in range(dim)]
        for t in terms
    ]
    for i, p in enumerate(projections):
        for j, other in enumerate(projections):
            prod = orc.mat_mul_mod(p, other, n)
            want = p if i == j else [[0] * dim for _ in range(dim)]
            expect(prod == want, "E_i E_j = delta_ij E_i")
    sum_e = [[sum(p[i][j] for p in projections) % n for j in range(dim)] for i in range(dim)]
    expect(sum_e == [[e * (i == j) for j in range(dim)] for i in range(dim)], "sum E_i = I_e")
    recon = [[sum(t["value"] * p[i][j] for t, p in zip(terms, projections)) % n
              for j in range(dim)] for i in range(dim)]
    expect(recon == a, "sum c_i E_i = A")


# Each entry: (dimension, self-adjoint?, field pool, jobs per round).
# Dimension-8 jobs are dense general matrices (no zero entries), so their
# cost is fixed by the field; three of the four share one field, and the
# tail percentile sits among those three.
SPECTRAL_ROUND = [
    (3, False, SUBFIELDS_TWO + SUBFIELDS_ODD, 3),
    (3, True, SUBFIELDS_ODD + PRIME_FIELDS, 3),
    (4, False, SUBFIELDS_ODD + PRIME_FIELDS, 3),
    (4, True, SUBFIELDS_ODD + PRIME_FIELDS, 3),
    (5, False, SUBFIELDS_ODD + PRIME_FIELDS, 4),
    (5, True, SUBFIELDS_ODD + PRIME_FIELDS, 4),
    (6, False, SUBFIELDS_TWO + SUBFIELDS_ODD + PRIME_FIELDS, 4),
    (6, True, SUBFIELDS_ODD + PRIME_FIELDS, 4),
    (7, False, SUBFIELDS_ODD + PRIME_FIELDS, 3),
    (7, True, SUBFIELDS_ODD + PRIME_FIELDS, 4),
    (8, False, [(22, 11)], 1),
    (8, False, [(26, 13)], 3),
]


class Spectral:
    name = "spectral"

    def round(self, rng, files: Files) -> list[Job]:
        jobs = []
        for dim, sym, pool, count in SPECTRAL_ROUND:
            fields = rng.sample(pool, len(pool))  # no field twice before all once
            for i in range(count):
                n, q = fields[i % len(fields)]
                label = f"spectral/d{dim}/{'sa' if sym else 'gen'}"
                jobs.append(spectral_job(rng, n, q, dim, sym, label, dense=dim == 8))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, rng, files: Files) -> list[Job]:
        return [spectral_job(rng, 66, 11, 3, True, "warmup"),
                spectral_job(rng, 6, 2, 4, False, "warmup"),
                spectral_job(rng, 13, 13, 5, True, "warmup")]


# --- groups and semigroups ---------------------------------------------------


def cyclic(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product(a, b):
    nb = len(b)
    size = len(a) * nb
    return [[a[i // nb][j // nb] * nb + b[i % nb][j % nb] for j in range(size)]
            for i in range(size)]


def closure_table(generators, compose):
    """Cayley table of the group (or monoid) generated under compose: the
    identity first, then the other elements in sorted order."""
    elements = set(generators)
    frontier = list(elements)
    while frontier:
        x = frontier.pop()
        for g in generators:
            for y in (compose(x, g), compose(g, x)):
                if y not in elements:
                    elements.add(y)
                    frontier.append(y)
    ordered = sorted(elements)
    identity = next(x for x in ordered if all(compose(x, y) == y for y in ordered))
    ordered.remove(identity)
    ordered.insert(0, identity)
    index = {x: i for i, x in enumerate(ordered)}
    return [[index[compose(x, y)] for y in ordered] for x in ordered], ordered


def _compose(f, g):
    return tuple(f[g[i]] for i in range(len(g)))


def _quaternion_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def build_groups() -> dict:
    """Cayley tables of the groups of order 2-8 used by the workloads;
    index 0 is the identity in every table."""
    groups = {f"C{n}": cyclic(n) for n in range(2, 9)}
    groups["C2xC2"] = direct_product(cyclic(2), cyclic(2))
    groups["C2xC4"] = direct_product(cyclic(2), cyclic(4))
    groups["C2^3"] = direct_product(groups["C2xC2"], cyclic(2))
    groups["S3"], _ = closure_table([(1, 0, 2), (1, 2, 0)], _compose)
    groups["D4"], _ = closure_table([(1, 2, 3, 0), (0, 3, 2, 1)], _compose)
    groups["Q8"], _ = closure_table([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion_mul)
    return groups


GROUPS = build_groups()
T3, T3_MAPS = closure_table(list(itertools.product(range(3), repeat=3)), _compose)


@dataclass
class Embedded:
    """A semigroup table with a group sitting at one of its idempotents."""

    group: str
    table: list
    identity: int
    elements: list


def relabel(rng, table, identity, elements) -> tuple:
    """Rename the table's elements at random, except that the group's
    elements keep their relative order: the representation's basis, and
    so the cost of decomposing it, is the same for every seed."""
    perm = list(range(len(table)))
    rng.shuffle(perm)
    group_labels = sorted(perm[x] for x in elements)
    for x, label in zip(sorted(elements), group_labels):
        perm[x] = label
    new = [[0] * len(table) for _ in table]
    for x, row in enumerate(table):
        for y, z in enumerate(row):
            new[perm[x]][perm[y]] = perm[z]
    return new, perm[identity], [perm[x] for x in elements]


def embed(rng, group: str, host: str) -> Embedded:
    """Place a group in a host semigroup and relabel at random.

    host "plain": the group's own table.  host "semilattice": G x {0,1}
    with min on the second factor; the group sits at (e, 0), which is not
    the table's identity.  host "T3": the full transformation monoid on 3
    points; S3 sits at the identity map and C2 at a rank-2 idempotent.
    """
    if host == "plain":
        g = GROUPS[group]
        table, identity, elements = g, 0, list(range(len(g)))
    elif host == "semilattice":
        g = GROUPS[group]
        table = direct_product(g, [[0, 0], [0, 1]])
        identity, elements = 0, [2 * x for x in range(len(g))]
    elif host == "T3":
        table = T3
        rep = (0, 1, 2) if group == "S3" else (0, 1, 1)
        identity = T3_MAPS.index(rep)
        image = set(rep)
        elements = [i for i, f in enumerate(T3_MAPS)
                    if set(f) == image and _compose(f, rep) == f and _compose(rep, f) == f]
    else:
        raise ValueError(host)
    table, identity, elements = relabel(rng, table, identity, elements)
    return Embedded(group, table, identity, elements)


def _regular(table, elements, side: str):
    index = {w: i for i, w in enumerate(elements)}
    identity = next(x for x in elements if all(table[x][w] == w for w in elements))
    inverse = {x: next(y for y in elements if table[x][y] == identity) for x in elements}
    out = {}
    for x in elements:
        m = [[Fraction(0)] * len(elements) for _ in elements]
        for w in elements:
            target = table[x][w] if side == "left" else table[w][inverse[x]]
            m[index[target]][index[w]] = Fraction(1)
        out[x] = m
    return out


def _intertwines(t, src, dst) -> bool:
    """T src(x) = dst(x) T for all x."""
    return all(orc.rat_mat_mul(t, src[x]) == orc.rat_mat_mul(dst[x], t) for x in src)


def check_rep(emb: Embedded, payload, decompose: bool) -> None:
    table = emb.table
    elements = sorted(emb.elements)
    rep = payload["representation"]
    sub = rep["subgroup"]
    expect(sub["identity"] == emb.identity, "subgroup identity")
    expect(sub["elements"] == elements, "subgroup elements")
    for x, y in sub["inverses"].items():
        expect(table[int(x)][y] == emb.identity == table[y][int(x)], "inverse pair")
    left = _regular(table, elements, "left")
    right = _regular(table, elements, "right")
    h = len(elements)
    expect(rep["degree"] == h, "degree")
    for x in elements:
        expect(_frac_matrix(rep["matrices"][str(x)]) == left[x], f"matrix of {x}")

    iso = payload["left_right_isomorphic"]
    expect(iso["isomorphic"] is True, "left ~ right")
    t = _frac_matrix(iso["intertwiner"])
    expect(orc.rat_rank(t) == h and _intertwines(t, left, right), "iso witness")
    s = _frac_matrix(payload["inversion_intertwiner"])
    expect(orc.rat_rank(s) == h and _intertwines(s, right, left), "inversion intertwiner")

    if not decompose:
        return
    blocks = payload["invariant_blocks"]
    if emb.group in orc.WEDDERBURN_NONABELIAN:
        dims = orc.WEDDERBURN_NONABELIAN[emb.group]
    else:
        dims = orc.wedderburn_dims_abelian(table, emb.identity, elements)
    expect(sorted(b["dimension"] for b in blocks) == dims, "Wedderburn block dimensions")
    everything = []
    for b in blocks:
        basis = _frac_matrix(b["basis"])
        everything += basis
        expect(b["irreducible"] is True, "block marked irreducible")
        expect(len(basis) == b["dimension"] == orc.rat_rank(basis), "block basis")
        for x in elements:
            images = [orc.rat_mat_vec(left[x], v) for v in basis]
            expect(orc.rat_rank(basis + images) == len(basis), "block is invariant")
    expect(orc.rat_rank(everything) == h, "blocks span the space")


def rep_job(rng, files: Files, group: str, host: str, label: str,
            decompose: bool = True) -> Job:
    emb = embed(rng, group, host)
    path = files.write(f"{group}-{host}", {"order": len(emb.table), "table": emb.table})
    argv = ["rep", "--file", path, "--identity", str(emb.identity), "--check-lr"]
    if decompose:
        argv.append("--decompose")
    return Job(label, argv, lambda payload: check_rep(emb, payload, decompose))


def maximal_subgroup(table, e: int) -> list[int]:
    """The H-class of an idempotent: elements fixed by e on both sides
    that have an inverse with respect to e."""
    local = [x for x in range(len(table)) if table[e][x] == x == table[x][e]]
    return [x for x in local if any(table[x][y] == e == table[y][x] for y in local)]


def check_all_subgroups(emb: Embedded, payload) -> None:
    table = emb.table
    m = len(table)
    expect(payload["order"] == m, "order")
    idem = [x for x in range(m) if table[x][x] == x]
    expect(payload["idempotents"] == idem, "idempotents")
    expected = set()
    for e in idem:
        for h in orc.subgroups_of(table, e, maximal_subgroup(table, e)):
            expected.add((e, h))
    reported = [(s["identity"], frozenset(s["elements"])) for s in payload["subgroups"]]
    expect(len(reported) == len(set(reported)), "no duplicate subgroups")
    expect(set(reported) == expected, "the set of all subgroups")
    expect((emb.identity, frozenset(emb.elements)) in expected, "embedded group present")
    for s in payload["subgroups"]:
        e = s["identity"]
        for x, y in s["inverses"].items():
            expect(table[int(x)][y] == e == table[y][int(x)], "subgroup inverse")


def subgroups_job(rng, files: Files, group: str, host: str, label: str) -> Job:
    emb = embed(rng, group, host)
    path = files.write(f"{group}-{host}", {"order": len(emb.table), "table": emb.table})
    argv = ["semigroup", "--file", path, "--all-subgroups"]
    return Job(label, argv, lambda payload: check_all_subgroups(emb, payload))


# (group, host, jobs per round) of `rep --check-lr --decompose`.  With the
# subgroup listings below, by cost: ten cheap jobs, sixteen order-4
# decompositions around the median, eight C5 ones around the 85th
# percentile, and two S3 ones above it.  An order-8 decomposition takes
# 3-5 s, as long as the rest of a round: it would make the round rate
# hinge on one job, so order 8 appears in the subgroup listings only.
REP_ROUND = [
    ("C2", "plain", 1), ("C2", "T3", 1),
    ("C4", "plain", 4), ("C4", "semilattice", 4),
    ("C2xC2", "plain", 4), ("C2xC2", "semilattice", 4),
    ("C5", "plain", 4), ("C5", "semilattice", 4),
    ("S3", "plain", 1), ("S3", "T3", 1),
]
# Every round also lists the subgroups of eight semigroups, drawn from
# these; groups up to order 6 sit in G x {0,1} so that the table has
# two idempotents.
SUBGROUP_TABLES = [
    ("C2", "semilattice"), ("C3", "semilattice"), ("C4", "semilattice"),
    ("C5", "semilattice"), ("C6", "semilattice"), ("C7", "plain"), ("C8", "plain"),
    ("C2xC2", "semilattice"), ("C2xC4", "plain"), ("C2^3", "plain"),
    ("S3", "semilattice"), ("D4", "plain"), ("Q8", "plain"),
]
SUBGROUP_JOBS = 8


class Rep:
    name = "rep"

    def round(self, rng, files: Files) -> list[Job]:
        jobs = []
        for group, host, count in REP_ROUND:
            jobs += [rep_job(rng, files, group, host, f"rep/{group}/{host}")
                     for _ in range(count)]
        for group, host in rng.sample(SUBGROUP_TABLES, SUBGROUP_JOBS):
            jobs.append(subgroups_job(rng, files, group, host, f"semigroup/{group}/{host}"))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, rng, files: Files) -> list[Job]:
        return [subgroups_job(rng, files, "S3", "semilattice", "warmup"),
                rep_job(rng, files, "C2", "T3", "warmup"),
                rep_job(rng, files, "C3", "plain", "warmup")]


# --- semivector --------------------------------------------------------------


def _fmt_vectors(vectors) -> str:
    return ";".join(",".join(map(str, v)) for v in vectors)


def _nonneg_box(target, gens) -> int:
    """Size of the coefficient box the program searches over the
    nonnegative integers: coefficient i runs up to min_j t_j // g_ij."""
    size = 1
    for g in gens:
        size *= min(t // x for t, x in zip(target, g) if x > 0) + 1
    return size


@dataclass(frozen=True)
class SemivecSpec:
    """One semivec job class.  Over the chain C_m the program searches all
    m^k coefficient tuples; over the nonnegative integers the box depends
    on the target, and inputs are drawn until it lies in ``box``."""

    action: str
    kind: str  # "chain" or "nonneg"
    m: int  # chain size; 0 for the integers
    k: int  # generators
    d: int  # tuple length
    member: bool  # the answer wanted: member, or independent family
    box: tuple = (0, 0)

    @property
    def label(self) -> str:
        sf = f"C{self.m}" if self.kind == "chain" else "N"
        return f"semivec/{self.action}/{sf}/k{self.k}/{'in' if self.member else 'out'}"


def _random_gens(rng, spec: SemivecSpec):
    if spec.kind == "chain":
        return [tuple(rng.randrange(spec.m) for _ in range(spec.d)) for _ in range(spec.k)]
    # nonzero in every coordinate keeps every coefficient bounded; wider
    # entries make independent families common
    top = 9 if spec.action == "independent" else 4
    return [tuple(rng.randint(1, top) for _ in range(spec.d)) for _ in range(spec.k)]


def semivec_job(rng, spec: SemivecSpec) -> Job:
    kind, d = spec.kind, spec.d
    scalars = list(range(spec.m)) if kind == "chain" else None
    while True:
        gens = _random_gens(rng, spec)
        if spec.action == "independent":
            target = None
            others = [gens[:i] + gens[i + 1:] for i in range(len(gens))]
            box = max(_nonneg_box(g, o) for g, o in zip(gens, others)) if scalars is None else 0
        elif kind == "chain":
            target = tuple(rng.randrange(spec.m) for _ in range(d))
            box = 0
        else:
            if spec.member:
                target = orc.combine(kind, [rng.randrange(4) for _ in gens], gens, d)
            else:
                target = tuple(rng.randint(6, 24) for _ in range(d))
            box = _nonneg_box(target, gens)
        if not spec.box[0] <= box <= spec.box[1]:
            continue
        if target is None:
            answer = not any(orc.in_span(kind, g, o, scalars) for g, o in zip(gens, others))
        else:
            answer = orc.in_span(kind, target, gens, scalars)
        if answer == spec.member:
            break
    semifield = f"chain:{spec.m}" if kind == "chain" else "nonneg"
    argv = ["semivec", "--action", spec.action, "--semifield", semifield,
            "--vectors", _fmt_vectors(gens)]
    if target is not None:
        argv += ["--target", ",".join(map(str, target))]
    return Job(spec.label, argv,
               lambda payload: check_semivec(spec.action, kind, gens, target, scalars,
                                             payload))


def spans_job(rng, kind: str, size: int, k: int, label: str) -> Job:
    """--action spans: the carrier of the chain C_size by k 1-tuples, or
    the space of size-tuples over the nonnegative integers."""
    if kind == "chain":
        gens = [(rng.randrange(size),) for _ in range(k)]
        space, targets = "carrier", [(x,) for x in range(size)]
        semifield, scalars = f"chain:{size}", list(range(size))
    else:
        gens = [tuple(rng.randint(0, 2) for _ in range(size)) for _ in range(k)]
        gens = [g if any(g) else (1,) + g[1:] for g in gens]
        space = f"dim:{size}"
        targets = [tuple(int(i == j) for i in range(size)) for j in range(size)]
        semifield, scalars = "nonneg", None
    argv = ["semivec", "--action", "spans", "--semifield", semifield,
            "--vectors", _fmt_vectors(gens), "--space", space]

    def check(payload):
        inside = [orc.in_span(kind, t, gens, scalars) for t in targets]
        expect(payload["spans"] == all(inside), "spans flag")
        if not all(inside):
            expect(tuple(payload["missing"]) == targets[inside.index(False)],
                   "first missing target")

    return Job(label, argv, check)


def check_semivec(action, kind, gens, target, scalars, payload) -> None:
    d = len(gens[0])
    if action == "span":
        member = orc.in_span(kind, target, gens, scalars)
        expect(payload["member"] == member, "span membership")
        if member:
            expect(orc.combine(kind, payload["coefficients"], gens, d) == tuple(target),
                   "coefficients recombine to the target")
    elif action == "enumerate":
        count = (orc.chain_count(target, gens, scalars) if kind == "chain"
                 else orc.nonneg_count(target, gens, scalars))
        reps = [tuple(r) for r in payload["representations"]]
        expect(payload["count"] == len(reps) == count, "representation count")
        expect(reps == sorted(set(reps)), "lexicographic, distinct")
        expect(all(orc.combine(kind, r, gens, d) == tuple(target) for r in reps),
               "every representation recombines")
    elif action == "independent":
        inside = [orc.in_span(kind, g, gens[:i] + gens[i + 1:], scalars)
                  for i, g in enumerate(gens)]
        expect(payload["independent"] == (not any(inside)), "independence")
        if any(inside):
            w = payload["witness_index"]
            expect(w == inside.index(True), "first dependent vector")
            others = gens[:w] + gens[w + 1:]
            expect(orc.combine(kind, payload["witness_coefficients"], others, d)
                   == tuple(gens[w]), "dependence witness")


# By cost: ten cheap jobs, ten C5 searches of 5^5 candidates around the
# median, six larger searches above them, and three C6 searches of 6^5
# candidates around the 95th percentile.
SEMIVEC_ROUND = [
    (SemivecSpec("span", "chain", 7, 4, 3, True), 2),
    (SemivecSpec("enumerate", "chain", 8, 3, 3, True), 1),
    (SemivecSpec("span", "nonneg", 0, 4, 3, False, (3000, 4000)), 1),
    (SemivecSpec("span", "nonneg", 0, 5, 3, True, (3000, 4000)), 2),
    (SemivecSpec("enumerate", "nonneg", 0, 4, 3, True, (2500, 3500)), 1),
    (SemivecSpec("independent", "nonneg", 0, 5, 3, True, (20, 2000)), 1),
    (SemivecSpec("span", "chain", 5, 5, 3, False), 5),
    (SemivecSpec("enumerate", "chain", 5, 5, 3, True), 5),
    (SemivecSpec("span", "chain", 8, 4, 4, False), 2),
    (SemivecSpec("span", "chain", 4, 6, 3, False), 2),
    (SemivecSpec("independent", "chain", 6, 5, 3, True), 1),
    (SemivecSpec("independent", "chain", 4, 6, 3, True), 1),
    (SemivecSpec("span", "chain", 6, 5, 3, False), 3),
]


class Semivec:
    name = "semivec"

    def round(self, rng, files: Files) -> list[Job]:
        jobs = []
        for spec, count in SEMIVEC_ROUND:
            jobs += [semivec_job(rng, spec) for _ in range(count)]
        jobs.append(spans_job(rng, "chain", 6, 5, "semivec/spans/C6"))
        jobs.append(spans_job(rng, "nonneg", 3, 6, "semivec/spans/N"))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, rng, files: Files) -> list[Job]:
        return [semivec_job(rng, SemivecSpec("span", "chain", 4, 3, 2, False)),
                semivec_job(rng, SemivecSpec("enumerate", "nonneg", 0, 3, 2, True, (1, 200))),
                spans_job(rng, "chain", 4, 3, "warmup")]


# --- desk --------------------------------------------------------------------

DESK_MODULI = [6, 10, 12, 14, 15, 18, 20, 21, 22, 26, 30, 33, 35, 42]
DESK_PRIMES = [3, 5, 7, 11, 13]


def _poly_text(coeffs) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            power = "x" if i == 1 else f"x^{i}"
            terms.append(power if c == 1 else f"{c}{power}")
    return "+".join(terms) or "0"


def _random_poly(rng, n: int, degree: int):
    return [rng.randrange(n) for _ in range(degree)] + [rng.randint(1, n - 1)]


def subfields_job(rng) -> Job:
    n = rng.choice(DESK_MODULI)

    def check(payload):
        got = [(tuple(s["elements"]), s["identity"], s["prime_order"]) for s in payload]
        expect(got == orc.subfields_by_closure(n), f"subfields of Z_{n}")

    return Job("desk/subfields", ["subfields", str(n)], check)


def certify_job(rng) -> Job:
    n = rng.choice(DESK_MODULI)
    elements, _, q = rng.choice(orc.subfields_by_closure(n))

    def check(payload):
        e = orc.field_identity(n, elements)
        expect(payload["elements"] == list(elements) and payload["identity"] == e
               and payload["prime_order"] == q, "certified subfield")
        phi = {int(a): b for a, b in payload["to_prime"].items()}
        expect(sorted(phi.values()) == list(range(q)) and phi[e] == 1, "bijection onto Z_q")
        expect(all(phi[(a + b) % n] == (phi[a] + phi[b]) % q
                   and phi[a * b % n] == phi[a] * phi[b] % q
                   for a in elements for b in elements), "ring isomorphism")

    return Job("desk/certify", ["certify", str(n), "--elements", ",".join(map(str, elements))],
               check)


def poly_job(rng, coeffs=None, p=None) -> Job:
    if coeffs is None:
        p = rng.choice(DESK_PRIMES)
        coeffs = _random_poly(rng, p, rng.randint(2, 6))
    text = _poly_text(coeffs)
    argv = ["poly", f"{text} mod {p}"] if rng.random() < 0.5 else ["poly", text, "--mod", str(p)]

    def check(payload):
        expect(payload["polynomial"]["coeffs"] == coeffs, "parsed coefficients")
        expect(payload["roots"] == [x for x in range(p) if orc.poly_eval_mod(coeffs, x, p) == 0],
               "roots by evaluation")
        report = payload["reducibility"]
        expect(report["roots"] == payload["roots"], "report roots")
        expect(report["criterion_root"] == bool(payload["roots"]), "root criterion")
        expect(report["verdict"] == ("has_root" if payload["roots"] else "rootless"), "verdict")
        expect(report["criterion_coeff_sum"] == (sum(coeffs) % p == 0), "coefficient sum")
        expect(payload["coefficient_sum"] == sum(coeffs) % p, "coefficient-sum map")

    return Job("desk/poly", argv, check)


def classify_job(rng) -> Job:
    n = rng.choice(DESK_MODULI)
    elements, _, _ = rng.choice(orc.subfields_by_closure(n))
    coeffs = _random_poly(rng, n, rng.randint(1, 3))
    argv = ["classify-roots", _poly_text(coeffs), "--mod", str(n),
            "--subfield", ",".join(map(str, elements))]

    def check(payload):
        roots = [x for x in range(n) if orc.poly_eval_mod(coeffs, x, n) == 0]
        inside = [r for r in roots if r in elements]
        alien = [r for r in roots if r not in elements]
        expect(payload["in_field_roots"] == inside and payload["alien_roots"] == alien,
               "root split")
        truth = "true" if inside else ("indeterminate" if alien else "false")
        expect(payload["truth"] == truth, "three-valued truth")

    return Job("desk/classify-roots", argv, check)


def _fmt_rat_matrix(rows) -> str:
    return ";".join(",".join(str(_fj(x)) for x in row) for row in rows)


def _stochastic(rng, dim: int):
    """Column-stochastic matrix with small denominators."""
    cols = []
    for _ in range(dim):
        weights = [rng.randint(0, 4) for _ in range(dim)]
        weights[rng.randrange(dim)] += 1
        cols.append([Fraction(w, sum(weights)) for w in weights])
    return [[cols[j][i] for j in range(dim)] for i in range(dim)]


def _relaxed(rng, dim: int):
    """Entries and column sums in [-1, 1], some entries negative."""
    while True:
        rows = [[Fraction(rng.randint(-3, 4), 8) for _ in range(dim)] for _ in range(dim)]
        sums = [sum(rows[i][j] for i in range(dim)) for j in range(dim)]
        if all(abs(s) <= 1 for s in sums) and any(x < 0 for r in rows for x in r):
            return rows


def markov_job(rng, relaxed: bool) -> Job:
    dim = rng.randint(2, 4)
    p = _relaxed(rng, dim) if relaxed else _stochastic(rng, dim)
    state = [Fraction(0)] * dim
    state[rng.randrange(dim)] = Fraction(1)
    steps = rng.randint(2, 5)
    argv = ["markov", f"--matrix={_fmt_rat_matrix(p)}",
            "--state=" + ",".join(str(_fj(x)) for x in state), "--steps", str(steps)]

    def check(payload):
        expect(payload["classification"]["kind"]
               == ("smarandache_markov" if relaxed else "classical_markov"), "matrix kind")
        x = state
        for got in payload["states"]:
            x = orc.rat_mat_vec(p, x)
            expect([Fraction(v) for v in got] == x, "state after a step")
        expect(len(payload["states"]) == steps, "step count")

    return Job(f"desk/markov/{'relaxed' if relaxed else 'classical'}", argv, check)


def _null_check(system, vectors, label):
    for v in vectors:
        expect(all(x == 0 for x in orc.rat_mat_vec(system, [Fraction(t) for t in v])), label)


def _low_rank_relaxed(rng, dim: int, nullity: int):
    """A = I - U V with U V of rank dim - nullity and A not an exchange
    matrix: the relaxed closed model with that many independent
    equilibria."""
    r = dim - nullity
    while True:
        u = [[Fraction(rng.randint(-2, 2), 4) for _ in range(r)] for _ in range(dim)]
        v = [[Fraction(rng.randint(-2, 2), 2) for _ in range(dim)] for _ in range(r)]
        m = orc.rat_mat_mul(u, v)
        a = [[(i == j) - m[i][j] for j in range(dim)] for i in range(dim)]
        if orc.rat_rank(m) == r and any(x < 0 for row in a for x in row):
            return a


def leontief_closed_job(rng, relaxed: bool, nullity: int = 0) -> Job:
    if nullity:
        dim = nullity + 1
        a = _low_rank_relaxed(rng, dim, nullity)
    else:
        dim = rng.randint(2, 4)
        a = _relaxed(rng, dim) if relaxed else _stochastic(rng, dim)
    argv = ["leontief", "--model", "closed", f"--matrix={_fmt_rat_matrix(a)}"]
    system = [[(i == j) - a[i][j] for j in range(dim)] for i in range(dim)]

    def check(payload):
        basis = payload["basis"]
        null_dim = dim - orc.rat_rank(system)
        expect(len(basis) == null_dim and orc.rat_rank(_frac_matrix(basis)) == null_dim
               if basis else null_dim == 0, "nullspace basis of I - A")
        _null_check(system, basis, "(I - A) p = 0")
        if payload["representative"] is not None:
            _null_check(system, [payload["representative"]], "(I - A) p = 0")
            expect(sum(Fraction(x) for x in payload["representative"]) == 1, "normalized")
        if payload["best"] is not None:
            _null_check(system, [payload["best"]], "(I - A) p = 0 for the best solution")
        expect(payload["no_equilibrium"] == (relaxed and null_dim == 0), "no-equilibrium flag")

    label = "relaxed" if relaxed else "classical"
    return Job(f"desk/leontief-closed/{label}{nullity or ''}", argv, check)


def leontief_open_job(rng, relaxed: bool) -> Job:
    dim = rng.randint(2, 4)
    if relaxed:
        c = _relaxed(rng, dim)
        demand = [Fraction(rng.randint(-5, 20)) for _ in range(dim)]
    else:
        c = [[Fraction(rng.randint(0, 3), 10) for _ in range(dim)] for _ in range(dim)]
        demand = [Fraction(rng.randint(1, 20)) for _ in range(dim)]
    argv = ["leontief", "--model", "open", f"--matrix={_fmt_rat_matrix(c)}",
            "--demand=" + ",".join(str(_fj(x)) for x in demand)]
    system = [[(i == j) - c[i][j] for j in range(dim)] for i in range(dim)]

    def check(payload):
        singular = orc.rat_rank(system) < dim
        expect((payload["solution"] is None) == singular, "solvable iff I - C invertible")
        if not singular:
            x = [Fraction(v) for v in payload["solution"]]
            expect(orc.rat_mat_vec(system, x) == demand, "(I - C) x = d")

    return Job(f"desk/leontief-open/{'relaxed' if relaxed else 'classical'}", argv, check)


def _lattice_tables(rng):
    choice = rng.randrange(4)
    if choice == 0:
        return {"kind": "chain", "size": rng.randint(2, 6)}
    if choice == 1:  # diamond M_3
        top = 4
        join = [[a if a == b else (b if a == 0 else (a if b == 0 else top))
                 for b in range(5)] for a in range(5)]
        meet = [[a if a == b else (b if a == top else (a if b == top else 0))
                 for b in range(5)] for a in range(5)]
        return {"join": join, "meet": meet}
    # Boolean lattice of subsets of a 2- or 3-set
    bits = 2 if choice == 2 else 3
    size = 1 << bits
    return {"join": [[a | b for b in range(size)] for a in range(size)],
            "meet": [[a & b for b in range(size)] for a in range(size)]}


def lattice_job(rng) -> Job:
    data = _lattice_tables(rng)
    if "kind" in data:
        m = data["size"]
        join = [[max(a, b) for b in range(m)] for a in range(m)]
        meet = [[min(a, b) for b in range(m)] for a in range(m)]
    else:
        join, meet = data["join"], data["meet"]
    argv = ["semivec", "--action", "lattice-check", "--lattice", json.dumps(data)]

    def check(payload):
        expect(payload["ok"] == orc.is_bounded_lattice(join, meet), "lattice verdict")

    return Job("desk/lattice-check", argv, check)


# Worked examples of the monograph, as CLI jobs.
def worked_examples(rng) -> list[Job]:
    jobs = [poly_job(rng, [1, 0, 1], 5), poly_job(rng, [1, 1, 2, 2], 3),
            poly_job(rng, [2, 4, 0, 0, 0, 2, 0, 2], 7)]
    gens = [(1, 1), (2, 1), (3, 0)]
    jobs.append(Job("desk/semivec", ["semivec", "--action", "independent", "--vectors",
                                     _fmt_vectors(gens)],
                    lambda payload: check_semivec("independent", "nonneg", gens, None, None,
                                                  payload)))
    basis = [(2,), (1,), (3,)]
    jobs.append(Job("desk/semivec", ["semivec", "--action", "enumerate", "--semifield",
                                     "chain:4", "--vectors", "2;1;3", "--target", "3",
                                     "--scalars", "0,3"],
                    lambda payload: check_semivec("enumerate", "chain", basis, (3,), [0, 3],
                                                  payload)))
    return jobs


DESK_KINDS = [
    (subfields_job, 3), (certify_job, 3), (poly_job, 3), (classify_job, 3),
    (lambda rng: markov_job(rng, False), 2), (lambda rng: markov_job(rng, True), 2),
    (lambda rng: leontief_closed_job(rng, False), 2),
    (lambda rng: leontief_closed_job(rng, True), 2),
    (lambda rng: leontief_open_job(rng, False), 2),
    (lambda rng: leontief_open_job(rng, True), 2),
    (lattice_job, 2),
]


class Desk:
    name = "desk"

    def round(self, rng, files: Files) -> list[Job]:
        jobs = worked_examples(rng)
        for make, count in DESK_KINDS:
            jobs += [make(rng) for _ in range(count)]
        jobs.append(spectral_job(rng, 6, 3, 3, True, "desk/spectral"))
        jobs.append(spectral_job(rng, 7, 7, 3, False, "desk/spectral"))
        jobs.append(rep_job(rng, files, "C2", "plain", "desk/rep"))
        jobs.append(rep_job(rng, files, "C3", "plain", "desk/rep", decompose=False))
        # the tail class: the best-solution sweep over 5^3 weightings
        jobs.append(leontief_closed_job(rng, True, nullity=3))
        jobs.append(semivec_job(rng, SemivecSpec("span", "chain", 4, 3, 2, True)))
        jobs.append(semivec_job(rng, SemivecSpec("span", "nonneg", 0, 3, 2, False, (4, 60))))
        rng.shuffle(jobs)
        return jobs

    def warmup(self, rng, files: Files) -> list[Job]:
        return [subfields_job(rng), poly_job(rng), markov_job(rng, True),
                leontief_closed_job(rng, False), lattice_job(rng)]


WORKLOADS = {w.name: w for w in (Spectral(), Rep(), Semivec(), Desk())}
