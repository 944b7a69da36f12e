"""Sha256 digests over the exact output of fixed sets of CLI calls.

EXPECTED_SHA256 covers [argv, exit code, stdout] of every call of _calls,
in order: the worked examples (plain and --pretty), the regular
representations of every group of order 2-8 checked left against right
and decomposed on both sides, their subgroup lists, both again inside
G x {0,1} for the groups of order 2-6, representations asked for at
elements that are not idempotents, lattice checks on chains, M3, N5 and
tables that are no lattice, and a relaxed closed Leontief model of
nullity 3.  SPECTRAL_SHA256 covers spectral calls (plain and --pretty)
at dimensions 3-8 over subfields of Z_6, Z_10 and Z_15 and over prime
fields, on self-adjoint diagonalizable, general and self-adjoint
non-diagonalizable matrices.  SEMIVEC_SHA256 covers semivec span,
enumerate, independent and spans calls (plain and --pretty) over the
chains C4-C8 and the nonnegative integers, with and without --scalars.
DESK_SHA256 covers the one-answer commands whose records none of the
others print (plain and --pretty): subfields, certify (accepted and
rejected), poly over a prime and a composite modulus, classify-roots,
classical and relaxed markov runs, and closed and open Leontief models
on every path.  A change that alters any of these bytes must change the digest on
purpose and say why.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from smaralg.cli import main

EXPECTED_SHA256 = "7984f135a7614ca181fef8d3e6192ec6a8bfd92f99af5be688ddf987c1c0143c"
SPECTRAL_SHA256 = "7f7804e5ec83d9a9572294219a9d120bdbaac23cd60de1336290011b83988688"
SEMIVEC_SHA256 = "426c6542c13a405512f451abc4ff43c92663b3700a5b3c7ab3bb35594458e2a4"
DESK_SHA256 = "64e7158a48892fa64c4bae256b1b4a1ee5d436ef99e5df8a164e68beb24392f7"


def _cayley(generators, op):
    """Sorted closure of the generators under op, as a table of indices."""
    elements = set(generators)
    frontier = list(generators)
    while frontier:
        fresh = {op(x, y) for x in frontier for y in elements} | {
            op(y, x) for x in frontier for y in elements
        }
        frontier = sorted(fresh - elements)
        elements |= fresh
    elements = sorted(elements)
    index = {x: i for i, x in enumerate(elements)}
    return [[index[op(x, y)] for y in elements] for x in elements]


def _compose(f, g):
    return tuple(f[i] for i in g)


def _quaternion_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _abelian(*orders):
    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    units = [tuple(int(i == j) for i in range(len(orders))) for j in range(len(orders))]
    return _cayley(units, add)


# every group of order 2-8, up to isomorphism
GROUPS = {
    **{f"C{n}": _abelian(n) for n in range(2, 9)},
    "C2xC2": _abelian(2, 2),
    "C2xC4": _abelian(2, 4),
    "C2^3": _abelian(2, 2, 2),
    "S3": _cayley([(1, 0, 2), (1, 2, 0)], _compose),
    "D4": _cayley([(1, 2, 3, 0), (0, 3, 2, 1)], _compose),
    "Q8": _cayley([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion_mul),
}


def _with_zero_one(table):
    """G x {0,1} with {0,1} multiplicative: (g, a)(h, b) = (gh, ab)."""
    return [
        [2 * table[g][h] + (a & b) for h, b in itertools.product(range(len(table)), (0, 1))]
        for g, a in itertools.product(range(len(table)), (0, 1))
    ]


def _identity(table):
    return next(e for e, row in enumerate(table) if row == list(range(len(table))))


def _chain(m):
    return [[max(a, b) for b in range(m)] for a in range(m)], [
        [min(a, b) for b in range(m)] for a in range(m)
    ]


_M3 = (  # 0 bottom, 4 top, atoms 1, 2, 3
    [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
    [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2], [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]],
)
_N5 = (  # 0 < 1 < 2 < 4 and 0 < 3 < 4
    [[0, 1, 2, 3, 4], [1, 1, 2, 4, 4], [2, 2, 2, 4, 4], [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
    [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 2, 0, 2], [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]],
)
_MAX2, _MIN2 = _chain(2)
_NOT_LATTICES = [
    ([[0, 1], [1, 0]], _MIN2),  # join not idempotent
    ([[0, 0], [1, 1]], _MIN2),  # join not commutative
    ([[0, 1, 0], [1, 1, 2], [0, 2, 2]], _chain(3)[1]),  # join not associative
    (_MAX2, [[1, 0], [0, 1]]),  # meet not idempotent
    (_MAX2, _MAX2),  # no absorption
    (_chain(3)[0], [[0, 0, 0], [0, 1, 0], [0, 0, 2]]),  # no absorption
]


def _calls():
    """(argv, {file name: JSON}) for every call, in digest order."""
    yield ["golden"], {}
    yield ["golden", "--pretty"], {}
    for name, table in GROUPS.items():
        for host, raw in (("plain", table), ("x01", _with_zero_one(table))):
            path = f"{name}-{host}.json"
            files = {path: {"table": raw}}
            if host == "x01" and len(raw) > 12:
                continue  # past the --all-subgroups cap, and slow to decompose
            for side in ("left", "right"):
                yield [
                    "rep", "--file", path, "--identity", str(_identity(raw)), "--side", side,
                    "--check-lr", "--decompose",
                ], files
            yield ["semigroup", "--file", path, "--all-subgroups"], files
    files = {"C4-x01.json": {"table": _with_zero_one(GROUPS["C4"])}}
    for e in ("0", "3", "8", "-1"):
        yield ["rep", "--file", "C4-x01.json", "--identity", e], files
    lattices = [{"kind": "chain", "size": m} for m in (1, 2, 5)]
    lattices += [{"join": j, "meet": m} for j, m in [_chain(4), _M3, _N5, *_NOT_LATTICES]]
    for lattice in lattices:
        yield ["semivec", "--action", "lattice-check", "--lattice", json.dumps(lattice)], {}
    yield [
        "leontief", "--model", "closed", "--matrix", "1,0,0,0;0,1,0,0;0,0,1,0;1,-1,2,0",
    ], {}


def test_cli_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    for argv, files in _calls():
        for path, data in files.items():
            (tmp_path / path).write_text(json.dumps(data))
        real = [str(tmp_path / a) if a in files else a for a in argv]
        code = main(real)
        out = capsys.readouterr().out
        digest.update(json.dumps([argv, code, out]).encode() + b"\n")
    assert digest.hexdigest() == EXPECTED_SHA256


# (n, q): the order-q subfields of Z_6, Z_10 and Z_15, and prime fields
SPECTRAL_FIELDS = [(6, 2), (6, 3), (10, 2), (10, 5), (15, 3), (15, 5), (5, 5), (7, 7),
                   (11, 11), (13, 13)]


def _mul_mod(a, b, q):
    return [[sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)] for row in a]


def _orthogonal(rng, q, dim):
    """Q with Q Q^T = I over Z_q: a permutation matrix for q = 2, else a
    product of two reflections I - 2 v v^T / (v^T v)."""
    perm = rng.sample(range(dim), dim)
    qm = [[int(j == perm[i]) for j in range(dim)] for i in range(dim)]
    for _ in range(2 if q > 2 else 0):
        v = [0] * dim
        while sum(x * x for x in v) % q == 0:
            v = [rng.randrange(q) for _ in range(dim)]
        c = 2 * pow(sum(x * x for x in v), -1, q)
        reflection = [[(int(i == j) - c * v[i] * v[j]) % q for j in range(dim)] for i in range(dim)]
        qm = _mul_mod(qm, reflection, q)
    return qm


def _defective_block(q):
    """A symmetric 2 x 2 matrix over Z_q with no eigenbasis: nilpotent
    where -1 is a square (q = 2 or q = 1 mod 4), else with a characteristic
    polynomial t^2 - c t - 1 that has no root."""
    if q == 2:
        return [[1, 1], [1, 1]]
    i = next((i for i in range(q) if i * i % q == q - 1), None)
    if i is not None:
        return [[1, i], [i, q - 1]]
    squares = {x * x % q for x in range(q)}
    c = next(c for c in range(q) if (c * c + 4) % q not in squares)
    return [[0, 1], [1, c]]


def _spectral_matrix(rng, q, dim, kind):
    """A matrix over Z_q of the given kind; the self-adjoint ones are
    Q B Q^T for an orthogonal Q and a block-diagonal B."""
    if kind == "general":
        a = [[rng.randrange(q) for _ in range(dim)] for _ in range(dim)]
        a[1][0] = (a[0][1] + 1) % q  # never symmetric
        return a
    b = [[rng.randrange(q) if i == j else 0 for j in range(dim)] for i in range(dim)]
    if kind == "defective":
        for i, row in enumerate(_defective_block(q)):
            b[i][:2] = row
    qm = _orthogonal(rng, q, dim)
    return _mul_mod(_mul_mod(qm, b, q), [list(col) for col in zip(*qm)], q)


def _spectral_calls():
    rng = random.Random(2003)
    for dim in range(3, 9):
        for n, q in SPECTRAL_FIELDS:
            elements = sorted({k * (n // q) % n for k in range(q)})
            e = next(x for x in elements if x and x * x % n == x)
            for kind in ("self_adjoint", "general", "defective"):
                prime = _spectral_matrix(rng, q, dim, kind)
                data = {"n": n, "subfield": elements, "rows": dim, "cols": dim,
                        "entries": [x * e % n for row in prime for x in row]}
                argv = ["spectral", "--matrix", json.dumps(data, separators=(",", ":"))]
                yield argv
                yield argv + ["--pretty"]


def test_spectral_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    outcomes = set()
    for argv in _spectral_calls():
        code = main(argv)
        out = capsys.readouterr().out
        digest.update(json.dumps([argv, code, out]).encode() + b"\n")
        if "--pretty" not in argv:
            payload = json.loads(out)["payload"]
            if payload.get("reason") == "not_diagonalizable":
                outcomes.add(json.loads(payload["message"])["reason"])
            else:
                outcomes.add("self_adjoint" if "spectral" in payload else "general")
    assert outcomes == {
        "self_adjoint", "general", "defective_eigenvalue", "char_poly_does_not_split_over_k"
    }
    assert digest.hexdigest() == SPECTRAL_SHA256


def _semivec_calls():
    """Three problems per semifield, each asked as span, enumerate,
    independent and spans; every family has at least one tuple.  The
    first two targets are combinations of the tuples, the third is any
    tuple, asked with a scalar subset."""
    rng = random.Random(1983)
    semifields = [(f"chain:{m}", 0, m - 1) for m in range(4, 9)] + [("nonneg", 1, 4)]
    for semifield, low, top in semifields:
        for problem in range(3):
            d = rng.randint(1, 3)
            gens = [[rng.randint(low, top) for _ in range(d)] for _ in range(rng.randint(1, 4))]
            if problem < 2:
                coeffs = [rng.randint(0, top) for _ in gens]
                join, meet = (max, min) if low == 0 else (sum, int.__mul__)
                target = [join(map(meet, coeffs, column)) for column in zip(*gens)]
            else:
                target = [rng.randint(0, top) for _ in range(d)]
            common = ["semivec", "--semifield", semifield]
            if problem == 2:
                common += ["--scalars", ",".join(map(str, rng.sample(range(top + 1), 3)))]
            vectors = ";".join(",".join(map(str, g)) for g in gens)
            if low == 0:  # a chain spans its carrier with 1-tuples
                space = ["--space", "carrier"]
                singles = ";".join(str(rng.randint(0, top)) for _ in range(rng.randint(1, 4)))
            else:
                space, singles = ["--space", f"dim:{d}"], vectors
            for action in ("span", "enumerate"):
                yield common + ["--action", action, "--vectors", vectors,
                                "--target", ",".join(map(str, target))]
            yield common + ["--action", "independent", "--vectors", vectors]
            yield common + ["--action", "spans", "--vectors", singles] + space


def test_semivec_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _semivec_calls():
        for call in (argv, argv + ["--pretty"]):
            code = main(call)
            out = capsys.readouterr().out
            digest.update(json.dumps([call, code, out]).encode() + b"\n")
    assert digest.hexdigest() == SEMIVEC_SHA256


DESK_CALLS = [
    ["subfields", "30"],
    ["subfields", "4"],  # no proper subfield
    ["certify", "6", "--elements", "0,3"],
    ["certify", "6", "--elements", "0,2"],  # not multiplicatively closed
    ["certify", "10", "--elements", "0,1,5"],  # not additively closed
    ["poly", "x^2+1 mod 5"],
    ["poly", "x^5+1 mod 5"],
    ["poly", "x^3+x+1 mod 2"],  # rootless
    ["poly", "x^2+3x+2", "--mod", "6"],
    ["classify-roots", "x^2+3x+2", "--mod", "6", "--subfield", "0,2,4"],
    ["classify-roots", "x^2+5", "--mod", "6", "--subfield", "0,3"],  # indeterminate
    ["classify-roots", "x^2+2", "--mod", "10", "--subfield", "0,2,4,6,8"],  # false
    ["markov", "--matrix", "1/2,3/10;1/2,7/10", "--state", "1,0", "--steps", "3"],
    ["markov", "--matrix", "1/2,-1/4;1/2,1/2", "--state", "1,0", "--steps", "2"],
    ["markov", "--matrix", "1/2,3/10;1/2,7/10", "--state", "1,0", "--steps", "0"],
    ["leontief", "--model", "closed", "--matrix", "1/2,1/3;1/2,2/3"],  # nullity 1
    ["leontief", "--model", "closed", "--matrix", "1,0;0,1"],  # nullity 2
    ["leontief", "--model", "closed", "--matrix", "1/2,1/3;1/4,1/5"],  # no equilibrium
    ["leontief", "--model", "open", "--matrix", "1/2,1/4;1/5,1/3", "--demand", "1,2"],
    ["leontief", "--model", "open", "--matrix", "1/2,1;1,1/2", "--demand", "1,2"],
    ["leontief", "--model", "open", "--matrix", "1,0;0,1", "--demand", "1,2"],  # singular
]


def test_desk_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for argv in DESK_CALLS:
        for call in (argv, argv + ["--pretty"]):
            code = main(call)
            out = capsys.readouterr().out
            digest.update(json.dumps([call, code, out]).encode() + b"\n")
    assert digest.hexdigest() == DESK_SHA256
