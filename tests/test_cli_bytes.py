"""One sha256 over the exact output of a fixed set of CLI calls.

The digest covers [argv, exit code, stdout] of every call below, in
order: the worked examples (plain and --pretty), the regular
representations of every group of order 2-8 checked left against right
and decomposed on both sides, their subgroup lists, both again inside
G x {0,1} for the groups of order 2-6, representations asked for at
elements that are not idempotents, lattice checks on chains, M3, N5 and
tables that are no lattice, and a relaxed closed Leontief model of
nullity 3.  A change that alters
any of these bytes must change EXPECTED_SHA256 on purpose and say why.
"""

from __future__ import annotations

import hashlib
import itertools
import json

from smaralg.cli import main

EXPECTED_SHA256 = "7984f135a7614ca181fef8d3e6192ec6a8bfd92f99af5be688ddf987c1c0143c"


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
