"""Tests of the benchmark's oracles and checks on hand-worked cases.

    python3 -m pytest bench/test_oracles.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import oracles as orc
import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"


def test_subfield_with_identity_four():
    assert orc.field_identity(6, [0, 2, 4]) == 4
    assert orc.field_identity(6, [0, 3]) == 3
    assert orc.field_identity(6, [0, 1, 2]) is None


def test_subfields_of_worked_moduli():
    assert orc.subfields_by_closure(6) == [((0, 3), 3, 2), ((0, 2, 4), 4, 3)]
    assert orc.subfields_by_closure(12) == [((0, 4, 8), 4, 3)]
    assert orc.subfields_by_closure(15) == [((0, 5, 10), 10, 3), ((0, 3, 6, 9, 12), 6, 5)]
    assert orc.subfields_by_closure(7) == []


def test_subfield_of_z66_order_11():
    elements, e = wl.subfield_of(66, 11)
    assert e == 12 and elements == list(range(0, 66, 6))


def test_determinants():
    assert orc.bareiss_det([[2, 1], [1, 3]]) == 5
    assert orc.bareiss_det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert orc.bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    rng = random.Random(0)
    for _ in range(50):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        leibniz = sum(
            (-1) ** sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4))
            * m[0][p[0]] * m[1][p[1]] * m[2][p[2]] * m[3][p[3]]
            for p in itertools.permutations(range(4)))
        assert orc.bareiss_det(m) == leibniz
        assert orc.det_mod(m, 7) == leibniz % 7


def test_rank_and_multiplicity_mod():
    assert orc.rank_mod([[1, 2], [2, 4]], 5) == 1
    assert orc.rank_mod([[1, 1], [1, 2]], 5) == 2
    assert orc.rank_mod([[1, 1], [1, 2], [0, 0]], 2) == 2
    # (t - 1)^2 (t - 2) = t^3 - 4t^2 + 5t - 2 over Z_5
    cubic = [-2 % 5, 5 % 5, -4 % 5, 1]
    assert orc.root_multiplicity_mod(cubic, 1, 5) == 2
    assert orc.root_multiplicity_mod(cubic, 2, 5) == 1
    assert orc.root_multiplicity_mod(cubic, 3, 5) == 0


@pytest.mark.parametrize("name, count", [
    ("C2", 2), ("C3", 2), ("C4", 3), ("C5", 2), ("C6", 4), ("C7", 2), ("C8", 4),
    ("C2xC2", 5), ("C2xC4", 8), ("C2^3", 16), ("S3", 6), ("D4", 10), ("Q8", 6),
])
def test_subgroup_counts(name, count):
    table = wl.GROUPS[name]
    assert len(orc.subgroups_of(table, 0, range(len(table)))) == count


@pytest.mark.parametrize("name, dims", [
    ("C2", [1, 1]), ("C3", [1, 2]), ("C4", [1, 1, 2]), ("C5", [1, 4]),
    ("C6", [1, 1, 2, 2]), ("C7", [1, 6]), ("C8", [1, 1, 2, 4]),
    ("C2xC2", [1, 1, 1, 1]), ("C2xC4", [1, 1, 1, 1, 2, 2]), ("C2^3", [1] * 8),
])
def test_abelian_wedderburn_dimensions(name, dims):
    table = wl.GROUPS[name]
    assert orc.is_abelian(table, range(len(table)))
    assert orc.wedderburn_dims_abelian(table, 0, range(len(table))) == dims


@pytest.mark.parametrize("name", ["S3", "D4", "Q8"])
def test_nonabelian_wedderburn_dimensions(name):
    # The dimensions add up to |G|, and the 1-dimensional ones are the
    # characters of G / [G, G], which here is an elementary 2-group.
    table = wl.GROUPS[name]
    order = len(table)
    assert not orc.is_abelian(table, range(order))
    inverse = {x: next(y for y in range(order) if table[x][y] == 0) for x in range(order)}
    commutators = {table[table[x][y]][table[inverse[x]][inverse[y]]]
                   for x in range(order) for y in range(order)}
    derived = orc.generated_subgroup(table, 0, commutators)
    dims = orc.WEDDERBURN_NONABELIAN[name]
    assert sum(dims) == order
    assert dims.count(1) == order // len(derived)
    assert {"S3": [1, 1, 2, 2], "D4": [1, 1, 1, 1, 2, 2], "Q8": [1, 1, 1, 1, 4]}[name] == dims


def test_chain_worked_example():
    # C_4 with basis a=2, b=1, 1=3 over the scalars {0, 3}: the top has
    # four representations and a has two
    basis = [(2,), (1,), (3,)]
    assert orc.chain_count((3,), basis, [0, 3]) == 4
    assert orc.chain_count((2,), basis, [0, 3]) == 2
    assert orc.chain_principal((3,), basis, [0, 3]) == (True, (3, 3, 3))


def test_nonneg_worked_example():
    gens = [(1, 1), (2, 1), (3, 0)]
    assert not orc.in_span("nonneg", (1, 3), gens, None)
    assert orc.nonneg_count((1, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1


def test_semivector_oracles_match_brute_force():
    rng = random.Random(3)
    for _ in range(200):
        m, k, d = rng.randint(2, 5), rng.randint(1, 4), rng.randint(1, 3)
        gens = [tuple(rng.randrange(m) for _ in range(d)) for _ in range(k)]
        target = tuple(rng.randrange(m) for _ in range(d))
        scalars = sorted(rng.sample(range(m), rng.randint(1, m)))
        brute = sum(orc.combine("chain", c, gens, d) == target
                    for c in itertools.product(scalars, repeat=k))
        assert orc.chain_count(target, gens, scalars) == brute
        assert orc.in_span("chain", target, gens, scalars) == (brute > 0)
    for _ in range(100):
        k, d = rng.randint(1, 3), rng.randint(1, 3)
        gens = [tuple(rng.randint(1, 3) for _ in range(d)) for _ in range(k)]
        target = tuple(rng.randint(0, 8) for _ in range(d))
        brute = sum(orc.combine("nonneg", c, gens, d) == target
                    for c in itertools.product(range(9), repeat=k))
        assert orc.nonneg_count(target, gens) == brute


def test_lattices():
    chain = [[max(a, b) for b in range(3)] for a in range(3)]
    meet = [[min(a, b) for b in range(3)] for a in range(3)]
    assert orc.is_bounded_lattice(chain, meet)
    assert not orc.is_bounded_lattice(chain, chain)


def test_generated_matrices():
    rng = random.Random(1)
    for q in (3, 5, 7, 11, 13):
        for dim in (3, 5, 8):
            a = wl.self_adjoint_matrix(rng, q, dim)
            assert a == [list(r) for r in zip(*a)]
            g = wl.general_matrix(rng, q, dim)
            assert g != [list(r) for r in zip(*g)]
    g = wl.general_matrix(rng, 2, 3)
    assert g[0][1] != g[1][0]


@pytest.mark.parametrize("group, host", [("S3", "T3"), ("C2", "T3"), ("C4", "semilattice"),
                                         ("Q8", "plain")])
def test_embedded_group_sits_at_its_idempotent(group, host):
    emb = wl.embed(random.Random(2), group, host)
    t = emb.table
    assert t[emb.identity][emb.identity] == emb.identity
    assert sorted(wl.maximal_subgroup(t, emb.identity)) == sorted(emb.elements)
    assert len(emb.elements) == len(wl.GROUPS[group])
    if host == "semilattice" or group == "C2":
        assert any(t[x][emb.identity] != x for x in range(len(t)))  # not the table identity


def _run_cli(argv):
    sys.path.insert(0, str(SRC))
    from smaralg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())["payload"]


def _bump_zn(p):
    p["eigen_system"]["char"]["zn_rendition"][1] += 1


def _bump_eigenvector(p):
    v = p["eigen_system"]["s_values"][0]["basis"][0]
    v[0] = v[1]


def _swap_blocks(p):
    blocks = p["invariant_blocks"]
    blocks[0]["basis"] = blocks[-1]["basis"]


def _drop_subgroup(p):
    p["subgroups"].pop()


def _drop_representation(p):
    p["representations"].pop()
    p["count"] -= 1


def _swap_to_prime(p):
    keys = sorted(p["to_prime"], key=int)
    a, b = keys[1], keys[-1]
    p["to_prime"][a], p["to_prime"][b] = p["to_prime"][b], p["to_prime"][a]


def _bump_state(p):
    p["states"][-1][0] = "7/5"


def test_checks_accept_real_output_and_reject_a_wrong_one(tmp_path):
    rng = random.Random(4)
    files = wl.Files(tmp_path)
    cases = [
        (wl.spectral_job(rng, 6, 3, 3, True, "t"), _bump_zn),
        (wl.spectral_job(rng, 66, 11, 4, True, "t"), _bump_eigenvector),
        (wl.rep_job(rng, files, "S3", "semilattice", "t"), _swap_blocks),
        (wl.subgroups_job(rng, files, "C4", "semilattice", "t"), _drop_subgroup),
        (wl.semivec_job(rng, wl.SemivecSpec("enumerate", "chain", 4, 3, 2, True)),
         _drop_representation),
        (wl.certify_job(rng), _swap_to_prime),
        (wl.markov_job(rng, True), _bump_state),
    ]
    for job, tamper in cases:
        payload = _run_cli(job.argv)
        job.check(payload)
        tamper(payload)
        with pytest.raises(wl.CheckFailed):
            job.check(payload)
