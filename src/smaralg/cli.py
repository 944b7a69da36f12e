"""Batch command-line front door.

Every subcommand emits one CommandReport as JSON on stdout:
{"status": "ok"|"error", "payload": ..., "citations": [...]}, with stable
key order so output is byte-deterministic.  Exit codes: 0 ok, 1 domain
error, 2 usage error, 3 internal error (a re-verification or other
internal invariant failed: a bug, not a fault of the input).  --pretty
adds a human-readable rendering instead of the compact JSON.

Importing this module loads no layer module: each handler imports the
layers it uses when it runs, so a process pays only for the layers of
its own subcommand (check with ``python -X importtime -c "import
smaralg.cli"``).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import json_form

CITATIONS = {
    "subfields": ["Def 2.4.1", "Thm 2.9.9"],
    "certify": ["Def 2.4.1"],
    "poly": ["Results 1.6.1", "Thm 1.6.1", "Thm 1.6.3", "Thm 1.6.4"],
    "spectral": ["Def 2.4.4", "Thm 1.6.6", "S-Spectral Theorem (2.4)"],
    "classify-roots": ["3.1 (three-valued root classification)"],
    "semigroup": ["2.6 (S-semigroup subgroups)"],
    "rep": ["1.8 (regular representations)", "2.6 (S-representations)", "Thm 2.6.1"],
    "semivec": ["Def 1.9.5-1.9.9", "Thm 1.9.10", "Thm 1.9.13", "Thm 1.9.15"],
    "markov": ["1.10 (transition matrices)", "3.2 (S-transition matrices)"],
    "leontief": ["3.3 (Leontief closed/open models)"],
    "golden": [],
}


class DomainError(Exception):
    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


def _print_report(args, payload, citations, pretty_text=None, status="ok") -> None:
    report = {"status": status, "payload": payload, "citations": citations}
    if getattr(args, "pretty", False) and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(" ", "").split(",") if tok != ""]


def _parse_rat_matrix(text: str) -> ratmat.Matrix:
    from . import ratmat
    rows = [row for row in text.strip().split(";") if row.strip()]
    return ratmat.mat(
        [[ratmat.frac_from_json(tok.strip()) for tok in row.split(",")] for row in rows]
    )


def _parse_rat_vector(text: str) -> ratmat.Vector:
    from . import ratmat
    return ratmat.vec([ratmat.frac_from_json(tok.strip()) for tok in text.split(",")])


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _checked(value, shape, path: str):
    """Return the JSON ``value`` if it has ``shape``, else raise ValueError
    naming the first bad path.  A shape is a type (``int`` never matches a
    bool), ``[s]`` for a list of ``s``, or ``{key: s}`` for an object with
    at least those keys."""
    expected = type(shape) if isinstance(shape, (list, dict)) else shape
    if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
        raise ValueError(f"{path} must be {expected.__name__}, not {type(value).__name__}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _checked(item, shape[0], f"{path}[{i}]")
    elif isinstance(shape, dict):
        for key, sub in shape.items():
            if key not in value:
                raise ValueError(f"{path} needs the key {key!r}")
            _checked(value[key], sub, f"{path}.{key}")
    return value


def _matrix_from_args(args) -> ratmat.Matrix:
    from . import ratmat
    if getattr(args, "file", None):
        if not args.file.endswith(".json"):
            raise DomainError("bad_file", "matrix files must be .json")
        data = _load_json(args.file)
        if isinstance(data, dict):  # {"entries": rows} or the bare rows
            data = _checked(data, {"entries": [[object]]}, "matrix")["entries"]
        return ratmat.matrix_from_json(_checked(data, [[object]], "matrix"))
    if getattr(args, "matrix", None):
        return _parse_rat_matrix(args.matrix)
    raise DomainError("missing_input", "provide --matrix or --file")


_SUBFIELD_MATRIX = {"n": int, "subfield": [int], "rows": int, "cols": int, "entries": [int]}


def _subfield_matrix_from_args(args) -> linalg.SubfieldMatrix:
    from . import linalg, ringcore
    data = _load_json(args.file) if args.file else json.loads(args.matrix)
    data = _checked(data, _SUBFIELD_MATRIX, "matrix")
    k = ringcore.subfield_from_elements(data["n"], data["subfield"])
    return linalg.SubfieldMatrix(
        k=k, rows=data["rows"], cols=data["cols"], entries=tuple(data["entries"])
    )


def _semigroup_table_from_args(args) -> semigroup.SemigroupTable:
    from . import semigroup
    path = Path(args.file)
    if path.suffix == ".csv":
        raw = [
            [int(tok) for tok in line.split(",")]
            for line in path.read_text().strip().splitlines()
            if line.strip()
        ]
    else:
        raw = _checked(_load_json(args.file), {"table": object}, "file")["table"]
    try:
        return semigroup.validate_table(raw)
    except semigroup.TableError as exc:
        raise DomainError("invalid_table", str(exc)) from exc


# --- subcommand handlers ---


def cmd_subfields(args):
    from . import ringcore
    fields = ringcore.find_subfields(args.n)
    payload = [s.to_json() for s in fields]
    pretty = "\n".join(
        f"Z_{args.n}: elements {s.elements} identity {s.identity} ~ Z_{s.prime_order}"
        for s in fields
    ) or f"Z_{args.n}: no proper subfields"
    _print_report(args, payload, CITATIONS["subfields"], pretty)
    return 0


def cmd_certify(args):
    from . import ringcore
    try:
        sf = ringcore.certify_subfield(args.n, _parse_int_list(args.elements))
    except ringcore.SubfieldRejection as exc:
        raise DomainError(exc.reason, exc.detail) from exc
    payload = sf.to_json()
    payload["to_prime"] = {str(a): sf.to_prime(a) for a in sf.elements}
    _print_report(args, payload, CITATIONS["certify"],
                  f"field with identity {sf.identity}, isomorphic to Z_{sf.prime_order}")
    return 0


def cmd_poly(args):
    from . import polylab, ringcore
    p = polylab.parse_poly(args.expr, args.mod)
    payload = {"polynomial": p.to_json()}
    if ringcore._is_prime(p.n):
        report = polylab.reducibility_report(p)
        payload["roots"] = list(report.roots)
        payload["reducibility"] = report.to_json()
        payload["coefficient_sum"] = polylab.coeff_sum_hom(p)
    else:
        payload["roots"] = polylab.roots_in(p, range(p.n))
    pretty = f"{p} over Z_{p.n}: roots {payload['roots']}"
    _print_report(args, payload, CITATIONS["poly"], pretty)
    return 0


def cmd_spectral(args):
    from . import linalg
    a = _subfield_matrix_from_args(args)
    es = linalg.eigen_system(a)
    payload = {"eigen_system": es.to_json(), "self_adjoint": linalg.self_adjoint_check(a)}
    if payload["self_adjoint"]:
        result = linalg._spectral_from_eigen(es)
        if isinstance(result, linalg.SpectralDiagnostic):
            raise DomainError("not_diagonalizable", json.dumps(result.to_json(), sort_keys=True))
        payload["spectral"] = result.to_json()
    svals = ", ".join(
        f"{ev.value} (x{ev.algebraic_multiplicity})" for ev in es.s_values
    )
    _print_report(args, payload, CITATIONS["spectral"], f"s-values: {svals}")
    return 0


def cmd_classify_roots(args):
    from . import polylab, ringcore
    k = ringcore.subfield_from_elements(args.mod, _parse_int_list(args.subfield))
    p = polylab.parse_poly(args.expr, args.mod)
    cls = polylab.neutrosophic_classify(p, k)
    _print_report(args, cls.to_json(), CITATIONS["classify-roots"],
                  f"{p} over Z_{p.n} rel {k.elements}: {cls.truth.value}")
    return 0


def cmd_semigroup(args):
    from . import semigroup
    table = _semigroup_table_from_args(args)
    subs = semigroup.find_subgroups(table, all_subgroups=args.all_subgroups)
    payload = {
        "order": table.order,
        "idempotents": table.idempotents(),
        "subgroups": [s.to_json() for s in subs],
    }
    pretty = "\n".join(
        f"subgroup at {s.identity}: {s.elements}" for s in subs
    )
    _print_report(args, payload, CITATIONS["semigroup"], pretty)
    return 0


def cmd_rep(args):
    from . import semigroup
    from .semigroup import Side
    table = _semigroup_table_from_args(args)
    if args.identity not in table.idempotents():
        raise DomainError("no_subgroup", f"no maximal subgroup at idempotent {args.identity}")
    record = semigroup.maximal_subgroup_at(table, args.identity)
    side = Side.LEFT if args.side == "left" else Side.RIGHT
    rep = semigroup.regular_representation(record, side)
    payload = {"representation": rep.to_json(), "side": args.side}
    if args.check_lr:
        other = semigroup.regular_representation(
            record, Side.RIGHT if side is Side.LEFT else Side.LEFT
        )
        left, right = (rep, other) if side is Side.LEFT else (other, rep)
        payload["left_right_isomorphic"] = semigroup.rep_isomorphic(rep, other).to_json()
        payload["inversion_intertwiner"] = json_form(semigroup.left_right_intertwiner(left, right))
    if args.decompose:
        blocks = semigroup.decompose_invariants(rep)
        payload["invariant_blocks"] = [
            {
                "dimension": b.dimension,
                "irreducible": b.irreducible,
                "certificate": b.certificate,
                "basis": json_form(b.basis),
            }
            for b in blocks
        ]
    pretty = f"regular {args.side} representation of degree {rep.degree}"
    if args.decompose:
        dims = sorted(b.dimension for b in blocks)
        pretty += f", invariant block dims {dims}"
    _print_report(args, payload, CITATIONS["rep"], pretty)
    return 0


def _semifield_from_args(args):
    from . import semivector
    name = args.semifield
    if name == "nonneg":
        return semivector.NonNegIntegers()
    if name.startswith("chain:"):
        return semivector.ChainLattice(int(name.split(":", 1)[1]))
    raise DomainError("bad_semifield", f"unknown semifield {name!r} (nonneg or chain:M)")


def _tuples_from_text(sf, text: str):
    from . import semivector
    return [
        semivector.SemivectorTuple(sf, tuple(_parse_int_list(chunk)))
        for chunk in text.split(";")
        if chunk.strip()
    ]


def cmd_semivec(args):
    from . import semivector
    if args.action == "lattice-check":
        if not args.lattice:
            raise DomainError("missing_input", "lattice-check needs --lattice")
        raw = args.lattice
        data = _load_json(raw) if raw.endswith(".json") else json.loads(raw)
        if _checked(data, {}, "lattice").get("kind") == "chain":
            size = _checked(data, {"size": int}, "lattice")["size"]
            result = semivector.chain_lattice_check(size)
        else:
            tables = _checked(data, {"join": [[int]], "meet": [[int]]}, "lattice")
            result = semivector.lattice_semivector_check(tables["join"], tables["meet"])
        pretty = "semivector space over C_2" if result.ok else f"fails {result.axiom}"
        _print_report(args, result.to_json(), CITATIONS["semivec"], pretty)
        return 0
    if not args.vectors:
        raise DomainError("missing_input", f"{args.action} needs --vectors")
    sf = _semifield_from_args(args)
    vectors = _tuples_from_text(sf, args.vectors)
    scalars = _parse_int_list(args.scalars) if args.scalars else None
    if args.action in ("span", "enumerate"):
        if not args.target:
            raise DomainError("missing_input", f"{args.action} needs --target")
        target = semivector.SemivectorTuple(sf, tuple(_parse_int_list(args.target)))
    if args.action == "independent":
        payload = semivector.independence_check(vectors, scalars).to_json()
        pretty = "independent" if payload["independent"] else "dependent"
    elif args.action == "span":
        payload = semivector.span_membership(target, vectors, scalars).to_json()
        pretty = "member" if payload["member"] else "not a member"
    elif args.action == "spans":
        if args.space == "carrier":
            space = "carrier"
        elif args.space and args.space.startswith("dim:"):
            space = int(args.space.split(":", 1)[1])
        else:
            raise DomainError("missing_input", "spans needs --space dim:N or carrier")
        payload = semivector.spans_space(vectors, space, scalars).to_json()
        pretty = "spans" if payload["spans"] else f"missing {payload['missing']}"
    elif args.action == "enumerate":
        reps = semivector.enumerate_representations(target, vectors, scalars)
        payload = {"count": len(reps), "representations": [list(r) for r in reps]}
        pretty = f"{len(reps)} representation(s)"
    else:
        raise DomainError("bad_action", f"unknown action {args.action!r}")
    _print_report(args, payload, CITATIONS["semivec"], pretty)
    return 0


def cmd_markov(args):
    from . import econ
    p = _matrix_from_args(args)
    state = _parse_rat_vector(args.state)
    trajectory = econ.markov_step(p, state, args.steps)
    payload = trajectory.to_json()
    pretty = "\n".join(
        "step {}: ({})".format(i + 1, ", ".join(map(str, s)))
        for i, s in enumerate(trajectory.states)
    )
    _print_report(args, payload, CITATIONS["markov"], pretty)
    return 0


def cmd_leontief(args):
    from . import econ
    if args.file and args.file.endswith(".csv"):
        names, matrix = econ.parse_consumption_csv(Path(args.file).read_text())
    else:
        names, matrix = None, _matrix_from_args(args)
    if args.model == "closed":
        solution = econ.closed_solve(matrix)
    else:
        if not args.demand:
            raise DomainError("missing_input", "open model needs --demand")
        solution = econ.open_solve(matrix, _parse_rat_vector(args.demand))
    payload = solution.to_json()
    if names:
        payload["industries"] = names
    pretty = json.dumps(payload, sort_keys=True, indent=2)
    _print_report(args, payload, CITATIONS["leontief"], pretty)
    return 0


def cmd_golden(args):
    from . import golden
    results = golden.run_golden()
    payload = [r.to_json() for r in results]
    pretty = "\n".join(
        f"[{'PASS' if r.passed else 'FAIL'}] {r.anchor}: {r.description}"
        + (f" ({r.detail})" if r.detail else "")
        for r in results
    )
    failed = not all(r.passed for r in results)
    _print_report(args, payload, [r.anchor for r in results], pretty,
                  "error" if failed else "ok")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smaralg",
        description="Workbench for Smarandache algebraic structures over Z_n, "
        "semifields, S-semigroups, and relaxed economic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_pretty(p):
        p.add_argument("--pretty", action="store_true", help="human-readable output")
        return p

    p = with_pretty(sub.add_parser("subfields", help="list the subfields of Z_n"))
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_subfields)

    p = with_pretty(sub.add_parser("certify", help="certify a subset as a subfield"))
    p.add_argument("n", type=int)
    p.add_argument("--elements", required=True, help="comma list, e.g. 0,2,4")
    p.set_defaults(func=cmd_certify)

    p = with_pretty(sub.add_parser("poly", help="roots and root criteria of a polynomial"))
    p.add_argument("expr", help='e.g. "x^2+1" or "x^2+1 mod 5"')
    p.add_argument("--mod", type=int, default=None)
    p.set_defaults(func=cmd_poly)

    p = with_pretty(sub.add_parser("spectral", help="eigen system and spectral decomposition"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="matrix JSON file")
    group.add_argument("--matrix", help="inline matrix JSON")
    p.set_defaults(func=cmd_spectral)

    p = with_pretty(sub.add_parser("classify-roots", help="three-valued root classification"))
    p.add_argument("expr")
    p.add_argument("--mod", type=int, required=True)
    p.add_argument("--subfield", required=True, help="comma list, e.g. 0,3")
    p.set_defaults(func=cmd_classify_roots)

    p = with_pretty(sub.add_parser("semigroup", help="validate a table and list subgroups"))
    p.add_argument("--file", required=True, help="table as .json or .csv")
    p.add_argument("--all-subgroups", action="store_true")
    p.set_defaults(func=cmd_semigroup)

    p = with_pretty(sub.add_parser("rep", help="regular representation of a subgroup"))
    p.add_argument("--file", required=True, help="table as .json or .csv")
    p.add_argument("--identity", type=int, required=True, help="idempotent anchoring the subgroup")
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--check-lr", action="store_true", help="verify left ~ right isomorphism")
    p.add_argument("--decompose", action="store_true", help="split into invariant blocks")
    p.set_defaults(func=cmd_rep)

    p = with_pretty(sub.add_parser("semivec", help="semivector-space checks"))
    p.add_argument(
        "--action",
        choices=["independent", "span", "spans", "enumerate", "lattice-check"],
        required=True,
    )
    p.add_argument("--semifield", default="nonneg", help="nonneg or chain:M")
    p.add_argument("--vectors", help='tuples, e.g. "1,1;2,1;3,0"')
    p.add_argument("--target", help='tuple, e.g. "1,3"')
    p.add_argument("--scalars", help="scalar subset, e.g. 0,3")
    p.add_argument("--space", help="dim:N or carrier (for --action spans)")
    p.add_argument(
        "--lattice",
        help='lattice JSON ({"kind":"chain","size":4} or join/meet tables) '
        "inline or as a .json file",
    )
    p.set_defaults(func=cmd_semivec)

    p = with_pretty(sub.add_parser("markov", help="exact transition iteration"))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help='rows ; entries , e.g. "1/2,3/10;1/2,7/10"')
    group.add_argument("--file", help="matrix JSON file")
    p.add_argument("--state", required=True, help='e.g. "1,0"')
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=cmd_markov)

    p = with_pretty(sub.add_parser("leontief", help="closed/open input-output models"))
    p.add_argument("--model", choices=["closed", "open"], required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="inline matrix")
    group.add_argument("--file", help="matrix JSON or consumption CSV")
    p.add_argument("--demand", help="demand vector for the open model")
    p.set_defaults(func=cmd_leontief)

    p = with_pretty(sub.add_parser("golden", help="replay the book's worked examples"))
    p.set_defaults(func=cmd_golden)
    return parser


# Options whose values may start with a negative entry ("-1/8,1/2;...").
_SIGNED_VALUE_OPTIONS = ("--matrix", "--state", "--demand")


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Rewrite "--matrix -1/8,..." as "--matrix=-1/8,...": argparse reads a
    separate value that starts with '-' as an unknown option."""
    out = []
    for token in argv:
        if out and out[-1] in _SIGNED_VALUE_OPTIONS and re.match(r"-\d", token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _print_error(args, reason: str, message: str) -> None:
    payload = {"reason": reason, "message": message}
    _print_report(args, payload, CITATIONS.get(args.command, []), status="error")


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_signed_values(argv))
    try:
        return args.func(args)
    except DomainError as exc:
        _print_error(args, exc.reason, str(exc))
        return 1
    except (ValueError, OSError) as exc:
        _print_error(args, "domain_error", f"{type(exc).__name__}: {exc}")
        return 1
    except (AssertionError, KeyError) as exc:
        # Input is validated by raising ValueError or DomainError; an
        # assertion is a re-verification of a computed result, and a
        # missing key is a lookup the validated input should have made safe.
        _print_error(args, "internal_error", f"{type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
