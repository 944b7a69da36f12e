import json
import time

import pytest

from smaralg import cli, linalg, polylab, ratmat, semigroup
from smaralg.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSubfields:
    def test_z6(self, capsys):
        code, report = run_json(capsys, "subfields", "6")
        assert code == 0 and report["status"] == "ok"
        assert [s["elements"] for s in report["payload"]] == [[0, 3], [0, 2, 4]]
        assert "Thm 2.9.9" in report["citations"]

    def test_prime(self, capsys):
        code, report = run_json(capsys, "subfields", "7")
        assert code == 0 and report["payload"] == []

    def test_deterministic_bytes(self, capsys):
        _, first = run(capsys, "subfields", "12")
        _, second = run(capsys, "subfields", "12")
        assert first == second

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["subfields", "six"])
        assert exc.value.code == 2

    def test_key_error_is_internal_error(self, capsys, monkeypatch):
        # a missing key of the input is a ValueError, so a KeyError is a bug
        def handler(args):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "cmd_subfields", handler)
        code, out = run(capsys, "subfields", "6")
        report = json.loads(out)
        assert code == 3 and report["status"] == "error"
        assert report["payload"] == {"reason": "internal_error", "message": "KeyError: 'lost'"}

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["subfields", "6", "--frobnicate"])
        assert exc.value.code == 2


class TestCertify:
    def test_accept(self, capsys):
        code, report = run_json(capsys, "certify", "6", "--elements", "0,2,4")
        assert code == 0
        assert report["payload"]["identity"] == 4
        assert report["payload"]["to_prime"] == {"0": 0, "2": 2, "4": 1}

    def test_reject_exit_1(self, capsys):
        code, report = run_json(capsys, "certify", "6", "--elements", "0,2")
        assert code == 1 and report["status"] == "error"
        assert report["payload"]["reason"] == "not_multiplicatively_closed"


class TestPoly:
    def test_mod_suffix(self, capsys):
        code, report = run_json(capsys, "poly", "x^2+1 mod 5")
        assert code == 0 and report["payload"]["roots"] == [2, 3]

    def test_roots_computed_once_over_a_prime(self, capsys, monkeypatch):
        calls = []
        roots_in = polylab.roots_in

        def counting(p, domain):
            calls.append(p)
            return roots_in(p, domain)

        monkeypatch.setattr(polylab, "roots_in", counting)
        code, report = run_json(capsys, "poly", "x^2+1 mod 5")
        assert code == 0 and report["payload"]["roots"] == [2, 3]
        assert len(calls) == 1

    def test_mod_flag(self, capsys):
        code, report = run_json(capsys, "poly", "x^2+2", "--mod", "6")
        assert code == 0 and report["payload"]["roots"] == [2, 4]
        assert "reducibility" not in report["payload"]  # composite modulus

    def test_non_integer_mod_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["poly", "--mod", "q", "x^2+1"])
        assert exc.value.code == 2

    def test_missing_modulus_domain_error(self, capsys):
        code, report = run_json(capsys, "poly", "x^2+1")
        assert code == 1 and report["status"] == "error"


class TestSpectral:
    MATRIX = {
        "n": 6,
        "subfield": [0, 2, 4],
        "rows": 3,
        "cols": 3,
        "entries": [4, 0, 0, 0, 2, 2, 0, 2, 2],
    }

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(self.MATRIX))
        code, report = run_json(capsys, "spectral", "--file", str(path))
        assert code == 0
        values = [ev["value"] for ev in report["payload"]["eigen_system"]["s_values"]]
        assert values == [4, 0]
        assert [t["value"] for t in report["payload"]["spectral"]["terms"]] == [4, 0]

    def test_inline_input(self, capsys):
        code, report = run_json(capsys, "spectral", "--matrix", json.dumps(self.MATRIX))
        assert code == 0 and report["payload"]["self_adjoint"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"n":5,"subfield":[0,1,2,3,7],"rows":1,"cols":1,"entries":[1]}',
            '{"n":5,"subfield":[-1,0,1,2,3],"rows":1,"cols":1,"entries":[1]}',
        ],
    )
    def test_non_residue_subfield_is_domain_error(self, capsys, text):
        code, report = run_json(capsys, "spectral", "--matrix", text)
        assert code == 1 and report["payload"]["reason"] == "domain_error"
        assert "residues" in report["payload"]["message"]

    @pytest.mark.parametrize(
        "text",
        [
            '{"n":"6","subfield":[0,2,4],"rows":1,"cols":1,"entries":[4]}',
            "[1]",
            '{"n":6,"subfield":[0,2,4],"rows":true,"cols":1,"entries":[4]}',
            '{"n":6,"subfield":"0,2,4","rows":1,"cols":1,"entries":[4]}',
            '{"n":6,"subfield":[0,2,4],"rows":1,"cols":1,"entries":[4.0]}',
            '{"n":6,"subfield":[0,2,4],"rows":1,"cols":1,"entries":[false]}',
        ],
    )
    def test_ill_typed_matrix_json_is_domain_error(self, capsys, text):
        code, out = run(capsys, "spectral", "--matrix", text)
        report = json.loads(out)
        assert code == 1 and out.count("\n") == 1
        assert report["status"] == "error" and report["payload"]["reason"] == "domain_error"

    def test_ill_typed_matrix_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"n":"6","subfield":[0,2,4],"rows":1,"cols":1,"entries":[4]}')
        code, report = run_json(capsys, "spectral", "--file", str(path))
        assert code == 1 and report["payload"]["reason"] == "domain_error"

    def test_non_diagonalizable_exit_1(self, capsys):
        bad = {"n": 6, "subfield": [0, 3], "rows": 2, "cols": 2, "entries": [0, 3, 3, 0]}
        code, report = run_json(capsys, "spectral", "--matrix", json.dumps(bad))
        assert code == 1 and report["payload"]["reason"] == "not_diagonalizable"

    def test_whole_prime_field_matrix(self, capsys):
        z3 = {
            "n": 3,
            "subfield": [0, 1, 2],
            "rows": 3,
            "cols": 3,
            "entries": [1, 0, 0, 0, 2, 2, 0, 2, 2],
        }
        code, report = run_json(capsys, "spectral", "--matrix", json.dumps(z3))
        assert code == 0
        assert [t["value"] for t in report["payload"]["spectral"]["terms"]] == [1, 0]

    def test_self_adjoint_eigen_system_computed_once(self, capsys, monkeypatch):
        calls = []
        real = linalg.eigen_system
        monkeypatch.setattr(linalg, "eigen_system", lambda a: calls.append(a) or real(a))
        code, report = run_json(capsys, "spectral", "--matrix", json.dumps(self.MATRIX))
        assert code == 0 and "spectral" in report["payload"]
        assert len(calls) == 1

    def test_failed_reverification_is_internal_error(self, capsys, monkeypatch):
        # a wrong eigenspace basis must trip the eigenpair re-verification
        monkeypatch.setattr(ratmat, "nullspace", lambda a, field: [[1] + [0] * (len(a) - 1)])
        code, report = run_json(capsys, "spectral", "--matrix", json.dumps(self.MATRIX))
        assert code == 3 and report["status"] == "error"
        assert report["payload"]["reason"] == "internal_error"
        assert "eigenpair re-verification failed" in report["payload"]["message"]


class TestClassifyRoots:
    def test_indeterminate(self, capsys):
        code, report = run_json(
            capsys, "classify-roots", "x^2+2", "--mod", "6", "--subfield", "0,3"
        )
        assert code == 0
        assert report["payload"]["truth"] == "indeterminate"
        assert report["payload"]["alien_roots"] == [2, 4]


class TestSemigroupCli:
    CSV = "0,1,2,3\n1,0,3,2\n2,2,2,2\n3,3,3,3\n"

    def test_csv_ingestion(self, capsys, tmp_path):
        path = tmp_path / "t2.csv"
        path.write_text(self.CSV)
        code, report = run_json(capsys, "semigroup", "--file", str(path))
        assert code == 0
        assert [s["identity"] for s in report["payload"]["subgroups"]] == [0, 2, 3]

    def test_json_ingestion(self, capsys, tmp_path):
        path = tmp_path / "t2.json"
        table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 2, 2], [3, 3, 3, 3]]
        path.write_text(json.dumps({"order": 4, "table": table}))
        code, report = run_json(capsys, "semigroup", "--file", str(path))
        assert code == 0 and report["payload"]["order"] == 4

    def test_invalid_table_exit_1(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,1,2\n1,2,0\n2,1,0\n")
        code, report = run_json(capsys, "semigroup", "--file", str(path))
        assert code == 1 and report["payload"]["reason"] == "invalid_table"

    @pytest.mark.parametrize("command", [["semigroup"], ["rep", "--identity", "0"]])
    @pytest.mark.parametrize(
        "text,reason",
        [
            ('{"table": 5}', "invalid_table"),
            ("[1]", "domain_error"),
            ('{"table": [[0, 1.0], [1, 0]]}', "invalid_table"),
            ('{"table": [[0, true], [1, 0]]}', "invalid_table"),
        ],
    )
    def test_ill_typed_json_table_exit_1(self, capsys, tmp_path, command, text, reason):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, report = run_json(capsys, command[0], "--file", str(path), *command[1:])
        assert code == 1 and report["status"] == "error"
        assert report["payload"]["reason"] == reason

    def test_rep_with_checks(self, capsys, tmp_path):
        path = tmp_path / "t2.csv"
        path.write_text(self.CSV)
        code, report = run_json(
            capsys,
            "rep",
            "--file",
            str(path),
            "--identity",
            "0",
            "--check-lr",
            "--decompose",
        )
        assert code == 0
        payload = report["payload"]
        assert payload["left_right_isomorphic"]["isomorphic"]
        assert sorted(b["dimension"] for b in payload["invariant_blocks"]) == [1, 1]

    def test_rep_decompose_pretty_decomposes_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "t2.csv"
        path.write_text(self.CSV)
        calls = []
        real = semigroup.decompose_invariants
        monkeypatch.setattr(
            semigroup, "decompose_invariants", lambda rep: calls.append(rep) or real(rep)
        )
        code, out = run(
            capsys, "rep", "--file", str(path), "--identity", "0", "--decompose", "--pretty"
        )
        assert code == 0 and out.strip().endswith("invariant block dims [1, 1]")
        assert len(calls) == 1

    def test_rep_missing_idempotent(self, capsys, tmp_path):
        path = tmp_path / "t2.csv"
        path.write_text(self.CSV)
        code, report = run_json(capsys, "rep", "--file", str(path), "--identity", "1")
        assert code == 1 and report["payload"]["reason"] == "no_subgroup"


class TestSemivecCli:
    def test_independent(self, capsys):
        code, report = run_json(
            capsys, "semivec", "--action", "independent", "--vectors", "1,1;2,1;3,0"
        )
        assert code == 0 and report["payload"]["independent"]

    def test_span(self, capsys):
        code, report = run_json(
            capsys,
            "semivec",
            "--action",
            "span",
            "--vectors",
            "1,1;2,1;3,0",
            "--target",
            "1,3",
        )
        assert code == 0 and not report["payload"]["member"]

    def test_spans_space(self, capsys):
        code, report = run_json(
            capsys,
            "semivec",
            "--action",
            "spans",
            "--vectors",
            "1,0,0;0,1,0;0,0,1",
            "--space",
            "dim:3",
        )
        assert code == 0 and report["payload"]["spans"]

    def test_chain_enumerate(self, capsys):
        code, report = run_json(
            capsys,
            "semivec",
            "--action",
            "enumerate",
            "--semifield",
            "chain:4",
            "--vectors",
            "2;1;3",
            "--target",
            "3",
            "--scalars",
            "0,3",
        )
        assert code == 0 and report["payload"]["count"] == 4

    def test_missing_target(self, capsys):
        code, report = run_json(
            capsys, "semivec", "--action", "span", "--vectors", "1,1"
        )
        assert code == 1 and report["payload"]["reason"] == "missing_input"

    def test_negative_scalars_rejected(self, capsys):
        # 1 = -1*1 + 1*2 is no combination over the nonnegative integers
        code, report = run_json(
            capsys, "semivec", "--action", "span", "--vectors", "1;2", "--target", "1",
            "--scalars=-1,1",
        )
        assert code == 1 and report["payload"] == {
            "reason": "domain_error",
            "message": "ValueError: scalar -1 outside the nonnegative integers",
        }


class TestEconCli:
    def test_markov(self, capsys):
        code, report = run_json(
            capsys,
            "markov",
            "--matrix",
            "1/2,3/10;1/2,7/10",
            "--state",
            "1,0",
            "--steps",
            "1",
        )
        assert code == 0 and report["payload"]["states"] == [["1/2", "1/2"]]

    def test_leontief_closed(self, capsys):
        code, report = run_json(
            capsys, "leontief", "--model", "closed", "--matrix", "1/2,1/4;1/2,3/4"
        )
        assert code == 0
        assert report["payload"]["representative"] == ["1/3", "2/3"]

    @pytest.mark.parametrize("matrix", ["3,1,3;0,1,0;0,0,1", "2,1,3;0,1,0;0,0,1"])
    def test_leontief_closed_relaxed_best(self, capsys, matrix):
        # the {-2..2}^2 basis weightings miss this optimum: their best has
        # negative mass 2/7 on the first model and a lexicographically
        # larger vector of the same mass and sum on the second
        code, report = run_json(capsys, "leontief", "--model", "closed", "--matrix", matrix)
        assert code == 0 and report["payload"]["best"] == [0, "3/4", "-1/4"]

    def test_leontief_open(self, capsys):
        code, report = run_json(
            capsys,
            "leontief",
            "--model",
            "open",
            "--matrix",
            "1/5,3/10;2/5,1/10",
            "--demand",
            "10,10",
        )
        assert code == 0
        assert report["payload"]["solution"] == [20, 20]
        assert report["payload"]["productive"]

    def test_leontief_csv(self, capsys, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("steel,food\n1/5,3/10\n2/5,1/10\n")
        code, report = run_json(
            capsys, "leontief", "--model", "open", "--file", str(path), "--demand", "10,10"
        )
        assert code == 0 and report["payload"]["industries"] == ["steel", "food"]

    def test_values_starting_with_a_negative_entry(self, capsys):
        code, report = run_json(
            capsys, "markov", "--matrix", "-1/8,1/2;1/2,1/4", "--state", "-1,2"
        )
        assert code == 0 and report["payload"]["states"] == [["9/8", 0]]
        code, report = run_json(
            capsys,
            "leontief",
            "--model",
            "open",
            "--matrix",
            "-1/8,1/2;1/2,1/4",
            "--demand",
            "-1,2",
        )
        assert code == 0 and report["payload"]["solution"] == ["8/19", "56/19"]

    def test_missing_option_value_still_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["markov", "--matrix", "--state", "1,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command", [["markov", "--state", "1,0"], ["leontief", "--model", "closed"]]
    )
    @pytest.mark.parametrize(
        "text,path",
        [
            ("5", "matrix must be list"),
            ("[1,2]", "matrix[0] must be list"),
            ('{"entries": 5}', "matrix.entries must be list"),
            ('{"1": 0}', "matrix needs the key 'entries'"),
            ('{"entries": [[1, "1/0"]]}', "zero denominator"),
        ],
    )
    def test_ill_shaped_matrix_file_is_domain_error(self, capsys, tmp_path, command, text, path):
        file = tmp_path / "m.json"
        file.write_text(text)
        code, out = run(capsys, *command, "--file", str(file))
        report = json.loads(out)
        assert code == 1 and out.count("\n") == 1
        assert report["payload"]["reason"] == "domain_error"
        assert path in report["payload"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["markov", "--matrix", "1/0,0;0,1", "--state", "1,0"],
            ["markov", "--matrix", "1,0;0,1", "--state", "1/0,0"],
            ["leontief", "--model", "open", "--matrix", "0,0;0,0", "--demand", "3/0,1"],
        ],
    )
    def test_zero_denominator_is_domain_error(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 1 and out.count("\n") == 1
        assert json.loads(out)["payload"]["reason"] == "domain_error"

    def test_open_needs_demand(self, capsys):
        code, report = run_json(
            capsys, "leontief", "--model", "open", "--matrix", "0,0;0,0"
        )
        assert code == 1 and report["payload"]["reason"] == "missing_input"


class TestGolden:
    def test_all_anchors_pass_exit_0(self, capsys):
        code, report = run_json(capsys, "golden")
        assert code == 0 and report["status"] == "ok"
        assert all(entry["passed"] for entry in report["payload"])
        assert len(report["payload"]) >= 25

    def test_pretty_lines(self, capsys):
        code, out = run(capsys, "golden", "--pretty")
        assert code == 0
        assert all(line.startswith("[PASS]") for line in out.strip().splitlines())


def test_no_partial_json_on_error(capsys):
    code, out = run(capsys, "certify", "6", "--elements", "0,2")
    assert code == 1
    json.loads(out)  # the whole line is one valid JSON document


class TestSemivecLattice:
    def test_chain_json(self, capsys):
        code, report = run_json(
            capsys, "semivec", "--action", "lattice-check",
            "--lattice", '{"kind":"chain","size":4}',
        )
        assert code == 0 and report["payload"]["ok"]

    def test_large_chain_answers_without_tables(self, capsys):
        start = time.perf_counter()
        code, report = run_json(
            capsys, "semivec", "--action", "lattice-check",
            "--lattice", '{"kind":"chain","size":1000000}',
        )
        assert time.perf_counter() - start < 0.1
        assert code == 0 and report["payload"] == {"axiom": None, "ok": True, "witness": None}

    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_chain_is_domain_error(self, capsys, size):
        code, report = run_json(
            capsys, "semivec", "--action", "lattice-check",
            "--lattice", json.dumps({"kind": "chain", "size": size}),
        )
        assert code == 1 and report["payload"]["reason"] == "domain_error"

    def test_explicit_tables_file(self, capsys, tmp_path):
        import json as _json

        diamond = {
            "join": [[0, 1, 2, 3, 4], [1, 1, 4, 4, 4], [2, 4, 2, 4, 4],
                     [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
            "meet": [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2],
                     [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]],
        }
        path = tmp_path / "m3.json"
        path.write_text(_json.dumps(diamond))
        code, report = run_json(
            capsys, "semivec", "--action", "lattice-check", "--lattice", str(path)
        )
        assert code == 0 and report["payload"]["ok"]

    @pytest.mark.parametrize(
        "text,path",
        [
            ("5", "lattice must be dict"),
            ("[1]", "lattice must be dict"),
            ('{"join":5,"meet":5}', "lattice.join must be list"),
            ('{"join":[["a"]],"meet":[["a"]]}', "lattice.join[0][0] must be int"),
            ('{"kind":"chain","size":true}', "lattice.size must be int, not bool"),
            ('{"kind":"chain","size":1.5}', "lattice.size must be int, not float"),
        ],
    )
    def test_ill_shaped_lattice_is_domain_error(self, capsys, text, path):
        code, out = run(capsys, "semivec", "--action", "lattice-check", "--lattice", text)
        report = json.loads(out)
        assert code == 1 and out.count("\n") == 1
        assert report["payload"]["reason"] == "domain_error"
        assert path in report["payload"]["message"]

    def test_missing_lattice(self, capsys):
        code, report = run_json(capsys, "semivec", "--action", "lattice-check")
        assert code == 1 and report["payload"]["reason"] == "missing_input"

    def test_vector_actions_still_require_vectors(self, capsys):
        code, report = run_json(capsys, "semivec", "--action", "independent")
        assert code == 1 and report["payload"]["reason"] == "missing_input"
