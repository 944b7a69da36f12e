"""The CLI loads only the layers a subcommand uses, and the package
resolves its exported names on first use with the same public API."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import smaralg
from smaralg import cli

SRC = Path(smaralg.__file__).resolve().parent.parent

# The package's exported names by home module, in export order.
EXPORTS = {
    "ringcore": [
        "Subfield", "SubfieldRejection", "certify_subfield", "find_subfields",
        "idempotents", "subfield_from_elements",
    ],
    "polylab": [
        "FermatFamily", "ModPolynomial", "ReducibilityReport", "RootClassification",
        "RootTruth", "Verdict", "block_transform", "coeff_sum_hom", "fermat_family_check",
        "fermat_power_sum", "kernel_of_hom", "neutrosophic_classify", "parse_poly",
        "reducibility_report", "roots_in",
    ],
    "linalg": [
        "CharPolyResult", "EigenSystem", "SpectralDecomposition", "SpectralDiagnostic",
        "SubfieldMatrix", "SubfieldVector", "bilinear_form_analyze", "char_poly",
        "eigen_system", "pseudo_inner_product", "rref_and_nullspace", "self_adjoint_check",
        "spectral_decompose",
    ],
    "semigroup": [
        "Representation", "SemigroupTable", "Side", "SubgroupRecord", "averaged_projection",
        "decompose_invariants", "find_subgroups", "left_right_intertwiner",
        "permutation_representation", "regular_representation", "rep_isomorphic",
        "validate_table",
    ],
    "semivector": [
        "ChainLattice", "DependenceReport", "NonNegIntegers", "SemivectorTuple",
        "enumerate_representations", "independence_check", "lattice_semivector_check",
        "span_membership", "spans_space",
    ],
    "econ": [
        "LeontiefSolution", "MarkovTrajectory", "TransitionClassification", "TransitionKind",
        "classify_transition", "closed_solve", "markov_step", "open_solve",
    ],
}


def fresh(*args: str) -> str:
    """Stdout of a new interpreter that finds smaralg in src/."""
    return subprocess.run(
        [sys.executable, *args], cwd=SRC, capture_output=True, text=True, check=True
    ).stdout


LOADED = "sorted(m for m in sys.modules if m.startswith('smaralg.'))"


class TestFreshInterpreter:
    def test_importing_the_cli_loads_no_layer(self):
        out = fresh("-c", f"import sys, smaralg.cli; print({LOADED})")
        assert out.strip() == "['smaralg.cli']"

    def test_importing_the_cli_loads_no_costly_stdlib_module(self):
        # every process pays for these before its first job
        costly = ["dataclasses", "decimal", "fractions", "inspect"]
        loaded = f"[m for m in {costly} if m in sys.modules]"
        out = fresh("-c", f"import sys, smaralg.cli; print({loaded})")
        assert out.strip() == "[]"

    def test_poly_loads_only_its_layers(self):
        code = (
            "import contextlib, io, sys\n"
            "from smaralg import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['poly', 'x^2+1 mod 5'])\n"
            f"print(rc, {LOADED})\n"
        )
        assert fresh("-c", code).strip() == (
            "0 ['smaralg.cli', 'smaralg.polylab', 'smaralg.ringcore']"
        )

    def test_package_loads_layers_on_first_use(self):
        code = (
            "import sys, smaralg\n"
            f"before = {LOADED}\n"
            "from smaralg import linalg\n"
            "print(before, linalg.__name__, smaralg.semivector.__name__)\n"
        )
        assert fresh("-c", code).strip() == "[] smaralg.linalg smaralg.semivector"

    def test_module_run_matches_in_process_main(self, capsys):
        assert cli.main(["subfields", "12"]) == 0
        assert fresh("-m", "smaralg", "subfields", "12") == capsys.readouterr().out


class TestPackageApi:
    def test_all_is_the_export_list(self):
        assert smaralg.__all__ == [name for names in EXPORTS.values() for name in names]

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_their_home_objects(self, module):
        home = importlib.import_module(f"smaralg.{module}")
        for name in EXPORTS[module]:
            assert getattr(smaralg, name) is getattr(home, name), name

    def test_dir_lists_the_exports(self):
        assert set(smaralg.__all__) <= set(dir(smaralg))

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            smaralg.no_such_name  # noqa: B018

    def test_star_import_gives_the_exports(self):
        namespace = {}
        exec("from smaralg import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == sorted(smaralg.__all__)
