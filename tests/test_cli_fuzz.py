"""Fuzz the CLI in-process: every subcommand, with valid JSON, CSV and
number strings mutated, and with arbitrary argv.

Exit 0/1 must print exactly one JSON object (a `reason` from the README's
list on error), exit 2 is an argparse usage error with nothing on stdout,
and exit 3 or any escaping exception fails.  Numbers stay in about
[-3, 40], dimensions at most 4 and --steps at most 5: nothing yet bounds
the work an oversized input asks for.
"""

import collections
import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smaralg.cli import main

REASONS = {
    "bad_action", "bad_file", "bad_semifield", "domain_error", "internal_error",
    "invalid_table", "missing_input", "no_subgroup", "not_diagonalizable",
    # SubfieldRejection codes
    "not_multiplicatively_closed", "not_additively_closed", "no_identity",
    "non_invertible_element", "not_proper",
}

NUMBERS = st.integers(-3, 40)
JUNK = ["", "a", "x", "1.5", "1/0", "0/0", "-", "true", "null", " ", "1e3", "[]", "{}"]
# Non-empty and digit-free, so a mutation never glues two numbers together.
SEPARATORS = [",", ";", "/", ":", " ", "^", "+", "x", " mod ", "-", ",,", "\n"]


# An input file that check_cli writes before calling main.
File = collections.namedtuple("File", "suffix content")


def mostly(values):
    """``values`` three times in four, else a junk string."""
    return st.integers(0, 3).flatmap(lambda k: values if k else st.sampled_from(JUNK))


NUMBER_TEXT = mostly(NUMBERS.map(str))


@st.composite
def mutated_text(draw, text):
    """``text`` with up to two of its numbers or separators replaced."""
    parts = re.split(r"(\d+)", text)  # odd indices hold the digit runs
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(parts) - 1))
        if i % 2:
            parts[i] = draw(NUMBER_TEXT)
        elif 0 < i < len(parts) - 1:
            parts[i] = draw(st.sampled_from(SEPARATORS))
        else:
            parts[i] = draw(st.sampled_from(JUNK + SEPARATORS))
    return "".join(parts)


JSON_KEYS = ["n", "subfield", "rows", "cols", "entries", "table", "order",
             "kind", "size", "join", "meet", "chain"]
json_values = st.recursive(
    st.one_of(NUMBERS, st.booleans(), st.none(), st.just(1.5),
              st.sampled_from(["", "a", "1/2", "1/0", "chain"])),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated_json(draw, doc):
    """The JSON text of ``doc`` with some nodes replaced, dropped or added,
    or the text cut short."""

    def walk(value):
        choice = draw(st.integers(0, 31))
        if choice == 0:
            return draw(json_values)
        if isinstance(value, list):
            value = [walk(v) for v in value]
            if value and choice == 1:
                del value[draw(st.integers(0, len(value) - 1))]
            elif choice == 2 and len(value) < 4:
                value.append(draw(json_values))
        elif isinstance(value, dict):
            value = {k: walk(v) for k, v in value.items()}
            if value and choice == 1:
                del value[draw(st.sampled_from(sorted(value)))]
        return value

    text = json.dumps(walk(doc))
    if draw(st.integers(0, 19)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def option(name, values, often=False):
    """[name, value], [name] for a None value, or nothing (one time in
    eight when ``often``, else one in two)."""
    present = values.map(lambda v: [name] if v is None else [name, v])
    return st.integers(0, 7 if often else 1).flatmap(
        lambda k: present if k else st.just([]))


SPECTRAL = {"n": 6, "subfield": [0, 2, 4], "rows": 3, "cols": 3,
            "entries": [4, 0, 0, 0, 2, 2, 0, 2, 2]}
TABLE = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 2, 2, 2], [3, 3, 3, 3]]
TABLE_CSV = "0,1,2,3\n1,0,3,2\n2,2,2,2\n3,3,3,3\n"
LATTICES = [
    {"kind": "chain", "size": 4},
    {"join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
     "meet": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]},
]
RAT_MATRIX = {"entries": [["1/2", "3/10"], ["1/2", "7/10"]]}
# (n, a subfield of Z_n) for certify and classify-roots
SUBFIELDS = [("6", "0,3"), ("6", "0,2,4"), ("10", "0,5"), ("15", "0,5,10"), ("7", "0,1")]

table_file = st.one_of(
    mutated_text(TABLE_CSV).map(lambda t: File(".csv", t)),
    mutated_json({"order": 4, "table": TABLE}).map(lambda t: File(".json", t)),
)
rat_matrix = st.one_of(
    mutated_text("1/2,3/10;1/2,7/10").map(lambda t: ["--matrix", t]),
    st.sampled_from([RAT_MATRIX, RAT_MATRIX["entries"]])
    .flatmap(mutated_json).map(lambda t: ["--file", File(".json", t)]),
)
subfield = st.sampled_from(SUBFIELDS).flatmap(
    lambda nk: st.tuples(mostly(st.just(nk[0])), mutated_text(nk[1])))
semivec_options = {  # the options each action reads
    "independent": {"--vectors"},
    "span": {"--vectors", "--target"},
    "spans": {"--vectors", "--space"},
    "enumerate": {"--vectors", "--target"},
    "lattice-check": {"--lattice"},
}


def concat(*parts):
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


def semivec(action):
    needs = semivec_options[action]
    return concat(
        st.just(["--action", action]),
        option("--semifield", st.one_of(st.just("nonneg"), mutated_text("chain:4"))),
        option("--vectors", mutated_text("1,1;2,1;3,0"), "--vectors" in needs),
        option("--target", mutated_text("1,3"), "--target" in needs),
        option("--scalars", mutated_text("0,3")),
        option("--space", st.one_of(st.just("carrier"), mutated_text("dim:2")),
               "--space" in needs),
        option("--lattice", st.sampled_from(LATTICES).flatmap(mutated_json).flatmap(
            lambda t: st.sampled_from([t, File(".json", t)])), "--lattice" in needs),
    )


COMMANDS = {
    "subfields": concat(NUMBER_TEXT.map(lambda n: [n])),
    "certify": subfield.map(lambda nk: [nk[0], "--elements", nk[1]]),
    "poly": concat(
        st.sampled_from(["x^2+1 mod 5", "x^3+2x+1", "3x^2+x+4 mod 7"])
        .flatmap(mutated_text).map(lambda t: [t]),
        option("--mod", NUMBER_TEXT),
    ),
    "spectral": mutated_json(SPECTRAL).flatmap(
        lambda t: st.sampled_from([["--matrix", t], ["--file", File(".json", t)]])),
    "classify-roots": concat(
        mutated_text("x^2+2").map(lambda t: [t]),
        subfield.map(lambda nk: ["--mod", nk[0], "--subfield", nk[1]]),
    ),
    "semigroup": concat(table_file.map(lambda f: ["--file", f]),
                        option("--all-subgroups", st.none())),
    "rep": concat(
        table_file.map(lambda f: ["--file", f]),
        mostly(st.sampled_from(["0", "2", "3"])).map(lambda n: ["--identity", n]),
        option("--side", st.sampled_from(["left", "right"])),
        option("--check-lr", st.none()),
        option("--decompose", st.none()),
    ),
    "semivec": st.sampled_from(sorted(semivec_options)).flatmap(semivec),
    "markov": concat(
        rat_matrix,
        mutated_text("1,0").map(lambda t: ["--state", t]),
        option("--steps", mostly(st.integers(-3, 5).map(str))),
    ),
    "leontief": concat(
        st.sampled_from(["closed", "open"]).map(lambda m: ["--model", m]),
        st.one_of(rat_matrix, mutated_text("steel,food\n1/5,3/10\n2/5,1/10\n")
                  .map(lambda t: ["--file", File(".csv", t)])),
        option("--demand", mutated_text("10,10"), often=True),
    ),
    "golden": st.just([]),
}


@st.composite
def valid_like_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command] + draw(COMMANDS[command])
    if draw(st.integers(0, 4)) == 0:
        argv.append("--pretty")
    return argv


# Every option name of every subcommand, and some values; no -h/--help.
ARGV_TOKENS = sorted(COMMANDS) + [
    "--pretty", "--elements", "--mod", "--matrix", "--file", "--subfield",
    "--all-subgroups", "--identity", "--side", "--check-lr", "--decompose",
    "--action", "--semifield", "--vectors", "--target", "--scalars", "--space",
    "--lattice", "--state", "--steps", "--model", "--demand",
    "left", "right", "closed", "open", "span", "enumerate", "lattice-check",
    "chain:4", "nonneg", "carrier", "dim:2", "0,3", "1,0", "x^2+1", "1/2,1/2;1/2,1/2",
    json.dumps(SPECTRAL), json.dumps(LATTICES[0]), "-1,2", "-",
]
ARGV_TOKEN = st.one_of(st.sampled_from(ARGV_TOKENS), NUMBER_TEXT,
                       st.sampled_from([".json", ".csv"]).map(lambda s: File(s, "[1]")))


@st.composite
def shuffled_argv(draw):
    """A valid-like argv with tokens dropped, repeated, swapped or inserted."""
    argv = draw(valid_like_argv())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.integers(0, 3))
        if edit == 0 and i < len(argv):
            del argv[i]
        elif edit == 1 and i < len(argv):
            argv.insert(i, argv[i])
        elif edit == 2 and len(argv) > 1:
            j = draw(st.integers(0, len(argv) - 1))
            i = min(i, len(argv) - 1)
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv.insert(i, draw(ARGV_TOKEN))
    return argv


arbitrary_argv = st.one_of(st.lists(ARGV_TOKEN, max_size=8), shuffled_argv())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def check_cli(workdir, argv):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, File):
            path = workdir / f"input{arg.suffix}"
            path.write_text(arg.content)
            argv[i] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == "", argv
            return
    text = out.getvalue()
    assert code in (0, 1), (argv, text)
    if code == 0 and "--pretty" in argv:
        assert text, argv
        return
    assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
    report = json.loads(text)
    assert isinstance(report, dict), argv
    assert report["status"] == ("ok" if code == 0 else "error"), argv
    if code == 1:
        assert report["payload"]["reason"] in REASONS, (argv, text)


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(argv=valid_like_argv())
def test_mutated_inputs_give_one_json_report(workdir, argv):
    check_cli(workdir, argv)


@FUZZ
@given(argv=arbitrary_argv)
def test_arbitrary_argv_gives_one_json_report_or_usage_error(workdir, argv):
    check_cli(workdir, argv)
