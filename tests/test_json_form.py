"""The package's one JSON encoder, json_form, and the records whose JSON
form it derives from their fields."""

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from smaralg import Record, json_form
from smaralg.linalg import SubfieldMatrix, bilinear_form_analyze, spectral_decompose
from smaralg.ringcore import Subfield, subfield_from_elements


class Colour(str, enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Tagged(Record):
    name: str
    weight: Fraction
    _cache: dict = field(default_factory=dict)


@pytest.mark.parametrize(
    "x, form", [(Fraction(0), 0), (Fraction(-3), -3), (Fraction(-7, 4), "-7/4")]
)
def test_fraction_is_an_int_or_p_over_q(x, form):
    assert json_form(x) == form
    assert type(json_form(x)) is type(form)


def test_str_enum_is_its_value():
    assert type(json_form(Colour.RED)) is str
    assert json_form([Colour.RED]) == ["red"]


def test_int_keys_become_str_before_sorting():
    form = json_form({2: Fraction(1, 2), 10: (Fraction(3),)})
    assert json.dumps(form, sort_keys=True) == '{"10": [3], "2": "1/2"}'


def test_private_fields_are_skipped():
    record = Tagged("t", Fraction(5, 2), {1: 2})
    assert record.to_json() == {"name": "t", "weight": "5/2"}
    assert json_form(Subfield.whole_prime(3)) == {
        "n": 3, "elements": [0, 1, 2], "identity": 1, "prime_order": 3,
    }


def test_unknown_object_is_type_error():
    with pytest.raises(TypeError, match="object"):
        json_form(object())
    with pytest.raises(TypeError, match="float"):
        json_form([1.5])


def test_bilinear_form_report_form():
    k = subfield_from_elements(10, [0, 2, 4, 6, 8])
    report, _ = bilinear_form_analyze(SubfieldMatrix.from_rows(k, [[0, 2], [8, 0]]))
    assert report.to_json() == {"rank": 2, "symmetric": False, "skew": True}


@pytest.mark.parametrize(
    "q, rows, form",
    [
        (5, [[1, 2], [2, 4]], {"reason": "defective_eigenvalue", "defective_value": 0,
                               "geometric_multiplicity": 1, "algebraic_multiplicity": 2}),
        (3, [[0, 1], [1, 1]], {"reason": "char_poly_does_not_split_over_k",
                               "defective_value": None, "geometric_multiplicity": None,
                               "algebraic_multiplicity": None}),
    ],
)
def test_spectral_diagnostic_form(q, rows, form):
    diagnostic = spectral_decompose(SubfieldMatrix.from_rows(Subfield.whole_prime(q), rows))
    assert diagnostic.to_json() == form


@pytest.mark.parametrize(
    "items",
    [
        [(0, 1, 2), (3, 4, 5), ()],
        [(1, Fraction(1, 2)), (2, 3)],
        [(1, (2, 3)), (4, 5)],
        [(True, 0), (1, None, "x")],
        [(1, 2), [3, 4]],
    ],
    ids=["plain", "fraction", "nested", "bool", "mixed-sequences"],
)
def test_list_of_tuples_matches_the_per_item_form(items):
    per_item = [json_form(v) for v in items]
    assert json_form(items) == per_item
    assert json_form(tuple(items)) == per_item
    assert json.dumps(json_form(items)) == json.dumps(per_item)
