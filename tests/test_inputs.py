from fractions import Fraction

import pytest

from realearn import Challenge
from realearn.inputs import (
    InputError,
    RealSpec,
    build_points,
    build_reals,
    load_document,
    load_script,
    parse_fraction,
    rational_points,
    real_limits,
)


def test_parse_fraction_accepts_exact_forms():
    parsed = [parse_fraction(form) for form in ("3/2", "-5", 7)]
    assert parsed == [Fraction(3, 2), Fraction(-5), Fraction(7)]


@pytest.mark.parametrize("bad", [1.5, True, "0.5.1", "1/0", None, [1],
                                 "1e10000000", "1e5",
                                 pytest.param("1.5", id="decimal-string")])
def test_parse_fraction_rejects_inexact_forms(bad):
    with pytest.raises(InputError):
        parse_fraction(bad)


def test_load_reals_document(tmp_path):
    doc_path = tmp_path / "reals.jsonl"
    doc_path.write_text(
        '{"type": "real", "kind": "rational", "value": "1/2"}\n'
        '\n'
        '{"type": "real", "kind": "blurred", "value": -2}\n'
        '{"type": "real", "kind": "table",'
        ' "prefix": [["0/1", "1/1"]], "tail": "1/2"}\n')
    document = load_document(doc_path)
    limits = real_limits(document)
    assert limits == [Fraction(1, 2), Fraction(-2), Fraction(1, 2)]
    reals = build_reals(document)
    assert len(reals) == 3
    at_0 = reals[1].interval_at(0)
    assert at_0 == (Fraction(-5, 2), Fraction(-3, 2))


def test_load_points_document(tmp_path):
    doc_path = tmp_path / "points.jsonl"
    doc_path.write_text(
        '{"type": "point", "index": 1, "x": "1/1", "y": "2/1"}\n'
        '{"type": "point", "index": 0, "x": {"kind": "blurred", "value": "0/1"},'
        ' "y": "-1/1"}\n')
    document = load_document(doc_path)
    # records sort by index regardless of file order
    assert [p.index for p in document.points] == [0, 1]
    points = build_points(document)
    # y coordinates occupy real indices 0..n, x coordinates follow
    assert points[0].y.index == 0 and points[1].y.index == 1
    assert points[0].x.index == 2 and points[1].x.index == 3
    limits = rational_points(document)
    assert (limits[1].x, limits[1].y) == (Fraction(1), Fraction(2))


@pytest.mark.parametrize("line,fragment", [
    ('{"type": "real", "kind": "decimal", "value": "1"}', "unknown real kind"),
    ('{"type": "widget"}', "unknown record type"),
    ('{"type": "real", "kind": "rational"}', "needs a value"),
    ('{"type": "real", "kind": "table", "prefix": [["0/1"]], "tail": "0/1"}',
     "bad table interval"),
    ('{"type": "point", "index": "zero", "x": "0/1", "y": "0/1"}',
     "index must be an integer"),
    ('not json', "invalid JSON"),
    ('[1, 2]', "must be an object"),
])
def test_load_document_rejects_malformed_lines(tmp_path, line, fragment):
    doc_path = tmp_path / "bad.jsonl"
    doc_path.write_text(line + "\n")
    with pytest.raises(InputError) as exc:
        load_document(doc_path)
    assert fragment in str(exc.value)


def test_load_document_requires_dense_point_indices(tmp_path):
    doc_path = tmp_path / "sparse.jsonl"
    doc_path.write_text(
        '{"type": "point", "index": 0, "x": "0/1", "y": "0/1"}\n'
        '{"type": "point", "index": 2, "x": "1/1", "y": "1/1"}\n')
    with pytest.raises(InputError) as exc:
        load_document(doc_path)
    assert "dense" in str(exc.value)


def test_load_script(tmp_path):
    script_path = tmp_path / "script.jsonl"
    script_path.write_text(
        '{"j": 3, "precision": 33}\n'
        '{"j": 2, "precision": 25, "force": true}\n')
    assert load_script(script_path) == [
        Challenge(3, 33), Challenge(2, 25, force=True)]
    script_path.write_text('{"j": 1, "precision": "high"}\n')
    with pytest.raises(InputError):
        load_script(script_path)


def test_table_spec_eagerly_validates(tmp_path):
    doc_path = tmp_path / "badtable.jsonl"
    doc_path.write_text(
        '{"type": "real", "kind": "table",'
        ' "prefix": [["1/1", "0/1"]], "tail": "0/1"}\n')
    document = load_document(doc_path)
    with pytest.raises(InputError) as exc:
        build_reals(document)
    assert str(exc.value) == ("invalid interval table at index 0: "
                              "lower endpoint above upper endpoint")


def test_real_spec_shorthand():
    spec = RealSpec.from_obj("5/4")
    assert spec.kind == "rational" and spec.limit == Fraction(5, 4)
    assert RealSpec.from_obj(3).limit == Fraction(3)
