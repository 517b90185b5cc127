"""Records are ``typing.NamedTuple``s, and the library loads no dataclasses.

Every module under ``src/tvpm`` is parsed, not imported, and searched for
an import of ``dataclasses``, beside ``test_float_free.py``'s float guard.
The two validated records, ``PointConfig`` and ``ColorClasses``, keep the
behaviour of the frozen dataclasses they replace: the same keyword
signature, the same ``ValueError`` per malformed input (through
``_replace`` too), no assignment to a field, and a ``scaled`` that is
computed once.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

from tvpm.core import (
    AffineCertificate,
    ColorClasses,
    ColorfulPartition,
    Intersection,
    PointConfig,
)
from tvpm.sarkaria import DegenerateGamma, PMCertificate, SeparationViolated
from tvpm.search import NotSeparated, SearchResult, Separated, SpectrumResult

SRC = Path(__file__).resolve().parent.parent / "src" / "tvpm"


def dataclass_imports(tree):
    """The lines that import ``dataclasses``, anywhere in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [node.lineno for a in node.names
                      if a.name.split(".")[0] == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(node.lineno)
    return found


def test_the_guard_sees_each_dataclasses_import():
    code = ("import dataclasses\nfrom dataclasses import dataclass\n"
            "import os, dataclasses as dc\nimport dataclassy\n"
            "def f():\n    from dataclasses import replace\n")
    assert dataclass_imports(ast.parse(code)) == [1, 2, 3, 6]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_module_imports_no_dataclasses(path):
    assert dataclass_imports(ast.parse(path.read_text(), str(path))) == []


RECORDS = [
    (PointConfig, ("d", "r", "points")),
    (AffineCertificate, ("z", "alpha", "negatives", "gamma", "zero_set")),
    (Intersection, ("kind", "cert")),
    (SearchResult, ("found", "partition", "cert", "scanned", "skipped")),
    (SpectrumResult, ("achievable", "scanned", "skipped")),
    (Separated, ("normal", "offset")),
    (NotSeparated, ("point", "m_weights", "rest_weights")),
    (PMCertificate, ("partition", "cert", "alternative", "proper",
                     "separation_warning", "separation")),
    (SeparationViolated, ("common_point", "part", "m_weights",
                          "rest_weights")),
    (DegenerateGamma, ("choice", "weights")),
    (ColorClasses, ("d", "r", "classes")),
    (ColorfulPartition, ("assignment", "alpha", "z", "gamma", "negatives",
                         "zero_set", "alternative")),
]


@pytest.mark.parametrize("record, fields", RECORDS,
                         ids=[r.__name__ for r, _ in RECORDS])
def test_records_are_named_tuples_in_field_order(record, fields):
    # results are built positionally, so the field order is the interface
    assert issubclass(record, tuple)
    assert record._fields == fields


SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1), (F(1, 3), F(1, 2)))


def test_point_config_coerces_and_keeps_its_signature():
    cfg = PointConfig(d=2, r=3, points=[list(p) for p in SQUARE])
    assert cfg == PointConfig(2, 3, SQUARE)
    assert cfg.points == SQUARE
    assert all(type(x) is F for p in cfg.points for x in p)
    assert isinstance(cfg.points, tuple) and isinstance(cfg.points[0], tuple)
    assert (cfg.n, cfg.full_size, cfg.is_full) == (5, 7, False)
    assert repr(PointConfig(d=1, r=2, points=[[1]])) == (
        "PointConfig(d=1, r=2, points=((Fraction(1, 1),),))")


@pytest.mark.parametrize("d, r, points, message", [
    (0, 2, [[]], "d must be >= 1"),
    (1, 1, [[0]], "r must be >= 2"),
    (1, 2, [], "need at least one point"),
    (2, 2, [[0, 0], [1]], "point dimension mismatch"),
    (1, 2, [[0], [F(2, 2)], [1]], "points must be distinct"),
    (2, 2, [[F(1, 2), 0], [F(2, 4), 0]], "points must be distinct"),
], ids=["d", "r", "empty", "dimension", "distinct", "distinct-reduced"])
def test_point_config_rejects_malformed_input(d, r, points, message):
    with pytest.raises(ValueError) as info:
        PointConfig(d=d, r=r, points=points)
    assert str(info.value) == message


PAIRS = (((0,), (4,)), ((1,), (3,)))


def test_color_classes_coerce_and_keep_their_signature():
    cc = ColorClasses(d=1, r=2, classes=[[list(p) for p in g] for g in PAIRS])
    assert cc == ColorClasses(1, 2, PAIRS)
    assert cc.classes == PAIRS
    assert all(type(x) is F for g in cc.classes for p in g for x in p)
    assert cc.n == 2


@pytest.mark.parametrize("d, r, classes, message", [
    (0, 2, [], "d must be >= 1"),
    (1, 1, [], "r must be >= 2"),
    (1, 2, PAIRS[:1], "need (r-1)d+1 classes"),
    (1, 2, (((0,), (4,), (5,)), ((1,), (3,))),
     "every class needs exactly r points"),
    (1, 2, (((0,), (4, 0)), ((1,), (3,))), "point dimension mismatch"),
    (1, 2, (((0,), (4,)), ((F(8, 2),), (3,))),
     "points must be distinct across classes"),
], ids=["d", "r", "count", "class-size", "dimension", "distinct"])
def test_color_classes_reject_malformed_input(d, r, classes, message):
    with pytest.raises(ValueError) as info:
        ColorClasses(d=d, r=r, classes=classes)
    assert str(info.value) == message


@pytest.mark.parametrize("record", [
    PointConfig(d=2, r=3, points=SQUARE),
    ColorClasses(d=1, r=2, classes=PAIRS),
], ids=["PointConfig", "ColorClasses"])
def test_validated_records_are_immutable_and_scale_once(record):
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)
    first = record.scaled
    assert record.scaled is first
    assert first[0] == (6 if isinstance(record, PointConfig) else 1)


def test_replace_runs_the_checks():
    cfg = PointConfig(d=2, r=3, points=SQUARE)
    moved = cfg._replace(points=[[1, 2]] + [list(p) for p in SQUARE[1:]])
    assert type(moved) is PointConfig and moved.points[0] == (F(1), F(2))
    assert moved.scaled == (6, ((6, 12),) + cfg.scaled[1][1:])
    with pytest.raises(ValueError, match="^points must be distinct$"):
        cfg._replace(points=SQUARE[:1] * 2)
    cc = ColorClasses(d=1, r=2, classes=PAIRS)
    with pytest.raises(ValueError, match="^need \\(r-1\\)d\\+1 classes$"):
        cc._replace(r=3)
