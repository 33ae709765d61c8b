"""The package's records: importing the CLI loads no dataclasses module, the
classes that validate or cache are immutable, and every record compares
equal exactly when its fields do."""

import os
import subprocess
import sys

import pytest

from planecremona.exactpoly import HPoly
from planecremona.fixedcurve import Classification, FixedCurveInvariant
from planecremona.involutions import EvalTrace, validate_dj
from planecremona.picard import (
    LatticeInvolution, MinimalityResult, PairClassification, make_lattice, quadric_lattice,
)
from planecremona.projmaps import ProjPoint

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SWAP = ((0, 1), (1, 0))                 # the factor swap on the quadric


def test_importing_the_cli_leaves_dataclasses_unloaded():
    code = ("import sys; before = 'dataclasses' in sys.modules; import planecremona.cli; "
            "print(before, 'dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True).stdout.split()
    before, after = (word == "True" for word in out)
    assert before or not after


def _dj_data():
    x, y, z = (HPoly.variable(i) for i in range(3))
    return validate_dj(x * z - y * y, ProjPoint(0, 1, 0))


def _immutables():
    data = _dj_data()
    return [LatticeInvolution(quadric_lattice(), SWAP), data.pencil, data]


@pytest.mark.parametrize("obj", _immutables(), ids=lambda o: type(o).__name__)
def test_validating_and_caching_classes_are_immutable(obj):
    for name in ("matrix", "center", "d", "anything"):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_minimality_result_is_truthy_exactly_when_minimal():
    assert not MinimalityResult(False)
    assert not MinimalityResult(False, (0, 1), (1, 0), "fixed", -1)
    assert MinimalityResult(True)


def test_named_records_compare_by_their_fields():
    inv = FixedCurveInvariant("empty", None, "DJ(2)")
    minimal = MinimalityResult(True)
    records = [
        make_lattice(3),
        minimal,
        PairClassification("(iv)", minimal, 1),
        EvalTrace(2),
        inv,
        Classification(inv, "a note"),
        _dj_data(),
    ]
    for rec in records:
        twin = type(rec)(*rec)
        assert twin == rec and hash(twin) == hash(rec)
        for name in rec._fields:
            other = rec._replace(**{name: object()})
            assert other != rec and not other == rec


def _rebuilt(obj, **changes):
    """obj's class built from its fields, with some of them replaced."""
    if isinstance(obj, LatticeInvolution):
        fields = {"lattice": obj.lattice, "matrix": obj.matrix}
    else:
        fields = {"center": obj.center, "frame": obj.frame, "u": obj.u, "v": obj.v}
    return type(obj)(**{**fields, **changes})


def test_immutable_records_compare_by_their_fields():
    data = _dj_data()
    inv = LatticeInvolution(quadric_lattice(), SWAP)
    for obj in (inv, data.pencil):
        twin = _rebuilt(obj)
        assert twin is not obj and twin == obj and hash(twin) == hash(obj)
    assert _rebuilt(inv, matrix=((1, 0), (0, 1))) != inv
    assert _rebuilt(inv, lattice=make_lattice(1), matrix=((1, 0), (0, 1))) != inv
    for name in ("center", "frame", "u", "v"):
        assert _rebuilt(data.pencil, **{name: None}) != data.pencil
    assert data != data.pencil and inv != data.pencil
