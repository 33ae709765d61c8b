"""Which involutions classify recognises, and which it refuses.

tests/data/recognition.json holds one cell per involution: its family, the
seed, the conjugator, the degree of the map classified and what
classify_involution gives for the map, its label and note or its refusal.
The test rebuilds every cell and compares. A change meant to alter a cell
regenerates the file, from the repository root, and shows the difference in
review:

    PYTHONPATH=src:. python tests/test_recognition.py

The families are the linear involution LINEAR, DJ(d) for d = 2, 3, 4 as
make_dj_instance(d, seed) builds it, and the closed-form Geiser map of the
builtin 7 points (tests/data/geiser7_map.json). The conjugators are drawn
from SplitMix64(seed): A sigma A^-1 for a unimodular A (linear_conjugator),
and phi sigma phi^-1 for phi = A o s o B with s = (yz : xz : xy)
(quadratic_conjugator). The linear and Geiser maps do not depend on the
seed, so each has one cell as built. Only cells that take well under a
second are here: the quadratic conjugates of DJ(3) and above, and of the
Geiser map, are not.
"""

import json
from pathlib import Path

import pytest

from planecremona.cli import parse_map
from planecremona.errors import ValidationError
from planecremona.fixedcurve import classify_involution
from planecremona.involutions import validate_dj
from tests.streams import (
    SplitMix64, conjugate, linear_conjugator, linear_map, make_dj_instance, quadratic_conjugator,
)

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "data" / "recognition.json"
GEISER_MAP = ROOT / "tests" / "data" / "geiser7_map.json"
LINEAR = ((1, 0, 2), (0, -1, 0), (0, 0, -1))
SEEDS = (1, 2)
CONJUGATORS = {"linear": linear_conjugator, "quadratic": quadratic_conjugator}


def cells():
    """(family, seed, conjugator) of every cell, seed None where the map
    does not depend on it."""
    out = [("linear", None, "none")]
    out += [("linear", s, c) for c in ("linear", "quadratic") for s in SEEDS]
    for d in (2, 3, 4):
        out += [(f"DJ({d})", s, c) for c in ("none", "linear") for s in SEEDS]
    out += [("DJ(2)", s, "quadratic") for s in SEEDS]
    out += [("Geiser", None, "none")] + [("Geiser", s, "linear") for s in SEEDS]
    return out


def _family_map(family, seed):
    if family == "linear":
        return linear_map(LINEAR)
    if family == "Geiser":
        return parse_map(";".join(json.loads(GEISER_MAP.read_text(encoding="utf-8"))["components"]))
    return validate_dj(*make_dj_instance(int(family[3:-1]), seed)).map


def outcome(family, seed, conjugator):
    """The cell as stored: the map's degree and classify's label and note,
    or its refusal."""
    sigma = _family_map(family, seed)
    if conjugator != "none":
        sigma = conjugate(sigma, *CONJUGATORS[conjugator](SplitMix64(seed)))
    cell = {"family": family, "seed": seed, "conjugator": conjugator, "degree": sigma.degree}
    try:
        found = classify_involution(sigma)
    except ValidationError as err:
        cell.update(reason=err.reason, error=str(err))
    else:
        cell.update(label=found.invariant.source, note=found.note)
    return cell


def _table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_has_every_cell_once():
    assert [(c["family"], c["seed"], c["conjugator"]) for c in _table()] == cells()


@pytest.mark.parametrize("family, seed, conjugator", cells())
def test_classify_gives_the_stored_cell(family, seed, conjugator):
    stored = {(c["family"], c["seed"], c["conjugator"]): c for c in _table()}
    assert outcome(family, seed, conjugator) == stored[family, seed, conjugator]


if __name__ == "__main__":
    lines = ",\n".join(json.dumps(outcome(*cell), sort_keys=True) for cell in cells())
    TABLE.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"{len(cells())} cells")
