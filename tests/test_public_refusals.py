"""Refusals reached through public calls, each with its reason and message:
a configuration of the wrong size, a fitted map of the wrong degree, a
lattice matrix with a non-integer entry, the roots of the zero form and a
base-point query on an object that is neither a construction nor a map."""

from fractions import Fraction

import pytest

from planecremona import configs
from planecremona.errors import ValidationError
from planecremona.exactpoly import HPoly, bform_rational_roots, odd_multiplicity_root_count
from planecremona.fixedcurve import rational_base_points
from planecremona.involutions import GeiserInvolution
from planecremona.picard import LatticeInvolution, make_lattice
from planecremona.projmaps import RationalMap

X, Y, Z = (HPoly.variable(i) for i in range(3))


REFUSALS = {
    "geiser of eight points": (lambda geiser: GeiserInvolution(configs.reference_eight_points()),
                               "bad config", "expected a geiser configuration of 7 points"),
    "linear fitted map": (lambda geiser: geiser.certify_map(RationalMap(X, Y, Z), geiser.contracted_pairs),
                          "interpolation failed", "fitted map does not have degree 8"),
    "fraction in a lattice matrix": (
        lambda geiser: LatticeInvolution(make_lattice(1), ((1, 0), (0, Fraction(1)))),
        "bad matrix", "entries must be integers"),
    "odd roots of zero": (lambda geiser: odd_multiplicity_root_count(HPoly.zero(3)),
                          "zero input", "roots of the zero form"),
    "rational roots of zero": (lambda geiser: bform_rational_roots(HPoly.zero(3)),
                               "zero input", "roots of the zero form"),
    "base points of a string": (lambda geiser: rational_base_points("x"),
                                "unknown kind", "not a construction or a map: str"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_a_public_call_is_refused_with_its_reason_and_message(case, geiser):
    call, reason, message = REFUSALS[case]
    with pytest.raises(ValidationError) as err:
        call(geiser)
    assert (err.value.reason, str(err.value)) == (reason, message)
