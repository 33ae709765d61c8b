"""Committed reference configurations.

The 7-point set was produced by a deterministic search: six small points
plus a seventh chosen on the cubic of the net that is nodal at (1:2:-1), so
that the Jacobian sextic of the net has a known small rational point (the
involution fixes it, which the test suite exercises). The 8-point set is a
small configuration in general position: no 3 on a line, no 6 on a conic and
no cubic through all 8 singular at one. Both pass make_point_config, are
frozen here and are mirrored in the data/ text files for the CLI.
"""

from .involutions import PointConfig, make_point_config
from .projmaps import ProjPoint

SEVEN_POINTS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (1, 2, 3),
    (2, 5, 1),
    (12, 41, 5),
)

# small rational point of the Jacobian sextic of the 7-point net
SEXTIC_POINT = (1, 2, -1)

EIGHT_POINTS = (
    (1, 0, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 1, 1),
    (1, 2, 3),
    (2, 5, 1),
    (3, 1, 2),
    (4, -1, 3),
)


def reference_seven_points() -> PointConfig:
    return make_point_config([ProjPoint(*c) for c in SEVEN_POINTS], "geiser")


def reference_eight_points() -> PointConfig:
    return make_point_config([ProjPoint(*c) for c in EIGHT_POINTS], "bertini")
