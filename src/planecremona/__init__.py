"""Exact-arithmetic constructions and classification of the birational
involutions of the projective plane: de Jonquieres involutions of every
degree, the Geiser involution on 7 general points and the Bertini involution
on 8, together with the Picard-lattice computations (minimality test,
exceptional-class enumeration, structure labels) behind the classification.
"""

from .errors import ExtractionError, IndeterminacyError, ValidationError
from .exactpoly import (
    HPoly,
    bform_gcd,
    hpoly_gcd,
    is_squarefree,
    kernel_basis,
    matrix_rank,
    resultant,
)
from .projmaps import (
    ProjPoint,
    RationalMap,
    compose,
    is_identity,
    is_involution,
    pencil_form,
)
from .involutions import (
    BertiniInvolution,
    DJData,
    GeiserInvolution,
    PointConfig,
    cubic_system,
    dj_from_conic,
    make_point_config,
    sextic_system,
    validate_dj,
)
from .fixedcurve import (
    FixedCurveInvariant,
    classify_involution,
    fixed_locus,
    invariant_of,
)
from .picard import (
    LatticeInvolution,
    PicLattice,
    anti_reflection_in_k,
    classify_pair,
    exceptional_classes,
    exceptional_classes_bruteforce,
    fixed_rank,
    is_minimal,
    make_lattice,
    quadric_lattice,
    reflection_through,
)
from . import configs

__version__ = "0.1.0"
