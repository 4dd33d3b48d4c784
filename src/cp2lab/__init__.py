"""Projective dynamics of SU(1,2) on CP^2 and exact Picard-lattice surgery."""

from .dynamics import (
    BasinReport,
    OrbitResult,
    basin_coverage_check,
    converge,
    iterate,
)
from .errors import Cp2LabError
from .lattice import (
    DefiniteForm,
    DivisorClass,
    LatticeIsometry,
    PicardLattice,
    PushforwardMap,
    enumerate_exceptional_classes,
    find_contractible_component,
    hirzebruch_lattice,
    isometry_order_on_classes,
    p2_lattice,
    square_one_classes,
)
from .linalg3 import (
    EigenData,
    EigenPair,
    JordanShape,
    ProjectivePoint,
    chordal_distance,
    cubic_roots,
    eig3,
    jordan_shape,
    mat_exp,
)
from .replay import (
    Script,
    SurfaceState,
    builtin_sigma0_singular,
    builtin_sigma2_singular,
    builtin_sigma_chain,
    builtin_sigma_step,
    builtin_standard_blowups,
    run,
    script_from_json,
)
from .su12 import (
    AlgebraElement,
    ElementClassification,
    FixedPoint,
    FixedPointData,
    GroupElement,
    HyperbolicParams,
    Kind,
    Location,
    NormalForm,
    ParabolicKind,
    ParabolicParams,
    ProjectiveLine,
    classify,
    conjugate_to_normal_form,
    derivative_eigenvalues,
    fixed_points,
    hermitian_pairing,
    is_group_member,
    line_intersection,
    locate,
    q_value,
    tangent_line,
)

__version__ = "0.1.0"
