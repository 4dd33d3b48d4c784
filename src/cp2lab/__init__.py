"""Projective dynamics of SU(1,2) on CP^2 and exact Picard-lattice surgery.

The names below are re-exported from their modules, each loaded on first
access (PEP 562), so `import cp2lab` loads no submodule.  Of the SU(1,2)
layers, dynamics loads numpy, while su12 and linalg3 import it only inside
the functions that build arrays; the lattice layers (lattice, replay) are
exact integer arithmetic and never do.  So of the command-line subcommands
(cli), only basin and classify --exp load numpy; classify of a matrix,
lattice, replay and --help never do.
"""

import importlib

_EXPORTS = {
    "dynamics": ("BasinReport", "OrbitResult", "basin_coverage_check", "converge", "iterate"),
    "errors": ("Cp2LabError",),
    "lattice": (
        "DefiniteForm", "DivisorClass", "LatticeIsometry", "PicardLattice", "PushforwardMap",
        "enumerate_exceptional_classes", "find_contractible_component", "hirzebruch_lattice",
        "isometry_order_on_classes", "p2_lattice", "square_one_classes",
    ),
    "linalg3": (
        "EigenData", "EigenPair", "JordanShape", "ProjectivePoint", "chordal_distance",
        "cubic_roots", "eig3", "jordan_shape", "mat_exp",
    ),
    "replay": (
        "Script", "SurfaceState", "builtin_sigma0_singular", "builtin_sigma2_singular",
        "builtin_sigma_chain", "builtin_sigma_step", "builtin_standard_blowups", "run",
        "script_from_json",
    ),
    "su12": (
        "AlgebraElement", "ElementClassification", "FixedPoint", "FixedPointData",
        "GroupElement", "HyperbolicParams", "Kind", "Location", "NormalForm", "ParabolicKind",
        "ParabolicParams", "ProjectiveLine", "classify", "conjugate_to_normal_form",
        "derivative_eigenvalues", "fixed_points", "hermitian_pairing", "is_group_member",
        "line_intersection", "locate", "q_value", "tangent_line",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
