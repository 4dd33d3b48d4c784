"""JSON encodings shared by the CLI and the file formats.

Complex numbers are two-element [re, im] arrays; matrices are 3x3
row-major nested arrays of those; projective points and lines are
3-element arrays.  Algebra elements use the keyed schema
{"b1": r, "b2": r, "l1": [re, im], "l2": [re, im], "c": [re, im]}.
"""

from __future__ import annotations

import numpy as np

from .dynamics import BasinReport
from .errors import InputFormatError
from .lattice import PicardLattice
from .linalg3 import ProjectivePoint, as_mat3
from .su12 import (
    AlgebraElement,
    ElementClassification,
    FixedPoint,
    Kind,
    ProjectiveLine,
)


def complex_to_json(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(obj) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2:
        raise InputFormatError(f"expected [re, im], got {obj!r}")
    re, im = obj
    if not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
        raise InputFormatError(f"complex parts must be numbers, got {obj!r}")
    return complex(re, im)


def mat3_to_json(m) -> list[list[list[float]]]:
    a = as_mat3(m)
    return [[complex_to_json(a[i, j]) for j in range(3)] for i in range(3)]


def mat3_from_json(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise InputFormatError("matrix must be a 3x3 nested array")
    rows = []
    for row in obj:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise InputFormatError("matrix must be a 3x3 nested array")
        rows.append([complex_from_json(x) for x in row])
    try:
        return as_mat3(rows)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc


def coords_to_json(x: ProjectivePoint | ProjectiveLine) -> list[list[float]]:
    """Canonical coordinates of a projective point or line."""
    return [complex_to_json(c) for c in x.coords]


def algebra_from_json(obj) -> AlgebraElement:
    if not isinstance(obj, dict):
        raise InputFormatError("algebra element must be an object")
    try:
        b1 = obj["b1"]
        b2 = obj["b2"]
        if not isinstance(b1, (int, float)) or not isinstance(b2, (int, float)):
            raise InputFormatError("b1 and b2 must be real numbers")
        return AlgebraElement(
            b1=float(b1),
            b2=float(b2),
            l1=complex_from_json(obj["l1"]),
            l2=complex_from_json(obj["l2"]),
            c=complex_from_json(obj["c"]),
        )
    except KeyError as exc:
        raise InputFormatError(f"algebra element missing key {exc}") from exc


def _fixed_point_to_json(cls: ElementClassification, fp: FixedPoint) -> dict:
    return {
        "point": coords_to_json(fp.point),
        "location": fp.location.value,
        "eigenvalue": complex_to_json(fp.eigenvalue),
        "derivative_eigenvalues": [complex_to_json(z) for z in cls.derivative_eigenvalues(fp)],
    }


def classification_report(cls: ElementClassification) -> dict:
    report = {
        "kind": cls.kind.value,
        "subtype": cls.subtype.value if cls.subtype is not None else None,
        "eigenvalues": [complex_to_json(fp.eigenvalue) for fp in cls.fixed_points],
        "fixed_points": [_fixed_point_to_json(cls, fp) for fp in cls.fixed_points],
        "fixed_line": coords_to_json(cls.fixed_line) if cls.fixed_line is not None else None,
    }
    if cls.kind != Kind.ELLIPTIC:
        for name in ("attractive", "repulsive", "exterior"):
            fp = getattr(cls, name)
            report[name] = coords_to_json(fp.point) if fp is not None else None
    return report


def basin_report_to_json(report: BasinReport) -> dict:
    return {
        "samples": report.samples,
        "to_attractive": report.fraction_to_attractive,
        "backward_to_repulsive": report.fraction_to_repulsive_backward,
        "unresolved": report.unresolved,
        "seed": report.seed,
    }


def lattice_to_json(lat: PicardLattice) -> dict:
    return {
        "labels": list(lat.labels),
        "gram": [list(r) for r in lat.gram],
        "K": list(lat.canonical.coeffs),
    }
