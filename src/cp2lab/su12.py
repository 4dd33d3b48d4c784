"""The group SU(1,2) acting on the complex projective plane.

Matrices preserving the Hermitian form Q(v, w) = -v0*conj(w0) + v1*conj(w1)
+ v2*conj(w2) of signature (1,2), with unit determinant.  The unit ball
{Q < 0} is the projective model of complex hyperbolic 2-space; this module
classifies group elements by their fixed points relative to that ball:

* elliptic: fixes a point inside the ball;
* parabolic: no interior fixed point, exactly one boundary fixed point
  (or a pointwise-fixed projective line tangent to the boundary sphere);
* hyperbolic: no interior fixed point, two boundary fixed points.

Parabolic elements split further by Jordan structure: a double eigenvalue
with a size-2 block acts as a rotation on the tangent line through the
fixed point ("rotational"); a unipotent with blocks [2,1] fixes the
tangent line pointwise ("line_fixing"); a unipotent with a single size-3
block has one fixed point that is attractive and repulsive at once
("three_step").

The five-parameter Lie algebra element

    [ -i(b1+b2)   l1    l2 ]
    [  conj(l1)   ib1   c  ]
    [  conj(l2)  -conj(c)  ib2 ]

with b1, b2 real and l1, l2, c complex spans the algebra; normal forms for
hyperbolic and parabolic elements are exposed as convenience constructors.

Membership rule: a matrix a caller passes, to GroupElement or to any
public entry, is checked once at GROUP_TOL; an element the library
computes (GroupElement.exp, @, inverse, the normal form's conjugator) at
the looser _COMPUTED_TOL, which its rounding needs.  A matrix that is not
finite, or whose check overflows, is not a member.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    AmbiguousClustering,
    DegenerateElement,
    NotFixed,
    NotInGroup,
    NotNonElliptic,
    NotOnBoundary,
)
from .linalg3 import (
    MERGE_TOL,
    _OMEGA,
    EigenData,
    ProjectivePoint,
    as_mat3,
    canonical_coords,
    det3,
    _jordan_shape_from,
    eig3,
    inv3,
    mat_exp,
)

GROUP_TOL = 1e-9      # form and determinant tolerance, relative to max(1, max|M_ij|^2)
_COMPUTED_TOL = 1e-7  # the same for computed elements (module docstring)
BOUNDARY_TOL = 1e-8   # |Q| below this (times |v|^2) counts as boundary
UNIT_MODULUS_TOL = 1e-7  # eigenvalue modulus deviation separating hyperbolic

J = np.diag([-1.0, 1.0, 1.0]).astype(complex)

_CUBE_ROOTS_OF_UNITY = (1 + 0j, _OMEGA, _OMEGA.conjugate())


def hermitian_pairing(v, w) -> complex:
    """Q(v, w); linear in v, conjugate linear in w."""
    a = np.asarray(v, dtype=complex).reshape(3)
    b = np.asarray(w, dtype=complex).reshape(3)
    return complex(-a[0] * b[0].conjugate() + a[1] * b[1].conjugate() + a[2] * b[2].conjugate())


def q_value(v) -> float:
    return hermitian_pairing(v, v).real


class Location(str, Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Kind(str, Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


class ParabolicKind(str, Enum):
    ROTATIONAL = "rotational"
    LINE_FIXING = "line_fixing"
    THREE_STEP = "three_step"


def _location(q: float, norm2: float, tol: float) -> Location:
    """Location of a vector with Q-value q and squared norm norm2."""
    if abs(q) <= tol * norm2:
        return Location.BOUNDARY
    return Location.INSIDE if q < 0 else Location.OUTSIDE


def locate(p: ProjectivePoint, tol: float = BOUNDARY_TOL) -> Location:
    """Position of a point relative to the unit ball {Q < 0}."""
    v = p.vector
    return _location(q_value(v), float(np.vdot(v, v).real), tol)


def is_group_member(m, tol: float = GROUP_TOL) -> bool:
    """True iff M preserves the form and det M = 1, both within tol relative
    to max(1, max|M_ij|^2): the rounding error of M^dagger J M grows like
    the square of the entries, so an absolute tol refuses large elements.
    False, never an error, for a matrix that is not finite or whose check
    overflows (max|M_ij|^2 above the float range)."""
    a = np.asarray(m, dtype=complex)
    size = float(np.abs(as_mat3(a)).max()) if np.isfinite(a).all() else math.inf
    if size * size == math.inf:
        return False
    scale = max(1.0, size * size)
    form_err = float(np.abs(a.conj().T @ J @ a - J).max())
    d = det3(a) - 1.0  # hypot, since abs raises OverflowError past the float range
    return form_err <= tol * scale and math.hypot(d.real, d.imag) <= tol * scale


@dataclass(frozen=True)
class AlgebraElement:
    """Five-parameter Lie algebra element of su(1,2)."""

    b1: float
    b2: float
    l1: complex
    l2: complex
    c: complex

    def matrix(self) -> np.ndarray:
        b1, b2 = float(self.b1), float(self.b2)
        l1, l2, c = complex(self.l1), complex(self.l2), complex(self.c)
        return np.array(
            [
                [-1j * (b1 + b2), l1, l2],
                [l1.conjugate(), 1j * b1, c],
                [l2.conjugate(), -c.conjugate(), 1j * b2],
            ],
            dtype=complex,
        )

    @classmethod
    def hyperbolic_normal(cls, l: float, b: float) -> "AlgebraElement":
        """Generator whose exponential fixes [1:1:0], [1:-1:0] and [0:0:1].

        The exponential has eigenvalues exp(l+ib), exp(-l+ib), exp(-2ib);
        for l > 0 the point [1:1:0] is the attractive boundary fixed point.
        """
        return cls(b1=b, b2=-2.0 * b, l1=complex(l), l2=0j, c=0j)

    @classmethod
    def parabolic_normal(cls, d1: float, d2: float, c: complex) -> "AlgebraElement":
        """Generator fixing the boundary point [1:1:0] with imaginary weight.

        Eigenvalues are i*d2 and -i*d2/2 (twice).  d2 != 0 gives the
        rotational subtype; d2 = 0 with c = 0 fixes the tangent line
        pointwise; d2 = 0 with c != 0 is nilpotent of order three.
        """
        return cls(b1=d1, b2=d2, l1=1j * (d1 + d2 / 2.0), l2=complex(c), c=complex(c))


def _member_matrix(matrix, tol: float) -> np.ndarray:
    a = np.asarray(matrix, dtype=complex)
    if not is_group_member(a, tol):
        raise NotInGroup("matrix does not preserve the signature-(1,2) form with unit determinant")
    return a


class GroupElement:
    """A member of SU(1,2), checked by the module docstring's rule."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self.matrix = _member_matrix(matrix, GROUP_TOL)

    @classmethod
    def _computed(cls, matrix) -> "GroupElement":
        element = cls.__new__(cls)
        element.matrix = _member_matrix(matrix, _COMPUTED_TOL)
        return element

    @classmethod
    def exp(cls, algebra: AlgebraElement) -> "GroupElement":
        """exp(algebra); NotInGroup when it or its exponential is not finite."""
        a = algebra.matrix()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused as not finite
            return cls._computed(mat_exp(a) if np.isfinite(a).all() else a)

    def inverse(self) -> "GroupElement":
        # A^-1 = J A^dagger J for members of the group
        return GroupElement._computed(J @ self.matrix.conj().T @ J)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement._computed(self.matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"GroupElement({self.matrix.tolist()!r})"


def _as_group_element(a) -> GroupElement:
    """a itself if it is a GroupElement, which is checked already, else
    GroupElement(a).  Each public entry calls this once and passes the
    element down, so a call decides membership once."""
    return a if isinstance(a, GroupElement) else GroupElement(a)


@dataclass(frozen=True)
class ProjectiveLine:
    """Line of CP^2 through its canonical dual (vanishing functional) coordinates."""

    coords: tuple[complex, complex, complex]

    @classmethod
    def from_dual(cls, v) -> "ProjectiveLine":
        return cls(canonical_coords(v))

    @classmethod
    def through_points(cls, p: ProjectivePoint, q: ProjectivePoint) -> "ProjectiveLine":
        return cls.from_dual(np.cross(p.vector, q.vector))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def contains(self, p, tol: float = 1e-9) -> bool:
        l = self.vector
        v = p.vector if isinstance(p, ProjectivePoint) else np.asarray(p, dtype=complex).reshape(3)
        val = abs(np.dot(l, v))
        return val <= tol * float(np.linalg.norm(l)) * float(np.linalg.norm(v))


def line_intersection(l1: ProjectiveLine, l2: ProjectiveLine) -> ProjectivePoint:
    return ProjectivePoint.from_vector(np.cross(l1.vector, l2.vector))


def tangent_line(p: ProjectivePoint, tol: float = BOUNDARY_TOL) -> ProjectiveLine:
    """The unique projective line through a boundary point meeting the
    closed ball only there: the Q-orthogonal line {v : Q(v, p) = 0}."""
    if locate(p, tol) != Location.BOUNDARY:
        raise NotOnBoundary(f"{p} is not on the boundary sphere")
    x, y, z = p.coords
    dual = np.array([-x.conjugate(), y.conjugate(), z.conjugate()], dtype=complex)
    return ProjectiveLine.from_dual(dual)


# fixed points ---------------------------------------------------------------

@dataclass(frozen=True)
class FixedPoint:
    point: ProjectivePoint
    location: Location
    eigenvalue: complex


@dataclass(frozen=True)
class FixedPointData:
    """Fixed locus of a group element on CP^2.

    points lists one representative per geometric eigenvector direction
    (for an eigenplane, a Q-diagonalizing pair).  fixed_line is set when a
    whole projective line is fixed pointwise.  fully_degenerate marks
    scalar matrices, which fix every point.
    """

    points: tuple[FixedPoint, ...]
    fixed_line: ProjectiveLine | None = None
    fully_degenerate: bool = False


def _is_scalar(m: np.ndarray) -> bool:
    """True iff m is a multiple of the identity to 1e-9 of its largest entry."""
    bound = 1e-9 * max(float(np.abs(m).max()), 1e-300)
    off = m - np.diag(np.diag(m))
    if float(np.abs(off).max()) > bound:
        return False
    d = np.diag(m)
    return max(abs(d[0] - d[1]), abs(d[0] - d[2])) <= bound


def _hermitian2_eigen(g11: float, g12: complex, g22: float):
    """Eigenvalues (ascending) and eigenvectors of [[g11, g12], [conj(g12), g22]]."""
    mean = 0.5 * (g11 + g22)
    half = 0.5 * (g11 - g22)
    rad = math.hypot(half, abs(g12))
    scale = max(abs(g11), abs(g22), abs(g12), 1e-300)
    if rad <= 1e-14 * scale:
        return [
            (mean, np.array([1.0, 0.0], dtype=complex)),
            (mean, np.array([0.0, 1.0], dtype=complex)),
        ]
    lo, hi = mean - rad, mean + rad
    out = []
    for lam in (lo, hi):
        v1 = np.array([g12, lam - g11], dtype=complex)
        v2 = np.array([lam - g22, g12.conjugate()], dtype=complex)
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        out.append((lam, v / np.linalg.norm(v)))
    return out


def _plane_representatives(v1: np.ndarray, v2: np.ndarray, value: complex,
                           boundary_tol: float) -> list[FixedPoint]:
    """Q-diagonalizing representatives of a pointwise-fixed eigenplane."""
    g11 = q_value(v1)
    g22 = q_value(v2)
    g12 = hermitian_pairing(v1, v2)
    reps = []
    # q(c0 v1 + c1 v2) is the quadratic form of the conjugated Gram matrix
    # in the coefficients, so diagonalize that one
    for lam, coeff in _hermitian2_eigen(g11, g12.conjugate(), g22):
        w = coeff[0] * v1 + coeff[1] * v2
        loc = _location(lam, float(np.vdot(w, w).real), boundary_tol)
        reps.append(FixedPoint(ProjectivePoint.from_vector(w), loc, value))
    return reps


def fixed_points(a, merge_tol: float = MERGE_TOL,
                 boundary_tol: float = BOUNDARY_TOL) -> FixedPointData:
    """Fixed points of the projective action, one per eigenvector direction."""
    m = _as_group_element(a).matrix
    if _is_scalar(m):
        return FixedPointData(points=(), fixed_line=None, fully_degenerate=True)
    return _fixed_points_from(eig3(m, merge_tol=merge_tol), boundary_tol)


def _fixed_points_from(eig: EigenData, boundary_tol: float) -> FixedPointData:
    """Fixed locus of a non-scalar element from its eig3 result."""
    points: list[FixedPoint] = []
    fixed_line = None
    for pair in eig.pairs:
        if len(pair.vectors) >= 2:
            fixed_line = ProjectiveLine.through_points(pair.vectors[0], pair.vectors[1])
            points.extend(
                _plane_representatives(pair.vectors[0].vector, pair.vectors[1].vector,
                                       pair.value, boundary_tol)
            )
        else:
            for pt in pair.vectors:
                points.append(FixedPoint(pt, locate(pt, boundary_tol), pair.value))
    return FixedPointData(points=tuple(points), fixed_line=fixed_line)


# classification -------------------------------------------------------------

def _eigenvalue_ratios(eigenvalues, lam_p: complex) -> tuple[complex, complex]:
    """The two eigenvalues other than lam_p (with multiplicity), divided by lam_p."""
    others = list(eigenvalues)
    others.remove(lam_p)
    ratios = sorted((w / lam_p for w in others), key=lambda z: (z.real, z.imag))
    return (ratios[0], ratios[1])


@dataclass(frozen=True)
class ElementClassification:
    """Verdict of classify, with the spectrum it was decided from.

    eigenvalues lists all three matrix eigenvalues with multiplicity; every
    fixed point's eigenvalue is one of them.
    """

    kind: Kind
    subtype: ParabolicKind | None
    fixed_points: tuple[FixedPoint, ...]
    fixed_line: ProjectiveLine | None
    attractive: FixedPoint | None
    repulsive: FixedPoint | None
    exterior: FixedPoint | None
    eigenvalues: tuple[complex, ...]

    def derivative_eigenvalues(self, fp: FixedPoint) -> tuple[complex, complex]:
        """Eigenvalues of the differential at one of this element's fixed points."""
        return _eigenvalue_ratios(self.eigenvalues, fp.eigenvalue)


def derivative_eigenvalues(a, p: ProjectivePoint, tol: float = 1e-6) -> tuple[complex, complex]:
    """Eigenvalues of the differential of the projective action at a fixed point.

    These are the ratios of the other two matrix eigenvalues (with
    multiplicity) to the eigenvalue carried by the fixed point.  This
    validates a and recomputes its spectrum; for the fixed points of a
    classification, ElementClassification.derivative_eigenvalues reuses
    the spectrum classify computed.  Raises NotInGroup unless a is a member
    at GROUP_TOL.
    """
    m = _as_group_element(a).matrix
    v = p.vector
    eig = eig3(m)
    norm_m = float(np.abs(m).max())
    norm_v = float(np.linalg.norm(v))
    res, value = min(((float(np.linalg.norm(m @ v - pair.value * v)) / (norm_m * norm_v),
                       pair.value) for pair in eig.pairs), key=lambda t: t[0])
    if res > tol:
        raise NotFixed(f"{p} is not fixed (best residual {res})")
    return _eigenvalue_ratios(eig.eigenvalues(), value)


def classify(a, *, unit_tol: float = UNIT_MODULUS_TOL, merge_tol: float = MERGE_TOL,
             boundary_tol: float = BOUNDARY_TOL) -> ElementClassification:
    """Elliptic / parabolic / hyperbolic trichotomy with parabolic subtyping.

    Decision procedure: an eigenvalue modulus off the unit circle means
    hyperbolic; otherwise a diagonalizable element is elliptic (some fixed
    point lies inside the ball); otherwise the Jordan structure selects
    the parabolic subtype.

    The spectrum is computed once, by one eig3 at merge_tol, and the fixed
    locus once from it: the Jordan shape, the fixed points with their
    locations, and the eigenvalues carried by the result (from which
    derivative eigenvalues follow) all come from that pass.  Raises
    AmbiguousClustering whenever a tolerance cannot settle a decision:
    a rank, a cluster of eigenvalues, or fixed points that fit no kind.
    """
    m = _as_group_element(a).matrix
    if _is_scalar(m):
        raise DegenerateElement("degenerate: every point fixed")

    eig = eig3(m, merge_tol=merge_tol)
    data = _fixed_points_from(eig, boundary_tol)
    boundary = [fp for fp in data.points if fp.location == Location.BOUNDARY]

    def verdict(kind, subtype=None, attractive=None, repulsive=None, exterior=None):
        return ElementClassification(kind, subtype, data.points, data.fixed_line, attractive,
                                     repulsive, exterior, tuple(eig.eigenvalues()))

    if max(abs(abs(pair.value) - 1.0) for pair in eig.pairs) > unit_tol:
        if any(pair.multiplicity > 1 or len(pair.vectors) != 1 for pair in eig.pairs):
            raise AmbiguousClustering("off-unit eigenvalues merged; classification unstable")
        # Q(Av, Av) = Q(v, v) gives (1 - |lambda|^2) Q(v, v) = 0, so a fixed point
        # whose eigenvalue is off the unit circle lies on the sphere, however
        # far its computed eigenvector misses it
        data = replace(data, points=tuple(
            replace(fp, location=Location.BOUNDARY)
            if abs(abs(fp.eigenvalue) - 1.0) > unit_tol else fp for fp in data.points))
        boundary = [fp for fp in data.points if fp.location == Location.BOUNDARY]
        outside = [fp for fp in data.points if fp.location == Location.OUTSIDE]
        if len(boundary) != 2 or len(outside) != 1:
            raise AmbiguousClustering(
                "hyperbolic element without the expected two boundary and one exterior fixed points"
            )
        # attractive point: both derivative eigenvalue moduli below one,
        # equivalently the boundary point with the larger eigenvalue modulus
        attractive, repulsive = sorted(boundary, key=lambda fp: -abs(fp.eigenvalue))
        return verdict(Kind.HYPERBOLIC, None, attractive, repulsive, outside[0])

    shape = _jordan_shape_from(m, eig, tol=merge_tol)
    if all(size == 1 for sizes in shape.blocks for size in sizes):
        return verdict(Kind.ELLIPTIC)

    if len(eig.pairs) == 2:
        # double eigenvalue with a size-2 block: rotation on the tangent line;
        # pairs come double first, so the points are (double, simple)
        if any(len(pair.vectors) != 1 for pair in eig.pairs):
            raise AmbiguousClustering("rotational parabolic with a degenerate eigenplane")
        p, q = data.points
        if p.location != Location.BOUNDARY:
            raise AmbiguousClustering("parabolic fixed point not on the boundary sphere")
        return verdict(Kind.PARABOLIC, ParabolicKind.ROTATIONAL, p, p, q)

    # triple eigenvalue: unipotent up to a central cube root of unity
    sizes = shape.blocks[0]
    if sizes == (2, 1):
        if data.fixed_line is None or len(boundary) != 1:
            raise AmbiguousClustering("line-fixing parabolic without a tangent fixed line")
        p = boundary[0]
        return verdict(Kind.PARABOLIC, ParabolicKind.LINE_FIXING, p, p)
    if sizes == (3,):
        p = data.points[0]
        if p.location != Location.BOUNDARY:
            raise AmbiguousClustering("parabolic fixed point not on the boundary sphere")
        return verdict(Kind.PARABOLIC, ParabolicKind.THREE_STEP, p, p)
    raise AmbiguousClustering(f"unrecognized unit-modulus Jordan structure {shape.blocks}")


# normal forms ---------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicParams:
    """Translation length l > 0 and rotation phase b in (-pi, pi].

    The group element equals exp of hyperbolic_normal(l, b) after
    conjugation.  Projectively b only matters modulo 2*pi/3; the
    projective_phase property reports that representative in (-pi/3, pi/3].
    """

    l: float
    b: float

    @property
    def projective_phase(self) -> float:
        third = 2.0 * math.pi / 3.0
        b = math.fmod(self.b, third)
        if b > third / 2.0:
            b -= third
        elif b <= -third / 2.0:
            b += third
        return b


@dataclass(frozen=True)
class ParabolicParams:
    """Parameters (d1, d2, c) of the parabolic normal form.

    central_phase is the cube root of unity zeta such that the conjugated
    element equals zeta * exp of parabolic_normal(d1, d2, c); it is 1
    whenever the element lies in the image of the exponential.
    """

    d1: float
    d2: float
    c: complex
    central_phase: complex = 1 + 0j


@dataclass(frozen=True)
class NormalForm:
    kind: Kind
    subtype: ParabolicKind | None
    conjugator: GroupElement
    matrix: np.ndarray
    params: HyperbolicParams | ParabolicParams


# bound on max|G A G^-1 - normal form|, relative to max(1, max|G A G^-1|)
_NORMAL_FORM_RESIDUAL_TOL = 1e-7
_MODEL_FRAME = np.array([[1, 1, 0], [1, -1, 0], [0, 0, 1]], dtype=complex)


def _frame_transport(v1: np.ndarray, v2: np.ndarray, u0: np.ndarray) -> np.ndarray:
    """Group element sending v1, v2, u0 to [1:1:0], [1:-1:0], [0:0:1].

    Requires Q(v1,v1) = Q(v2,v2) = 0, Q(v1,v2) != 0 and Q(u0,u0) > 0 with
    u0 orthogonal to both, i.e. a Q-adapted frame.
    """
    s = hermitian_pairing(v1, v2)
    if abs(s) < 1e-14:
        raise AmbiguousClustering("null frame vectors are Q-orthogonal; cannot adapt frame")
    beta = (-2.0 / s).conjugate()
    qu = q_value(u0)
    if qu <= 0:
        raise AmbiguousClustering("frame completion vector is not Q-positive")
    t = np.column_stack([v1, beta * v2, u0 / math.sqrt(qu)])
    g = _MODEL_FRAME @ inv3(t)
    d = det3(g)
    g = g / d ** (1.0 / 3.0)
    return g


def _complete_null_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second null vector (non-orthogonal to p) and the positive complement."""
    weights = [abs(hermitian_pairing(e, p)) for e in np.eye(3, dtype=complex)]
    w0 = np.eye(3, dtype=complex)[int(np.argmax(weights))]
    s = hermitian_pairing(p, w0)
    # only the component of Q(w) along p matters: w0 + t p stays paired with p
    t = -q_value(w0) / (2.0 * s)
    w = w0 + t * p
    a = (J @ p.conj()).reshape(3)
    b = (J @ w.conj()).reshape(3)
    u = np.cross(a, b)
    return w, u


def _parabolic_log(b_mat: np.ndarray, cls: ElementClassification) -> tuple[np.ndarray, complex]:
    """Algebra element a (and central phase zeta) with zeta*exp(a) = b_mat.

    b_mat is conjugate to the classified element, so the eigenvalues come
    from the classification: the double one at the boundary fixed point,
    the simple one at the exterior point of a rotational element.
    """
    eye = np.eye(3, dtype=complex)
    if cls.subtype == ParabolicKind.ROTATIONAL:
        mu, nu = cls.attractive.eigenvalue, cls.exterior.eigenvalue
        base = cmath.phase(nu)
        candidates = [base, base + 2.0 * math.pi, base - 2.0 * math.pi]
        d2 = min(candidates, key=lambda t: abs(cmath.exp(-0.5j * t) - mu))
        p_nu = (b_mat - mu * eye) @ (b_mat - mu * eye) / (nu - mu) ** 2
        p_mu = eye - p_nu
        nil = (b_mat - mu * eye) @ p_mu
        a = (-0.5j * d2) * p_mu + (1j * d2) * p_nu + nil / mu
        return a, 1 + 0j
    # unipotent up to a central cube root of unity
    zeta = min(_CUBE_ROOTS_OF_UNITY, key=lambda w: abs(w - cls.attractive.eigenvalue))
    u = b_mat / zeta
    n = u - eye
    a = n - (n @ n) / 2.0
    return a, zeta


def conjugate_to_normal_form(a, *, merge_tol: float = MERGE_TOL) -> NormalForm:
    """Conjugate a hyperbolic or parabolic element into its normal form.

    Hyperbolic: the attractive and repulsive boundary fixed points go to
    [1:1:0] and [1:-1:0]; the returned (l, b) satisfy
    exp(hyperbolic_normal(l, b)) = G A G^-1 with l > 0.

    Parabolic: the boundary fixed point goes to [1:1:0]; the returned
    (d1, d2, c) satisfy zeta * exp(parabolic_normal(d1, d2, c)) = G A G^-1
    where zeta is a cube root of unity (1 unless the element is a central
    multiple of a unipotent).
    """
    element = _as_group_element(a)
    m = element.matrix
    cls = classify(element, merge_tol=merge_tol)
    if cls.kind == Kind.ELLIPTIC:
        raise NotNonElliptic("normal forms exist only for hyperbolic and parabolic elements")

    if cls.kind == Kind.HYPERBOLIC:
        g = _frame_transport(cls.attractive.point.vector, cls.repulsive.point.vector,
                             cls.exterior.point.vector)
        b_mat = g @ m @ inv3(g)
        lam = cls.attractive.eigenvalue
        params = HyperbolicParams(l=math.log(abs(lam)), b=cmath.phase(lam))
        target = mat_exp(AlgebraElement.hyperbolic_normal(params.l, params.b).matrix())
    else:
        p = cls.attractive.point.vector
        g = _frame_transport(p, *_complete_null_frame(p))
        b_mat = g @ m @ inv3(g)
        alg, zeta = _parabolic_log(b_mat, cls)
        params = ParabolicParams(d1=float(alg[1, 1].imag), d2=float(alg[2, 2].imag),
                                 c=complex(alg[1, 2]), central_phase=zeta)
        target = zeta * mat_exp(AlgebraElement.parabolic_normal(params.d1, params.d2,
                                                                params.c).matrix())
    scale = max(1.0, float(np.abs(b_mat).max()))
    if float(np.abs(b_mat - target).max()) > _NORMAL_FORM_RESIDUAL_TOL * scale:
        raise AmbiguousClustering(f"{cls.kind.value} normal form residual exceeds tolerance")
    return NormalForm(cls.kind, cls.subtype, GroupElement._computed(g), b_mat, params)
