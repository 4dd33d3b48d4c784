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

Scalars and arrays: a GroupElement keeps its rows as Python complexes,
taken once, and membership, classify, fixed_points and the point and line
helpers run on rows and coordinate triples, so classifying a built element
makes no numpy call.  Numpy stays where whole arrays are worked on: mat_exp,
the normal-form frames, and basin sampling and resolution.  Sums of
products (a fixed line, eigenplane representatives) round as Python does,
with no fused multiply-add, so they may differ from numpy's in the last bit.
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
    check_tol,
)
from .linalg3 import (
    MERGE_TOL,
    _OMEGA,
    EigenData,
    ProjectivePoint,
    _canonical,
    _cross,
    _det,
    _jordan_shape_from,
    _mat3,
    _max_abs,
    _norm2,
    det3,
    eig3,
    inv3,
    mat_exp,
)

GROUP_TOL = 1e-9      # form and determinant tolerance, relative to max(1, max|M_ij|^2)
_COMPUTED_TOL = 1e-7  # the same for computed elements (module docstring)
BOUNDARY_TOL = 1e-8   # |Q| below this (times |v|^2) counts as boundary

J = np.diag([-1.0, 1.0, 1.0]).astype(complex)

_CUBE_ROOTS_OF_UNITY = (1 + 0j, _OMEGA, _OMEGA.conjugate())


def _triple(v) -> list[complex]:
    return np.asarray(v, dtype=complex).reshape(3).tolist()


def _pairing(a, b) -> complex:
    """Q(a, b) of two triples of Python complexes."""
    return -a[0] * b[0].conjugate() + a[1] * b[1].conjugate() + a[2] * b[2].conjugate()


def hermitian_pairing(v, w) -> complex:
    """Q(v, w); linear in v, conjugate linear in w."""
    return _pairing(_triple(v), _triple(w))


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
    x = p.coords
    return _location(_pairing(x, x).real, _norm2(x), check_tol(tol))


def is_group_member(m, tol: float = GROUP_TOL) -> bool:
    """True iff M preserves the form and det M = 1, both within tol relative
    to max(1, max|M_ij|^2): the rounding error of M^dagger J M grows like
    the square of the entries, so an absolute tol refuses large elements.
    False, never an error, for a matrix that is not finite or whose check
    overflows (max|M_ij|^2 above the float range).  A GroupElement is
    checked again, on its rows.  Entry (i, j) of M^dagger J M is
    Q(column j, column i), and the error is Hermitian, so its upper
    triangle holds every modulus."""
    check_tol(tol)
    rows = m.rows if isinstance(m, GroupElement) else _mat3(m).tolist()
    try:
        mods = [abs(z) for z in rows[0] + rows[1] + rows[2]]
        size = max(mods)
        # a nan or infinite entry, or max|M_ij|^2 past the float range
        if not math.isfinite(sum(mods) + size * size):
            return False
        c0, c1, c2 = zip(*rows)
        form_err = max(abs(_pairing(c0, c0) + 1.0), abs(_pairing(c1, c1) - 1.0),
                       abs(_pairing(c2, c2) - 1.0), abs(_pairing(c1, c0)),
                       abs(_pairing(c2, c0)), abs(_pairing(c2, c1)))
    except OverflowError:   # a modulus past the float range
        return False
    bound = tol * max(1.0, size * size)
    d = _det(rows) - 1.0  # hypot, since abs raises OverflowError past the float range
    return form_err <= bound and math.hypot(d.real, d.imag) <= bound


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


class GroupElement:
    """A member of SU(1,2), checked by the module docstring's rule: matrix is
    a read-only copy of the caller's matrix, rows its entries as lists of
    Python complexes, on which the spectral path runs."""

    __slots__ = ("matrix", "rows")

    def __init__(self, matrix):
        self._check(matrix, GROUP_TOL)

    @classmethod
    def _computed(cls, matrix) -> "GroupElement":
        element = cls.__new__(cls)
        element._check(matrix, _COMPUTED_TOL)
        return element

    def _check(self, matrix, tol: float) -> None:
        a = _mat3(np.array(matrix, dtype=complex))
        a.flags.writeable = False
        self.matrix, self.rows = a, a.tolist()
        if not is_group_member(self, tol):
            raise NotInGroup("matrix does not preserve the signature-(1,2) form with unit determinant")

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
        return f"GroupElement({self.rows!r})"


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
    def through_points(cls, p: ProjectivePoint, q: ProjectivePoint) -> "ProjectiveLine":
        return cls(_canonical(*_cross(p.coords, q.coords)))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def contains(self, p) -> bool:
        l = self.coords
        v = p.coords if isinstance(p, ProjectivePoint) else _triple(p)
        return abs(l[0] * v[0] + l[1] * v[1] + l[2] * v[2]) <= 1e-9 * math.sqrt(_norm2(l) * _norm2(v))


def line_intersection(l1: ProjectiveLine, l2: ProjectiveLine) -> ProjectivePoint:
    return ProjectivePoint(_canonical(*_cross(l1.coords, l2.coords)))


def tangent_line(p: ProjectivePoint) -> ProjectiveLine:
    """The unique projective line through a boundary point (at BOUNDARY_TOL)
    meeting the closed ball only there: the Q-orthogonal line {v : Q(v, p) = 0}."""
    if locate(p) != Location.BOUNDARY:
        raise NotOnBoundary(f"{p} is not on the boundary sphere")
    x, y, z = p.coords
    return ProjectiveLine(_canonical(-x.conjugate(), y.conjugate(), z.conjugate()))


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


def _is_scalar(rows: list[list[complex]]) -> bool:
    """True iff the matrix with these rows is a multiple of the identity to
    1e-9 of its largest entry."""
    bound = 1e-9 * max(_max_abs(rows), 1e-300)
    (a, b, c), (d, e, f), (g, h, i) = rows
    return max(abs(b), abs(c), abs(d), abs(f), abs(g), abs(h), abs(a - e), abs(a - i)) <= bound


def _hermitian2_eigen(g11: float, g12: complex, g22: float):
    """Eigenvalues (ascending) and unit eigenvectors, as pairs of Python
    complexes, of [[g11, g12], [conj(g12), g22]]."""
    mean = 0.5 * (g11 + g22)
    half = 0.5 * (g11 - g22)
    rad = math.hypot(half, abs(g12))
    scale = max(abs(g11), abs(g22), abs(g12), 1e-300)
    if rad <= 1e-14 * scale:
        return [(mean, (1 + 0j, 0j)), (mean, (0j, 1 + 0j))]
    out = []
    for lam in (mean - rad, mean + rad):
        # the longer of the candidates (g12, lam - g11) and (lam - g22, conj(g12))
        if abs(lam - g11) >= abs(lam - g22):
            x, y = g12, complex(lam - g11)
        else:
            x, y = complex(lam - g22), g12.conjugate()
        norm = math.hypot(abs(x), abs(y))
        out.append((lam, (x / norm, y / norm)))
    return out


def _plane_representatives(v1, v2, value: complex, boundary_tol: float) -> list[FixedPoint]:
    """Q-diagonalizing representatives of a pointwise-fixed eigenplane
    spanned by the coordinate triples v1 and v2."""
    g11 = _pairing(v1, v1).real
    g22 = _pairing(v2, v2).real
    g12 = _pairing(v1, v2)
    reps = []
    # q(c0 v1 + c1 v2) is the quadratic form of the conjugated Gram matrix
    # in the coefficients, so diagonalize that one
    for lam, (c0, c1) in _hermitian2_eigen(g11, g12.conjugate(), g22):
        w = tuple(c0 * x + c1 * y for x, y in zip(v1, v2))
        loc = _location(lam, _norm2(w), boundary_tol)
        reps.append(FixedPoint(ProjectivePoint(_canonical(*w)), loc, value))
    return reps


def fixed_points(a) -> FixedPointData:
    """Fixed points, one per eigenvector direction, located at BOUNDARY_TOL."""
    g = _as_group_element(a)
    if _is_scalar(g.rows):
        return FixedPointData(points=(), fixed_line=None, fully_degenerate=True)
    return _fixed_points_from(eig3(g), BOUNDARY_TOL)


def _fixed_points_from(eig: EigenData, boundary_tol: float) -> FixedPointData:
    """Fixed locus of a non-scalar element from its eig3 result."""
    points: list[FixedPoint] = []
    fixed_line = None
    for pair in eig.pairs:
        if len(pair.vectors) >= 2:
            p, q = pair.vectors[:2]
            fixed_line = ProjectiveLine.through_points(p, q)
            points.extend(_plane_representatives(p.coords, q.coords, pair.value, boundary_tol))
        else:
            points.extend(FixedPoint(v, locate(v, boundary_tol), pair.value) for v in pair.vectors)
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


def derivative_eigenvalues(a, p: ProjectivePoint) -> tuple[complex, complex]:
    """Eigenvalues of the differential of the projective action at a fixed point.

    These are the ratios of the other two matrix eigenvalues (with
    multiplicity) to the eigenvalue carried by the fixed point.  This
    validates a and recomputes its spectrum; for the fixed points of a
    classification, ElementClassification.derivative_eigenvalues reuses
    the spectrum classify computed.  Raises NotInGroup unless a is a member
    at GROUP_TOL, and NotFixed at a relative eigenvector residual above 1e-6.
    """
    g = _as_group_element(a)
    v = p.coords
    eig = eig3(g)
    norm = _max_abs(g.rows) * math.sqrt(_norm2(v))
    mv = [r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in g.rows]
    res, value = min(((math.sqrt(_norm2(tuple(w - pair.value * x for w, x in zip(mv, v)))) / norm,
                       pair.value) for pair in eig.pairs), key=lambda t: t[0])
    if res > 1e-6:
        raise NotFixed(f"{p} is not fixed (best residual {res})")
    return _eigenvalue_ratios(eig.eigenvalues(), value)


def classify(a, *, tol: float | None = None) -> ElementClassification:
    """Elliptic / parabolic / hyperbolic trichotomy with parabolic subtyping.

    Decision procedure: three simple eigenvalues take their kind from the
    sign of Goldman's f(tau) (eig3's disc_sign): +1 is hyperbolic if the
    middle-modulus fixed point is exterior, -1 regular elliptic if one fixed
    point is interior and two exterior.  At a repeated root, a diagonalizable
    element is elliptic, else the Jordan structure selects the parabolic
    subtype.  tol=None decides at BOUNDARY_TOL and MERGE_TOL (eigenvalues
    closer than ten times it are ambiguous); a tol, checked by check_tol,
    replaces both.  No eigenvalue modulus is compared with a tolerance.

    The spectrum is computed once, by one eig3, and the fixed locus once
    from it: the Jordan shape, the located fixed points and the eigenvalues
    carried by the result (for derivative eigenvalues) all come from that
    pass.  Raises AmbiguousClustering whenever a tolerance cannot settle a
    decision: a rank, an eigenvalue cluster, or fixed points that fit no kind.
    """
    gap_tol, boundary_tol = (MERGE_TOL, BOUNDARY_TOL) if tol is None else (check_tol(tol),) * 2
    g = _as_group_element(a)
    if _is_scalar(g.rows):
        raise DegenerateElement("degenerate: every point fixed")

    eig = eig3(g)
    data = _fixed_points_from(eig, boundary_tol)

    def verdict(kind, subtype=None, attractive=None, repulsive=None, exterior=None):
        return ElementClassification(kind, subtype, data.points, data.fixed_line, attractive,
                                     repulsive, exterior, tuple(eig.eigenvalues()))

    if eig.disc_sign < 0:
        if sorted(fp.location for fp in data.points) != ["inside", "outside", "outside"]:
            raise AmbiguousClustering("elliptic sign, fixed points not one inside and two outside")
        return verdict(Kind.ELLIPTIC)
    if eig.disc_sign > 0:
        # Q(Av, Av) = Q(v, v) gives (1 - |lambda|^2) Q(v, v) = 0: the points of least and
        # greatest modulus lie on the sphere, however far their eigenvectors miss it
        middle = sorted(data.points, key=lambda fp: abs(fp.eigenvalue))[1]
        if data.fixed_line is not None or middle.location != Location.OUTSIDE:
            raise AmbiguousClustering("hyperbolic sign, middle-modulus fixed point not outside")
        data = FixedPointData(tuple(fp if fp is middle else replace(fp, location=Location.BOUNDARY)
                                    for fp in data.points))
        # attractive: both derivative eigenvalue moduli below one, so the greatest modulus
        repulsive, exterior, attractive = sorted(data.points, key=lambda fp: abs(fp.eigenvalue))
        return verdict(Kind.HYPERBOLIC, None, attractive, repulsive, exterior)

    boundary = [fp for fp in data.points if fp.location == Location.BOUNDARY]
    shape = _jordan_shape_from(g.rows, eig, tol=gap_tol)
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
    raise AmbiguousClustering(f"unrecognized Jordan structure {shape.blocks} at a repeated root")


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


def conjugate_to_normal_form(a) -> NormalForm:
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
    cls = classify(element)
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
