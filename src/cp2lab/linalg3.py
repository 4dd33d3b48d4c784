"""Dense 3x3 complex linear algebra and projective-point utilities.

Everything is sized for 3x3 problems: the multiplicity of characteristic
roots comes from the cubic's two discriminants against a noise floor scaled
like the matrix (_distinct_roots), simple roots from the closed form
(depressed cubic, trigonometric branch for three real roots, Cardano
otherwise) with a Newton polish, repeated ones from its critical points;
ranks and null directions from one pivoting step (two elimination pivots,
the third from the determinant, null vectors as cross products); Jordan
block sizes from ranks of powers; and the matrix exponential from scaling
and squaring.  No general eigensolver is used.

The spectral layers (det3, char_poly, eig3, jordan_shape and the rank and
null-space step) run on the matrix's rows as lists of Python complexes
(as_rows): on 3x3 problems numpy's per-call overhead is several times the
arithmetic.  A GroupElement carries its rows, taken once when it is built,
so a spectrum of an element makes no numpy call.  mat_exp and inv3 keep
numpy: mat_exp's 20-term series on 3x3 arrays takes a little over half the
time of the same series on Python scalars (Python 3.11, numpy 2.4), and
inv3 serves the array algebra of normal-form frames.

Projective points are canonicalised on Python scalars too (_canonical),
by Python's own modulus and complex division.  Chordal distances of
coordinate triples use the cross-product formula (_chordal).  _canonical
stays the one definition of its rule: dynamics' orbit kernel inlines it
where it neither rescales nor raises, and must equal it there to the bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousClustering, check_tol

MERGE_TOL = 1e-7       # eigenvalue gap tolerance at unit scale: closer than 10x is ambiguous
PIVOT_RTOL = 1e-8      # relative pivot threshold for rank decisions
EXP_SERIES_TERMS = 20  # truncation order of the scaled exponential series

_OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))  # primitive cube root of unity


def _mat3(m) -> np.ndarray:
    """Coerce to a complex 3x3 array, finite or not."""
    a = np.asarray(m, dtype=complex)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    return a


def as_mat3(m) -> np.ndarray:
    """Coerce to a finite complex 3x3 array."""
    a = _mat3(m)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def as_rows(m) -> list[list[complex]]:
    """Rows of a finite complex 3x3 matrix as lists of Python complexes: the
    rows a GroupElement computed once when it was built, else as_mat3(m)'s."""
    rows = getattr(m, "rows", None)
    return as_mat3(m).tolist() if rows is None else rows


def _max_abs(r: list[list[complex]]) -> float:
    return max(map(abs, r[0] + r[1] + r[2]))


def _cofactor_row(r: list[list[complex]], i: int) -> list[complex]:
    """Row i of the cofactor matrix, (-1)^(i+j) times minor (i, j), from rows r."""
    r1, r2 = r[(i + 1) % 3], r[(i + 2) % 3]
    return [r1[(j + 1) % 3] * r2[(j + 2) % 3] - r1[(j + 2) % 3] * r2[(j + 1) % 3] for j in range(3)]


def _det(r: list[list[complex]]) -> complex:
    c = _cofactor_row(r, 0)
    return r[0][0] * c[0] + r[0][1] * c[1] + r[0][2] * c[2]


def det3(m) -> complex:
    return _det(as_rows(m))


def inv3(m) -> np.ndarray:
    """Inverse via the adjugate; raises on (numerically) singular input."""
    a = as_mat3(m)
    r = a.tolist()
    d = _det(r)
    scale = float(np.abs(a).max())
    if abs(d) <= 1e-300 or abs(d) < 1e-14 * max(scale, 1.0) ** 3 * 1e-6:
        raise ZeroDivisionError("matrix is numerically singular")
    return np.array([_cofactor_row(r, i) for i in range(3)], dtype=complex).T / d


def char_poly(m) -> tuple[complex, complex, complex]:
    """Coefficients (c2, c1, c0) of det(xI - M) = x^3 + c2 x^2 + c1 x + c0."""
    return _char_poly(as_rows(m))


def _char_poly(r: list[list[complex]]) -> tuple[complex, complex, complex]:
    (a, b, c), (d, e, f), (g, h, i) = r
    return (-(a + e + i), a * e - b * d + a * i - c * g + e * i - f * h, -_det(r))


# cubic solver ---------------------------------------------------------------

# largest coefficient cubic_roots accepts: its closed form cubes p ~ c2^2
# and squares q ~ c2^3, which overflow past ~1e51
_CUBIC_RANGE = 1e50


def _check_cubic_range(c2: complex, c1: complex, c0: complex) -> None:
    if not all(abs(z.real) + abs(z.imag) <= _CUBIC_RANGE for z in (c2, c1, c0)):
        raise AmbiguousClustering("characteristic polynomial too large for its closed-form roots")


def _cubic_eval(x: complex, c2: complex, c1: complex, c0: complex) -> complex:
    return ((x + c2) * x + c1) * x + c0


def _newton(x: complex, c2: complex, c1: complex, c0: complex) -> complex:
    """One guarded Newton step on the cubic from x."""
    fp = (3.0 * x + 2.0 * c2) * x + c1
    return x - _cubic_eval(x, c2, c1, c0) / fp if abs(fp) > 1e-30 else x


def cubic_roots(c2, c1, c0) -> tuple[complex, complex, complex]:
    """Three roots of x^3 + c2 x^2 + c1 x + c0, sorted by (re, im).

    Closed form on the depressed cubic (trigonometric branch for three real
    roots, Cardano otherwise) plus one guarded Newton step per root.  Close
    roots are returned as computed, not merged; eig3 decides multiplicity.
    Raises AmbiguousClustering on a coefficient beyond _CUBIC_RANGE.
    """
    c2, c1, c0 = complex(c2), complex(c1), complex(c0)
    _check_cubic_range(c2, c1, c0)
    shift = c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0

    coef_scale = max(abs(c2), abs(c1), abs(c0), 1.0)
    real_input = max(abs(c2.imag), abs(c1.imag), abs(c0.imag)) <= 1e-14 * coef_scale

    if real_input and p.real < 0 and (disc := -4.0 * p.real ** 3 - 27.0 * q.real ** 2) >= 0.0:
        # three real roots: trigonometric branch avoids complex cancellation
        pr, qr = p.real, q.real
        mult = 2.0 * math.sqrt(-pr / 3.0)
        arg = 3.0 * qr / (2.0 * pr) * math.sqrt(-3.0 / pr)
        phi = math.acos(min(1.0, max(-1.0, arg)))
        ts = [complex(mult * math.cos((phi - 2.0 * math.pi * k) / 3.0)) for k in range(3)]
    else:
        d = cmath.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        u3 = max(-q / 2.0 + d, -q / 2.0 - d, key=abs)
        if u3 == 0:
            ts = [(-q) ** (1.0 / 3.0) * _OMEGA ** k for k in range(3)] if q != 0 else [0j, 0j, 0j]
        else:
            u = u3 ** (1.0 / 3.0)
            v = -p / (3.0 * u)
            ts = [u * _OMEGA ** k + v * _OMEGA ** (-k) for k in range(3)]
    roots = sorted((_newton(t - shift, c2, c1, c0) for t in ts), key=lambda z: (z.real, z.imag))
    return (roots[0], roots[1], roots[2])


# coefficient noise of a characteristic polynomial: the coefficient of degree
# k in the entries is taken as known to _COEF_NOISE * u * max(1, max|A_ij|)^k.
# At a constant of 1, conjugated SU(2,1) elements (max|A| up to 4e3) read up
# to 17 floors at a repeated root and at least 846 at distinct roots
_COEF_NOISE = 64.0


def _distinct_roots(c2: complex, c1: complex, c0: complex, s: float) -> tuple[list, int]:
    """Distinct (root, multiplicity) pairs of the characteristic cubic of a
    matrix of scale s = max(1, max|A_ij|), and the discriminant's sign.

    d = c2^2 - 3 c1 is half the sum of the squared root gaps, and
    disc = 4 d^3 / 27 - 27 q^2, q the cubic at -c2/3, the discriminant (on
    SU(2,1), Goldman's f(tau); d = 0 there only at the cusps tau = 3 w^k).
    Each is compared with its floor, the first-order effect of coefficient
    errors _COEF_NOISE * u * s^k, which also bounds the rounding of d, q and
    disc (|d| <= 27 s^2, |q| <= 14 s^3).  disc above its floor gives three
    simple roots and the sign of its real part; else the sign is 0, and d
    within its floor gives a triple root -c2/3; else a double root lam, the
    critical point where the cubic is smaller after one Newton step on the
    derivative, and the simple root -c2 - 2 lam, Newton-polished only while
    the step's error is under sqrt(u) times the root gap (near a double
    root, Newton amplifies coefficient noise).
    """
    _check_cubic_range(c2, c1, c0)
    u = math.ulp(1.0)
    e2 = _COEF_NOISE * u * s
    e1, e0 = e2 * s, e2 * s * s   # products, not powers: inf rather than OverflowError
    centre, d = -c2 / 3.0, c2 * c2 - 3.0 * c1
    q = _cubic_eval(centre, c2, c1, c0)
    d_floor = 2.0 * abs(c2) * e2 + 3.0 * e1
    q_floor = abs(2.0 * c2 * c2 - 3.0 * c1) / 9.0 * e2 + abs(c2) / 3.0 * e1 + e0
    disc = 4.0 * d * d * d / 27.0 - 27.0 * q * q
    if abs(disc) > 4.0 * abs(d) ** 2 / 9.0 * d_floor + 54.0 * abs(q) * q_floor:
        return [(r, 1) for r in cubic_roots(c2, c1, c0)], 1 if disc.real > 0.0 else -1
    if abs(d) <= d_floor:
        return [(centre, 3)], 0
    root = cmath.sqrt(d)
    crit = [m - (3.0 * m * m + 2.0 * c2 * m + c1) / (6.0 * m + 2.0 * c2)
            for m in ((-c2 + root) / 3.0, (-c2 - root) / 3.0)]
    lam = min(crit, key=lambda m: abs(_cubic_eval(m, c2, c1, c0)))
    simple = -c2 - 2.0 * lam
    if q_floor < math.sqrt(u) * abs(d) ** 1.5:  # q_floor / |d| < sqrt(u) * sqrt|d|
        simple = _newton(simple, c2, c1, c0)
    return [(lam, 2), (simple, 1)], 0


# projective points ----------------------------------------------------------

# pivot moduli outside [2^-1022, 2^1023) are rescaled before dividing: below,
# the division's denominator d_r + d_i (d_i / d_r) loses bits as a subnormal;
# above, it or a numerator (at most |x_r| + |x_i|) can overflow
_MIN_PIVOT, _MAX_PIVOT = 2.0 ** -1022, 2.0 ** 1023


def _canonical(x0: complex, x1: complex, x2: complex) -> tuple[complex, complex, complex]:
    """Canonical representative of Python complexes: the first coordinate of
    maximal modulus (Python's abs) set to 1, the others divided by it with
    Python's complex division (Smith's algorithm).

    A pivot of modulus outside [_MIN_PIVOT, _MAX_PIVOT) is first scaled,
    with the other coordinates, by the exact power of two that brings its
    larger part into [1/2, 1).
    """
    if not (cmath.isfinite(x0) and cmath.isfinite(x1) and cmath.isfinite(x2)):
        raise ValueError("projective coordinates must be finite")
    try:
        m0, m1, m2 = abs(x0), abs(x1), abs(x2)
    except OverflowError:   # a modulus beyond the float range: hypot gives inf
        m0, m1, m2 = (math.hypot(z.real, z.imag) for z in (x0, x1, x2))
    top = max(m0, m1, m2)
    if top == 0:
        raise ValueError("projective point needs a nonzero coordinate")
    piv = 0 if m0 == top else 1 if m1 == top else 2
    if not _MIN_PIVOT <= top < _MAX_PIVOT:
        d = (x0, x1, x2)[piv]
        e = -math.frexp(max(abs(d.real), abs(d.imag)))[1]
        x0, x1, x2 = (complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in (x0, x1, x2))
    if piv == 0:
        return (1 + 0j, x1 / x0, x2 / x0)
    if piv == 1:
        return (x0 / x1, 1 + 0j, x2 / x1)
    return (x0 / x2, x1 / x2, 1 + 0j)


def canonical_coords(v) -> tuple[complex, complex, complex]:
    """Canonical homogeneous representative: max-modulus pivot set to 1.

    The pivot is the first coordinate of maximal modulus, so exact ties
    resolve to the smallest index.
    """
    return _canonical(*np.asarray(v, dtype=complex).reshape(3).tolist())


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of CP^2 stored through its canonical representative."""

    coords: tuple[complex, complex, complex]

    @classmethod
    def from_vector(cls, v) -> "ProjectivePoint":
        return cls(canonical_coords(v))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def __str__(self) -> str:
        x, y, z = self.coords
        return f"[{x:.6g} : {y:.6g} : {z:.6g}]"


def chordal_distance(p, q) -> float:
    """Chordal (Fubini-Study sine) distance; representative independent.

    Computed through the Lagrange identity |x|^2 |y|^2 - |<x,y>|^2 =
    |cross(x, y)|^2, which stays accurate for nearby points where the
    direct cosine formula loses half the digits to cancellation.
    """
    def coords(x):
        if isinstance(x, ProjectivePoint):
            return x.coords
        return np.asarray(x, dtype=complex).reshape(3).tolist()

    return _chordal(coords(p), coords(q))


def _norm2(x: tuple[complex, complex, complex]) -> float:
    a, b, c = x
    return (a * a.conjugate() + b * b.conjugate() + c * c.conjugate()).real


def _chordal(a, b) -> float:
    """chordal_distance of two coordinate triples of Python complexes."""
    return math.sqrt(_norm2(_cross(a, b)) / (_norm2(a) * _norm2(b)))


# eigen machinery ------------------------------------------------------------

def _cross(u, v) -> tuple[complex, complex, complex]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _shifted(r: list[list[complex]], value: complex) -> list[list[complex]]:
    """Rows of r - value I; the off-diagonal entries are r's own."""
    (a, b, c), (d, e, f), (g, h, i) = r
    return [[a - value, b, c], [d, e - value, f], [g, h, i - value]]


def _rank_and_null(rows: list[list[complex]], scale_ref: float | None = None):
    """Rank of a 3x3 matrix, given by its rows, and a basis of its numerical
    null space.

    The pivots are those of full-pivot elimination: the largest entry, then
    the largest entry of the other two rows once eliminated against the
    first pivot's row, then |det| / (p1 p2).  A pivot counts toward the rank
    when its modulus exceeds PIVOT_RTOL times the reference scale (by default
    the largest entry).  The null direction is the cross product of the pivot
    row and the stronger eliminated row at rank 2, and is solved from the
    pivot row at rank 1; rank 0 gives the identity basis.  Returns
    (rank, basis) with the basis vectors as tuples, not normalised.  Raises
    AmbiguousClustering when the cross product overflows.
    """
    mods = list(map(abs, rows[0] + rows[1] + rows[2]))
    p1 = max(mods)
    thresh = PIVOT_RTOL * max(p1 if scale_ref is None else scale_ref, 1e-300)
    if p1 <= thresh:
        return 0, [(1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j)]
    i, j = divmod(mods.index(p1), 3)
    top = rows[i]
    elim = []
    for row in rows[:i] + rows[i + 1:]:
        f = row[j] / top[j]
        row = [x - f * y for x, y in zip(row, top)]
        row[j] = 0j
        elim.append(row)
    strength = [max(map(abs, row)) for row in elim]
    k = 0 if strength[0] >= strength[1] else 1
    p2 = strength[k]
    if p2 <= thresh:
        # columns are freed in the order full-pivot elimination frees them
        basis = []
        for c in (0 if c == j else c for c in (1, 2)):
            x = [0j, 0j, 0j]
            x[c] = 1 + 0j
            x[j] = -top[c] / top[j]
            basis.append(tuple(x))
        return 1, basis
    null = _cross(top, elim[k])
    if not all(map(cmath.isfinite, null)):
        raise AmbiguousClustering("null direction overflows the float range")
    other = elim[1 - k]
    p3 = abs(null[0] * other[0] + null[1] * other[1] + null[2] * other[2]) / (p1 * p2)
    if p3 > thresh:
        return 3, []
    return 2, [null]


@dataclass(frozen=True)
class EigenPair:
    """One distinct eigenvalue with its geometric eigenvector directions."""

    value: complex
    multiplicity: int
    vectors: tuple[ProjectivePoint, ...]


@dataclass(frozen=True)
class EigenData:
    """eig3's result.  disc_sign, the discriminant's sign (0 within its floor),
    is that of Goldman's f only on SU(2,1): +1 loxodromic, -1 regular elliptic."""

    pairs: tuple[EigenPair, ...]
    disc_sign: int

    def eigenvalues(self) -> list[complex]:
        """All three eigenvalues, repeated with algebraic multiplicity."""
        out: list[complex] = []
        for pair in self.pairs:
            out.extend([pair.value] * pair.multiplicity)
        return out


def eig3(m) -> EigenData:
    """Eigenvalues from the characteristic cubic, eigenvectors from null spaces.

    Multiplicities come from the cubic's discriminants, each against a noise
    floor scaled like the matrix (_distinct_roots); an eigenvalue's
    directions span the null space of a - value I found by _rank_and_null
    at PIVOT_RTOL.  Raises AmbiguousClustering when an eigenvalue has no
    null direction there or its null direction overflows, or the cubic is
    beyond _CUBIC_RANGE.  Only on SU(2,1) is disc_sign the sign of Goldman's f.
    """
    r = as_rows(m)
    pairs = []
    roots, disc_sign = _distinct_roots(*_char_poly(r), max(1.0, _max_abs(r)))
    for value, mult in roots:
        _, basis = _rank_and_null(_shifted(r, value))
        if not basis:
            raise AmbiguousClustering(
                f"no null direction found for eigenvalue {value:.6g} at pivot tolerance {PIVOT_RTOL:g}"
            )
        pairs.append(EigenPair(value, mult, tuple(ProjectivePoint(_canonical(*v)) for v in basis)))
    pairs.sort(key=lambda p: (-p.multiplicity, p.value.real, p.value.imag))
    return EigenData(tuple(pairs), disc_sign)


@dataclass(frozen=True)
class JordanShape:
    """Block sizes per distinct eigenvalue, aligned index by index."""

    eigenvalues: tuple[complex, ...]
    blocks: tuple[tuple[int, ...], ...]

    def for_eigenvalue(self, value: complex) -> tuple[int, ...]:
        for ev, blk in zip(self.eigenvalues, self.blocks):
            if abs(ev - value) <= 1e-6 * max(1.0, abs(ev)):
                return blk
        raise KeyError(f"{value} is not an eigenvalue of this shape")


def jordan_shape(m, tol: float = MERGE_TOL) -> JordanShape:
    """Jordan block sizes of eig3's eigenvalues, checked at cluster-gap tolerance tol.

    Raises AmbiguousClustering when two eigenvalues are separated by less
    than ten times the (scaled) tolerance, since the answer would then
    flip under small perturbations, and when an eigenvalue has no null
    direction at PIVOT_RTOL; ValueError unless tol passes check_tol.
    """
    check_tol(tol)
    return _jordan_shape_from(as_rows(m), eig3(m), tol)


def _jordan_shape_from(r: list[list[complex]], eig: EigenData, tol: float) -> JordanShape:
    """jordan_shape of the matrix with rows r from its eig3 result at
    cluster-gap tolerance tol.

    The cluster gap check comes first, over the eigenvalues in root order
    (sorted by (re, im)).  The rank of a - value I is 3 minus the number of
    null directions eig3 found at the same pivot tolerance and scale, so
    only the rank of the square is computed.
    """
    pairs = sorted(eig.pairs, key=lambda p: (p.value.real, p.value.imag))
    scale = max(1.0, max(abs(p.value) for p in pairs))
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            gap = abs(pairs[i].value - pairs[j].value)
            if gap < 10.0 * tol * scale:
                raise AmbiguousClustering(
                    f"eigenvalue clusters separated by {gap:.3g} < 10*tol"
                )

    blocks = []
    for pair in pairs:
        if pair.multiplicity == 1:
            sizes = (1,)
        else:
            n1 = _shifted(r, pair.value)
            norm1 = _max_abs(n1)
            r1 = 3 - len(pair.vectors)
            cols = list(zip(*n1))
            square = [[x * u + y * v + z * w for u, v, w in cols] for x, y, z in n1]
            r2, _ = _rank_and_null(square, scale_ref=max(norm1 * norm1, 1e-300))
            ge1 = 3 - r1          # blocks of size >= 1
            ge2 = r1 - r2         # blocks of size >= 2
            ge3 = pair.multiplicity - ge1 - ge2
            counts = (ge1 - ge2, ge2 - ge3, ge3)  # exactly 1, 2, 3
            if min(counts) < 0 or ge1 <= 0:
                raise AmbiguousClustering(
                    f"inconsistent rank profile for eigenvalue {pair.value:.6g}"
                )
            sizes = tuple(
                size for size, count in ((3, ge3), (2, ge2 - ge3), (1, ge1 - ge2))
                for _ in range(count)
            )
        blocks.append(sizes)
    return JordanShape(tuple(p.value for p in pairs), tuple(blocks))


def mat_exp(m) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a truncated series."""
    a = as_mat3(m)
    norm = float(np.abs(a).sum(axis=1).max())
    s = 0 if norm <= 0.5 else min(64, math.ceil(math.log2(min(norm, 2.0 ** 64) / 0.5)))
    x = a / (2.0 ** s)
    eye = np.eye(3, dtype=complex)
    r = eye.copy()
    for k in range(EXP_SERIES_TERMS, 0, -1):
        r = eye + (x @ r) / k
    for _ in range(s):
        r = r @ r
    return r
