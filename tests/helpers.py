"""Shared generators for randomized tests."""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

from cp2lab import AlgebraElement, DivisorClass, GroupElement, ProjectivePoint, fixed_points, mat_exp
from cp2lab.dynamics import OrbitResult, _nearest_fixed_point
from cp2lab.linalg3 import _canonical, _chordal, det3

J = np.diag([-1.0, 1.0, 1.0]).astype(complex)  # the form Q's matrix: Q(v, w) = w^dagger J v


def random_algebra(rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    v = rng.uniform(-scale, scale, size=8)
    return AlgebraElement(
        b1=float(v[0]),
        b2=float(v[1]),
        l1=complex(v[2], v[3]),
        l2=complex(v[4], v[5]),
        c=complex(v[6], v[7]),
    )


def random_conjugator(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return mat_exp(random_algebra(rng, scale).matrix())


def random_hyperbolic(rng: np.random.Generator) -> np.ndarray:
    l = float(rng.uniform(0.3, 1.5))
    b = float(rng.uniform(-np.pi, np.pi))
    return mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())


def _signed_away_from_zero(rng: np.random.Generator, lo: float = 0.3, hi: float = 1.5) -> float:
    return float(rng.uniform(lo, hi)) * (1.0 if rng.uniform() < 0.5 else -1.0)


def random_parabolic(rng: np.random.Generator, subtype: str) -> np.ndarray:
    d1 = _signed_away_from_zero(rng)
    if subtype == "rotational":
        d2 = _signed_away_from_zero(rng)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    elif subtype == "line_fixing":
        d2 = 0.0
        c = 0j
    elif subtype == "three_step":
        d2 = 0.0
        mag = rng.uniform(0.3, 1.5)
        phase = rng.uniform(0, 2 * np.pi)
        c = complex(mag * np.cos(phase), mag * np.sin(phase))
    else:
        raise ValueError(subtype)
    return mat_exp(AlgebraElement.parabolic_normal(d1, d2, c).matrix())


def random_elliptic(rng: np.random.Generator) -> np.ndarray:
    b1 = float(rng.uniform(0.5, 1.5))
    b2 = float(rng.uniform(-1.5, -0.5))
    return mat_exp(AlgebraElement(b1, b2, 0j, 0j, 0j).matrix())


def conjugate(m: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g @ m @ np.linalg.inv(g)


def random_element(rng: np.random.Generator, kind: str, scale: float = 0.8) -> np.ndarray:
    """Element of one kind (elliptic, hyperbolic or a parabolic subtype)
    conjugated by the exponential of a random algebra element at scale."""
    if kind == "elliptic":
        m = random_elliptic(rng)
    elif kind == "hyperbolic":
        m = random_hyperbolic(rng)
    else:
        m = random_parabolic(rng, kind)
    return conjugate(m, random_conjugator(rng, scale))


def reference_membership(m, tol: float) -> tuple[bool, float]:
    """The membership rule on numpy arrays: (verdict, ratio), where ratio is
    the larger of max|a^dagger J a - J| and |det a - 1| over their bound
    tol * max(1, max|a_ij|^2)."""
    a = np.asarray(m, dtype=complex)
    j = np.diag([-1.0, 1.0, 1.0]).astype(complex)
    size = float(np.abs(a).max())
    bound = tol * max(1.0, size * size)
    form_err = float(np.abs(a.conj().T @ j @ a - j).max())
    d = det3(a) - 1.0
    ratio = max(form_err, math.hypot(d.real, d.imag)) / bound
    return ratio <= 1.0, ratio


# scalar references for basin sampling: stream s is one numpy Philox keyed
# by the seed at counter s * 2^128, read one attempt at a time

def sample_stream(seed: int, stream: int) -> np.random.Philox:
    return np.random.Philox(key=seed, counter=stream << 128)


def _uniforms(words) -> list[np.float64]:
    return [np.float64((int(w) >> 11) * 2.0 ** -53) for w in words]


def unit_disc(u_radius: np.float64, u_angle: np.float64) -> complex:
    r = np.sqrt(u_radius)
    phi = 2.0 * np.pi * u_angle
    return complex(r * np.cos(phi), r * np.sin(phi))


def ball_sample(bit_gen: np.random.Philox) -> np.ndarray:
    """The next ball sample of the stream bit_gen: attempt after attempt of
    4 words, kept when |y|^2 + |z|^2 < 1."""
    # the ball {Q < 0} lies inside the affine chart x = 1
    while True:
        u = _uniforms(bit_gen.random_raw(4))
        y = unit_disc(u[0], u[1])
        z = unit_disc(u[2], u[3])
        if abs(y) ** 2 + abs(z) ** 2 < 1.0:
            return np.array([1.0, y, z], dtype=complex)


# line sampling: Box-Muller and the acceptance tests on numpy scalars

def _gaussian(u_radius: np.float64, u_angle: np.float64) -> tuple[np.float64, np.float64]:
    rho = np.sqrt(-2.0 * np.log(1.0 - u_radius))
    phi = 2.0 * np.pi * u_angle
    return rho * np.cos(phi), rho * np.sin(phi)


def line_sample(bit_gen: np.random.Philox, p_vec: np.ndarray, dual: np.ndarray,
                angle_tol: float = 1e-6) -> np.ndarray:
    """The next line sample of the stream bit_gen: attempt after attempt of
    10 words, r = (g0, g1, g2), alpha = g3, beta = g4, kept when |r| >= 1e-8,
    |<dual, r>| > angle_tol |dual| |r| and |alpha p + beta r| > 1e-8."""
    l_norm = float(np.linalg.norm(dual))
    while True:
        u = _uniforms(bit_gen.random_raw(10))
        g = [_gaussian(u[2 * k], u[2 * k + 1]) for k in range(5)]
        (a_re, a_im), (b_re, b_im) = g[3], g[4]
        d_re = d_im = r2 = x2 = 0.0
        x = []
        for j in range(3):
            re, im = g[j]
            p_re, p_im = p_vec[j].real, p_vec[j].imag
            l_re, l_im = dual[j].real, dual[j].imag
            d_re = d_re + (l_re * re - l_im * im)
            d_im = d_im + (l_re * im + l_im * re)
            r2 = r2 + (re * re + im * im)
            x_re = (a_re * p_re - a_im * p_im) + (b_re * re - b_im * im)
            x_im = (a_re * p_im + a_im * p_re) + (b_re * im + b_im * re)
            x2 = x2 + (x_re * x_re + x_im * x_im)
            x.append(complex(x_re, x_im))
        r_norm = np.sqrt(r2)
        if (r_norm >= 1e-8 and np.hypot(d_re, d_im) > angle_tol * l_norm * r_norm
                and np.sqrt(x2) > 1e-8):
            return np.array(x, dtype=complex)


# reference lattice arithmetic: the scan over b for square-one classes, the
# full coefficient-box scan for exceptional classes, their Weyl orbit on the
# blown-up plane and the fraction-free Bareiss determinant

def scan_square_one_classes(n: int, bound: int) -> list[tuple[int, int]]:
    """Square-one classes aF + bB of the n-th Hirzebruch lattice by scanning
    every |b| <= bound, with the box and base-pairing filters, sorted
    descending."""
    out = []
    for b in range(-bound, bound + 1):
        if b == 0:
            continue
        num = 1 + n * b * b
        if num % (2 * b) != 0:
            continue
        a = num // (2 * b)
        if abs(a) > bound:
            continue
        aa, bb = (a, b) if b > 0 else (-a, -b)
        if aa - n * bb < 0:
            continue
        out.append((a, b))
    out.sort(reverse=True)
    return out


def brute_force_exceptional_classes(lat, coeff_bound: int) -> list:
    """Every nonzero vector of the box with D.D = -1 and D.K = -1, sorted.

    Dense sums over the Gram matrix, independent of PicardLattice.intersect;
    D.K is tested first only because it is the cheaper of the two.
    """
    g, n = lat.gram, lat.rank
    ell = [sum(g[i][j] * lat.canonical.coeffs[j] for j in range(n)) for i in range(n)]
    out = []
    for coeffs in product(range(-coeff_bound, coeff_bound + 1), repeat=n):
        if sum(c * l for c, l in zip(coeffs, ell)) != -1:
            continue
        if sum(coeffs[i] * g[i][j] * coeffs[j] for i in range(n) for j in range(n)) == -1:
            out.append(DivisorClass(coeffs))
    out.sort(key=lambda d: d.coeffs)
    return out


def weyl_orbit_exceptional_classes(k: int) -> list:
    """Exceptional classes of the plane blown up at k <= 8 points, as an orbit.

    On the basis H, E1, ..., Ek (D.D' = d_0 d'_0 - sum d_i d'_i), the
    reflections D -> D + (D.a) a in the simple roots a = H - E1 - E2 - E3
    and E_i - E_{i+1} generate the Weyl group W(E_k), whose orbit of E_k is
    every exceptional class (Manin, Cubic Forms, sections 23-26).  At k = 2
    the roots E1 - E2 alone miss H - E1 - E2, which seeds the orbit too.
    Breadth first, sorted by coefficient vector; no lattice code is used.
    """
    n = k + 1

    def dot(a, b):
        return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))

    roots = [(1, -1, -1, -1) + (0,) * (k - 3)] if k >= 3 else []
    roots += [tuple(int(j == i) - int(j == i + 1) for j in range(n)) for i in range(1, k)]
    seeds = [tuple(int(j == k) for j in range(n))] if k else []
    if k == 2:
        seeds.append((1, -1, -1))
    seen, frontier = set(seeds), seeds
    while frontier:
        found = []
        for d in frontier:
            for a in roots:
                m = dot(d, a)
                image = tuple(x + m * y for x, y in zip(d, a))
                if image not in seen:
                    seen.add(image)
                    found.append(image)
        frontier = found
    return [DivisorClass(c) for c in sorted(seen)]


def bareiss_det(rows) -> int:
    """Fraction-free Bareiss determinant of an integer matrix."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# reference rank: three-step full-pivot Gaussian elimination on a numpy copy

def full_pivot_rank(m, rtol: float, scale_ref: float | None = None) -> int:
    """Number of full-pivot elimination pivots whose modulus exceeds rtol
    times the reference scale (by default the largest entry)."""
    a = np.array(m, dtype=complex)
    scale = float(np.abs(a).max()) if scale_ref is None else scale_ref
    thresh = rtol * max(scale, 1e-300)
    for step in range(3):
        sub = np.abs(a[step:, step:])
        i, j = divmod(int(np.argmax(sub)), 3 - step)
        i += step
        j += step
        if sub[i - step, j - step] <= thresh:
            return step
        a[[step, i], :] = a[[i, step], :]
        a[:, [step, j]] = a[:, [j, step]]
        for r in range(step + 1, 3):
            f = a[r, step] / a[step, step]
            a[r, step:] -= f * a[step, step:]
            a[r, step] = 0.0
    return 3


# reference projective step: canonicalisation by Python's modulus and complex
# division, numpy's chordal distance on 3-vectors, and the orbit loops built
# from them with numpy's m @ v

def abs_or_inf(z: complex) -> float:
    """Python's abs, or inf where it overflows."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def reference_canonical_coords(v) -> tuple[complex, complex, complex]:
    """First coordinate of maximal Python abs set to 1, the others divided by
    it with Python's complex division, after scaling by the power of two
    that brings the pivot's larger part into [1/2, 1) when its modulus is
    outside [2^-1022, 2^1023)."""
    x = [complex(z) for z in np.asarray(v, dtype=complex).reshape(3)]
    if not all(cmath.isfinite(z) for z in x):
        raise ValueError("projective coordinates must be finite")
    mods = [abs_or_inf(z) for z in x]
    piv = mods.index(max(mods))
    d = x[piv]
    if d == 0:
        raise ValueError("projective point needs a nonzero coordinate")
    if not 2.0 ** -1022 <= mods[piv] < 2.0 ** 1023:
        e = -math.frexp(max(abs(d.real), abs(d.imag)))[1]
        x = [complex(math.ldexp(z.real, e), math.ldexp(z.imag, e)) for z in x]
    w = [z / x[piv] for z in x]
    w[piv] = 1 + 0j
    return (w[0], w[1], w[2])


def reference_chordal(a, b) -> float:
    """|a x b| / (|a| |b|) by vdot; the cross product is np.cross's, without
    its per-call axis handling."""
    a = np.asarray(a, dtype=complex).reshape(3)
    b = np.asarray(b, dtype=complex).reshape(3)
    cr = a[[1, 2, 0]] * b[[2, 0, 1]] - a[[2, 0, 1]] * b[[1, 2, 0]]
    return float(np.sqrt(np.vdot(cr, cr).real / (np.vdot(a, a).real * np.vdot(b, b).real)))


def reference_iterate(m, start, n: int) -> np.ndarray:
    """Canonical vector of m^n start: multiply by m, canonicalise, n times."""
    v = np.array(reference_canonical_coords(start))
    for _ in range(n):
        v = np.array(reference_canonical_coords(m @ v))
    return v


def reference_converge(m, start, max_iter: int, tol: float):
    """(converged, iterations, final distance, final canonical vector) of the
    loop that stops at the first step k whose chordal step is <= tol."""
    v = np.array(start, dtype=complex)
    dist = float("inf")
    for k in range(max_iter):
        w = np.array(reference_canonical_coords(m @ v))
        dist = reference_chordal(v, w)
        if dist <= tol:
            return True, k, dist, w
        v = w
    return False, max_iter, dist, None


# reference scalar orbit loops: one call each of the row product, _canonical
# and _chordal per step, as converge and iterate were composed before their
# steps were fused into one kernel

def reference_scalar_step(rows, v) -> tuple[complex, complex, complex]:
    """_canonical of the product of the matrix with these rows and the triple v."""
    x0, x1, x2 = v
    (a, b, c), (d, e, f), (g, h, i) = rows
    return _canonical(a * x0 + b * x1 + c * x2, d * x0 + e * x1 + f * x2, g * x0 + h * x1 + i * x2)


def reference_scalar_iterate(m, p: ProjectivePoint, n: int) -> ProjectivePoint:
    rows = GroupElement(m).rows
    v = p.coords
    for _ in range(n):
        v = reference_scalar_step(rows, v)
    return ProjectivePoint(_canonical(*v))


def reference_scalar_converge(m, p: ProjectivePoint, max_iter: int, tol: float) -> OrbitResult:
    g = GroupElement(m)
    data = fixed_points(g)
    v = p.coords
    dist = float("inf")
    for k in range(max_iter):
        w = reference_scalar_step(g.rows, v)
        dist = _chordal(v, w)
        if dist <= tol:
            return OrbitResult(True, _nearest_fixed_point(data, ProjectivePoint(_canonical(*w))), k, dist)
        v = w
    return OrbitResult(False, None, max_iter, dist)


# reference basin resolver: one stride of eight steps per numpy round, every
# test on every live column at every stride, and a staleness counter

def _reference_cross_norm2(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c01 = x[0] * y[1] - x[1] * y[0]
    c02 = x[0] * y[2] - x[2] * y[0]
    c12 = x[1] * y[2] - x[2] * y[1]
    return (c01 * c01.conj() + c02 * c02.conj() + c12 * c12.conj()).real


def _reference_chordal2_to(target_hat: np.ndarray, x: np.ndarray, norms2: np.ndarray) -> np.ndarray:
    return _reference_cross_norm2(target_hat.reshape(3, 1), x) / norms2


def reference_resolve_batch(m: np.ndarray, points: np.ndarray, target: np.ndarray,
                            fixed_vecs: list[np.ndarray], max_iter: int, tol: float,
                            capture_radius: float) -> np.ndarray:
    """Status per column (1 to target, 2 to another fixed point, 0 undecided)
    under strong convergence, capture, and the end-of-budget fallback with its
    staleness counter.  dynamics._resolve_batch keeps only the last two rules,
    which give the same statuses on columns that do not lie on a fixed point."""
    stride, near_fixed, end_radius, end_stale = 8, 1e-2, 0.25, 64
    n = points.shape[1]
    status = np.zeros(n, dtype=np.int8)
    if n == 0:
        return status

    stride_mat = m / np.abs(m).max()
    for _ in range(3):
        stride_mat = stride_mat @ stride_mat
        stride_mat = stride_mat / np.abs(stride_mat).max()
    t_hat = target / np.linalg.norm(target)
    f_hats = [f / np.linalg.norm(f) for f in fixed_vecs]
    t_index = min(range(len(f_hats)), key=lambda i: np.linalg.norm(f_hats[i] - t_hat))

    x = points / np.abs(points).max(axis=0)
    alive = np.arange(n)
    norms2 = np.einsum("ij,ij->j", x.conj(), x).real
    d_prev = _reference_chordal2_to(t_hat, x, norms2)
    d_min = d_prev.copy()
    stale = np.zeros(n, dtype=np.int32)
    tol2 = tol * tol
    cap2 = capture_radius * capture_radius
    near2 = near_fixed ** 2

    for _ in range(max_iter // stride):
        y = stride_mat @ x
        ny2 = np.einsum("ij,ij->j", y.conj(), y).real
        step2 = _reference_cross_norm2(x, y) / (norms2 * ny2)

        x = y / np.abs(y).max(axis=0)
        norms2 = np.einsum("ij,ij->j", x.conj(), x).real
        d_now = _reference_chordal2_to(t_hat, x, norms2)
        improved = d_now < d_min
        d_min = np.where(improved, d_now, d_min)
        stale = np.where(improved, 0, stale + 1)

        decided = np.zeros(x.shape[1], dtype=bool)

        converged = step2 <= tol2
        if converged.any():
            dists = np.stack([_reference_chordal2_to(f, x, norms2) for f in f_hats])
            nearest = np.argmin(dists, axis=0)
            near_enough = dists[nearest, np.arange(x.shape[1])] <= near2
            settle = converged & near_enough
            status[alive[settle & (nearest == t_index)]] = 1
            status[alive[settle & (nearest != t_index)]] = 2
            decided |= settle

        captured = (d_now <= cap2) & (d_prev <= cap2) & (d_now < d_prev) & ~decided
        status[alive[captured]] = 1
        decided |= captured

        if decided.any():
            keep = ~decided
            x = x[:, keep]
            norms2 = norms2[keep]
            d_now = d_now[keep]
            d_min = d_min[keep]
            stale = stale[keep]
            alive = alive[keep]
            if x.shape[1] == 0:
                break
        d_prev = d_now

    if alive.size:
        slow = (d_min <= end_radius ** 2) & (stale <= end_stale)
        status[alive[slow]] = 1
    return status


def reference_first_capture(m: np.ndarray, points: np.ndarray, target: np.ndarray,
                            capture_radius: float, strides: int) -> np.ndarray:
    """First stride (1 .. strides) at which each column meets the capture
    rule alone, stepping as reference_resolve_batch does; 0 for none."""
    stride_mat = m / np.abs(m).max()
    for _ in range(3):
        stride_mat = stride_mat @ stride_mat
        stride_mat = stride_mat / np.abs(stride_mat).max()
    t_hat = target / np.linalg.norm(target)
    cap2 = capture_radius * capture_radius
    x = points / np.abs(points).max(axis=0)
    d_prev = _reference_chordal2_to(t_hat, x, np.einsum("ij,ij->j", x.conj(), x).real)
    first = np.zeros(points.shape[1], dtype=np.int64)
    for k in range(1, strides + 1):
        y = stride_mat @ x
        x = y / np.abs(y).max(axis=0)
        d_now = _reference_chordal2_to(t_hat, x, np.einsum("ij,ij->j", x.conj(), x).real)
        captured = (d_now <= cap2) & (d_prev <= cap2) & (d_now < d_prev) & (first == 0)
        first[captured] = k
        d_prev = d_now
    return first
