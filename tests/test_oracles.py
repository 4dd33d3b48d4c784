"""Independent oracles: 50-digit eigenvector residuals (mpmath) and Goldman's
trace discriminant for the spectral layer, and the fixed-point geometry of
the forward basin for the basin resolver."""

import cmath

import mpmath
import numpy as np
import pytest

from cp2lab import AlgebraElement, classify, dynamics, eig3, linalg3, mat_exp
from cp2lab.errors import AmbiguousClustering
from cp2lab.su12 import J, tangent_line

from helpers import conjugate, random_conjugator, random_element, random_elliptic

RNG_SEED = 20261018
KINDS = ("elliptic", "hyperbolic", "rotational", "line_fixing", "three_step")


def _near_double(rng, kind: str, gap: float) -> np.ndarray:
    """Conjugated element with two eigenvalues about gap apart."""
    if kind == "elliptic":
        b = float(rng.uniform(0.5, 1.5))
        x = AlgebraElement(b, b + gap, 0j, 0j, 0j)
    else:
        x = AlgebraElement.hyperbolic_normal(gap / 2, float(rng.uniform(-np.pi, np.pi)))
    return conjugate(mat_exp(x.matrix()), random_conjugator(rng, 0.8))


# eigenvector residuals at 50 digits --------------------------------------------

def _residual(m: np.ndarray, value: complex, v) -> float:
    """|A v - value v| / |v| in 50-digit arithmetic on the given floats."""
    with mpmath.workdps(50):
        a = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in m.tolist()])
        x = mpmath.matrix([mpmath.mpc(z) for z in v])
        return float(mpmath.norm(a * x - mpmath.mpc(value) * x) / mpmath.norm(x))


def _residual_cases():
    rng = np.random.default_rng(RNG_SEED)
    for kind in KINDS:
        for _ in range(60):
            yield kind, random_element(rng, kind)
    for kind in ("elliptic", "hyperbolic"):
        for gap in (1e-3, 1e-4):
            for _ in range(10):
                yield f"near_{kind}_{gap:g}", _near_double(rng, kind, gap)


# Worst residuals over these cases with the earlier full-pivot elimination
# (same cases, numpy 2.4, x86-64): elliptic 6.6e-15, hyperbolic 2.1e-15,
# rotational 1.02e-14, line-fixing 1.3e-15, three-step 2.2e-15; nearly
# double roots, elliptic 1.7e-12 (gap 1e-3) and 8.1e-12 (1e-4), hyperbolic
# 1.1e-12 and 7.0e-11.  Each bound is 1.5 times that.  Taking the null
# vector as the largest cross product of two raw rows instead reads
# rotational 1.6e-13, three-step 3.6e-14 and elliptic gap 1e-4 2.0e-11.
RESIDUAL_BOUND = {
    "elliptic": 1.0e-14,
    "hyperbolic": 3.2e-15,
    "rotational": 1.6e-14,
    "line_fixing": 2.0e-15,
    "three_step": 3.3e-15,
    "near_elliptic_0.001": 2.5e-12,
    "near_elliptic_0.0001": 1.3e-11,
    "near_hyperbolic_0.001": 1.7e-12,
    "near_hyperbolic_0.0001": 1.1e-10,
}


def test_eig3_directions_have_small_50_digit_residuals():
    worst = {}
    for family, m in _residual_cases():
        for pair in eig3(m).pairs:
            for v in pair.vectors:
                worst[family] = max(worst.get(family, 0.0), _residual(m, pair.value, v.coords))
    assert worst.keys() == RESIDUAL_BOUND.keys()
    for family, bound in RESIDUAL_BOUND.items():
        assert worst[family] <= bound, (family, worst[family])


# Goldman's trichotomy -------------------------------------------------------------

def goldman(tau: complex) -> float:
    """f(tau) = |tau|^4 - 8 Re(tau^3) + 18 |tau|^2 - 27 (Goldman, Complex
    Hyperbolic Geometry, Thm 6.2.4): positive for loxodromic elements,
    negative for regular elliptic ones, zero for parabolic ones."""
    t2 = abs(tau) ** 2
    return t2 * t2 - 8.0 * (tau ** 3).real + 18.0 * t2 - 27.0


def _goldman_cases():
    rng = np.random.default_rng(RNG_SEED + 1)
    for scale in (0.8, 1.5, 2.0, 2.5, 3.0):
        for kind in KINDS:
            for _ in range(200):
                yield scale, kind, random_element(rng, kind, scale)


def _verdict(m) -> str | None:
    """classify's kind or parabolic subtype, None when it is ambiguous."""
    try:
        cls = classify(m)
    except AmbiguousClustering:
        return None
    return cls.subtype.value if cls.subtype is not None else cls.kind.value


def test_classify_agrees_with_goldman_discriminant():
    # seen at conjugator scale 0.8: hyperbolic f in [1.9e-2, 6.9e2], elliptic
    # f in [-11.6, -1.6e-4], parabolic |f| <= 1.2e-13.  Larger conjugators
    # (max|A| up to 2.5e3 at scale 2.5) may leave a parabolic verdict
    # ambiguous, never wrong: a multiplicity floor that does not grow with
    # max|A| calls rotational draws hyperbolic there.  The sign of f decides a
    # hyperbolic draw and an elliptic one with three simple roots; a
    # unit-modulus test on the computed moduli calls an elliptic draw at
    # scale 3.0 hyperbolic and leaves five hyperbolic ones ambiguous
    for scale, kind, m in _goldman_cases():
        f = goldman(complex(np.trace(m)))
        verdict = _verdict(m)
        if verdict is None and scale > 0.8 and kind != "hyperbolic":
            if kind == "elliptic":
                assert max(pair.multiplicity for pair in eig3(m).pairs) > 1, (scale, f)
            continue
        assert verdict == kind, (scale, kind, f)
        if f > 1e-6:
            assert verdict == "hyperbolic", (scale, kind, f)
        elif f < -1e-6:
            assert verdict == "elliptic", (scale, kind, f)
        if verdict not in ("elliptic", "hyperbolic"):
            assert abs(f) <= 1e-10, (scale, kind, f)


def test_elliptic_conjugates_at_scale_3_are_never_hyperbolic():
    # a unit-modulus test on computed moduli called 4 of these 300 draws
    # hyperbolic (||lambda| - 1| of 1.0e-7 to 6.3e-7 at max|A| up to 2.1e3)
    rng = np.random.default_rng(5)
    verdicts = [_verdict(conjugate(random_elliptic(rng), random_conjugator(rng, 3.0)))
                for _ in range(300)]
    assert set(verdicts) <= {"elliptic", None}
    assert verdicts.count("elliptic") >= 295


def _small_rotations(eps: float):
    """parabolic_normal(0.7, eps, 0.4+0.2j), whose double and simple
    eigenvalues are 1.5 eps apart, and 200 conjugates of it at scale 0.8."""
    m = mat_exp(AlgebraElement.parabolic_normal(0.7, eps, 0.4 + 0.2j).matrix())
    rng = np.random.default_rng(1)
    return [m] + [conjugate(m, random_conjugator(rng, 0.8)) for _ in range(200)]


def _within_triple_root_floor(m) -> bool:
    """d = c2^2 - 3 c1 within eig3's floor 2|c2| e2 + 3 e1, where
    e_k = _COEF_NOISE * u * s^k and s = max(1, max|A_ij|)."""
    c2, c1, _ = linalg3.char_poly(m)
    s = max(1.0, float(np.abs(m).max()))
    e2 = linalg3._COEF_NOISE * 2.0 ** -52 * s
    return abs(c2 * c2 - 3.0 * c1) <= 2.0 * abs(c2) * e2 + 3.0 * e2 * s


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7])
def test_small_rotations_are_rotational_or_ambiguous(eps):
    # a triple-root test at a fixed relative 1e-8 calls all 200 conjugates
    # three_step at eps = 1e-5.  Within the noise floor, a three-step verdict
    # is the kind of a matrix within that noise of A (the backward contract)
    for m in _small_rotations(eps):
        verdict = _verdict(m)
        if verdict == "three_step" and eps <= 1e-6:
            assert _within_triple_root_floor(m), eps
        else:
            assert verdict in ("rotational", None), (eps, verdict)


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_small_rotations_keep_an_accurate_simple_eigenvalue(eps):
    # next to a double root a Newton step on the cubic amplifies coefficient
    # noise by 1 / gap^2: taken there, it misses exp(i eps) by up to 1e-6
    for m in _small_rotations(eps):
        simple = [pair.value for pair in eig3(m).pairs if pair.multiplicity == 1]
        assert len(simple) == 1 and abs(simple[0] - cmath.exp(1j * eps)) <= 1e-9, eps


# forward basins from the fixed-point geometry -----------------------------------

@pytest.mark.parametrize("kind", ["hyperbolic", "rotational", "line_fixing", "three_step"])
def test_forward_status_follows_the_fixed_point_geometry(kind):
    # a point v flows to p+ iff Q(v, w) != 0, with w = p- for a hyperbolic
    # element and w = p for a rotational or line-fixing one, and always for a
    # three-step one (Goldman, Complex Hyperbolic Geometry, 6.2); the resolver
    # must certify exactly the default samples with margin
    # |Q(v, w)| / (|v| |w|) > 1e-12
    rng = np.random.default_rng([RNG_SEED, 2, len(kind)])
    for seed in range(3):
        m = random_element(rng, kind)
        cls = classify(m)
        p = cls.attractive.point
        points = dynamics._sample_points(seed, 1000, 100, p.vector, tangent_line(p).vector)
        status = dynamics._resolve_batch(m, points, p.vector, dynamics.DEFAULT_MAX_ITER,
                                         dynamics.CAPTURE_RADIUS)
        if kind == "three_step":
            expected = np.ones(points.shape[1], dtype=bool)
        else:
            w = (cls.repulsive if kind == "hyperbolic" else cls.attractive).point.vector
            margin = np.abs((J @ w).conj() @ points) / (
                np.linalg.norm(points, axis=0) * np.linalg.norm(w))
            expected = margin > 1e-12
        np.testing.assert_array_equal(status == 1, expected, err_msg=f"{kind} seed {seed}")
