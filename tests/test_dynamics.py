"""Orbit iteration, convergence detection and basin coverage."""

import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from cp2lab import (
    AlgebraElement,
    ProjectivePoint,
    basin_coverage_check,
    chordal_distance,
    classify,
    converge,
    iterate,
    mat_exp,
)
from cp2lab import dynamics, linalg3
from cp2lab.dynamics import _nearest_fixed_point
from cp2lab.errors import Cp2LabError, NotNonElliptic
from cp2lab.su12 import J, fixed_points, is_group_member, tangent_line

from helpers import (
    conjugate,
    random_conjugator,
    random_element,
    random_parabolic,
    reference_chordal,
    reference_converge,
    reference_first_capture,
    reference_iterate,
    reference_resolve_batch,
    reference_scalar_converge,
    reference_scalar_iterate,
    reference_scalar_step,
)
from test_linalg3 import _coordinates

RNG_SEED = 4242


def _pt(v) -> ProjectivePoint:
    return ProjectivePoint.from_vector(v)


def _hyperbolic(l=1.0, b=0.0):
    return mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())


def test_iterate_fixed_point_stays():
    m = _hyperbolic()
    p = _pt([1, 1, 0])
    assert chordal_distance(iterate(m, p, 25), p) < 1e-12


def test_iterate_zero_steps():
    m = _hyperbolic()
    p = _pt([1, 0.2 + 0.1j, -0.3])
    assert iterate(m, p, 0) == p


def test_iterate_converges_to_attractive_point():
    m = _hyperbolic(1.0, 0.0)
    out = iterate(m, _pt([1, 0, 0]), 50)
    assert chordal_distance(out, _pt([1, 1, 0])) < 1e-8


def test_converge_fixed_point_in_zero_steps():
    m = _hyperbolic(1.0, 0.3)
    res = converge(m, _pt([0, 0, 1]))
    assert res.converged and res.iterations == 0
    assert chordal_distance(res.limit, _pt([0, 0, 1])) < 1e-9


def test_converge_generic_point_to_attractive():
    rng = np.random.default_rng(RNG_SEED)
    m = _hyperbolic(0.8, 0.4)
    cls = classify(m)
    for _ in range(10):
        p = _pt(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        res = converge(m, p)
        assert res.converged
        assert res.final_distance <= 1e-8
        assert chordal_distance(res.limit, cls.attractive.point) < 1e-6


def test_converge_three_step_all_of_projective_plane():
    rng = np.random.default_rng(RNG_SEED + 1)
    m = mat_exp(AlgebraElement.parabolic_normal(0.2, 0.0, 1.0).matrix())
    cls = classify(m)
    for _ in range(5):
        p = _pt(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        res = converge(m, p, max_iter=30000)
        assert res.converged
        assert chordal_distance(res.limit, cls.attractive.point) < 1e-6


def test_converge_on_invariant_line_goes_to_exterior_point():
    # the tangent line at the repulsive point is invariant; on it the
    # dynamics contracts toward the exterior fixed point.  Rounding pushes
    # orbits off the line at machine-epsilon scale, so keep the
    # translation length small and the tolerance loose enough that the
    # on-line convergence fires well before the transverse escape.
    m = _hyperbolic(0.3, 0.2)
    cls = classify(m)
    rng = np.random.default_rng(RNG_SEED + 2)
    p_minus = cls.repulsive.point.vector
    q = cls.exterior.point.vector
    for _ in range(5):
        t = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        res = converge(m, _pt(p_minus + t * q), tol=1e-6)
        assert res.converged
        assert chordal_distance(res.limit, cls.exterior.point) < 1e-4


def test_rotational_line_points_never_converge():
    m = mat_exp(AlgebraElement.parabolic_normal(0.0, 1.0, 0.0).matrix())
    cls = classify(m)
    p = cls.attractive.point.vector
    q = cls.exterior.point.vector
    res = converge(m, _pt(p + 0.7 * q), max_iter=3000)
    assert not res.converged


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_converge_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    # nan and -1 used to run the whole budget, inf to stop at step 0
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        converge(_hyperbolic(), _pt([1, 0.2, 0.1]), tol=tol)


def test_converge_equivariance():
    rng = np.random.default_rng(RNG_SEED + 3)
    m = conjugate(_hyperbolic(0.9, -0.5), random_conjugator(rng))
    for _ in range(5):
        p = _pt(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        ap = ProjectivePoint.from_vector(m @ p.vector)
        r1 = converge(m, p)
        r2 = converge(m, ap)
        assert r1.converged and r2.converged
        assert chordal_distance(r1.limit, r2.limit) < 1e-6


def _random_start(rng) -> ProjectivePoint:
    return _pt(rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))


def _invariant_line_orbits(rng, n):
    # the case of test_converge_on_invariant_line_goes_to_exterior_point
    m = _hyperbolic(0.3, 0.2)
    cls = classify(m)
    p_minus, q = cls.repulsive.point.vector, cls.exterior.point.vector
    for _ in range(n):
        t = complex(rng.uniform(0.2, 2.0), rng.uniform(-1, 1))
        yield m, _pt(p_minus + t * q)


def _nearest(m, v) -> ProjectivePoint:
    """The limit converge reports when its final iterate is v."""
    return _nearest_fixed_point(fixed_points(m), _pt(v))


# kind: (orbits, max_iter, tol); the parabolic tolerances keep orbits to a
# few hundred steps, and rotational orbits exhaust their budget
ORACLE_ORBITS = {
    "hyperbolic": (40, 10_000, 1e-10),
    "line_fixing": (40, 10_000, 1e-5),
    "three_step": (40, 10_000, 1e-5),
    "rotational": (40, 3_000, 1e-8),
    "invariant_line": (40, 10_000, 1e-6),
}


@pytest.mark.parametrize("kind", sorted(ORACLE_ORBITS))
def test_converge_and_iterate_match_the_numpy_loop(kind):
    count, max_iter, tol = ORACLE_ORBITS[kind]
    rng = np.random.default_rng([RNG_SEED, sorted(ORACLE_ORBITS).index(kind)])
    if kind == "invariant_line":
        orbits = list(_invariant_line_orbits(rng, count))
    else:
        orbits = [(random_element(rng, kind), _random_start(rng)) for _ in range(count)]
    for i, (m, p) in enumerate(orbits):
        converged, iterations, dist, final = reference_converge(m, p.vector, max_iter, tol)
        res = converge(m, p, max_iter=max_iter, tol=tol)
        assert (res.converged, res.iterations) == (converged, iterations), (kind, i)
        assert res.final_distance == pytest.approx(dist, rel=1e-3), (kind, i)
        if kind == "rotational":
            assert not converged
        else:
            assert converged
            assert chordal_distance(res.limit, _nearest(m, final)) < 1e-12, (kind, i)
        if i < 8:
            for n in (0, 1, 25, 500):
                expected = reference_iterate(m, p.vector, n)
                assert reference_chordal(iterate(m, p, n).coords, expected) < 1e-12, (kind, i, n)


def _bits(x):
    """x with every float and complex spelt in hex, so == compares bits."""
    if isinstance(x, complex):
        return x.real.hex(), x.imag.hex()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return tuple(map(_bits, x))
    return x


def _orbit_fields(res) -> tuple:
    limit = None if res.limit is None else _bits(res.limit.coords)
    return res.converged, res.iterations, repr(res.final_distance), limit


def _outcome(f, *args):
    """f's result, or the type and message of the exception it raised."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError, Cp2LabError) as exc:
        return type(exc), str(exc)


def _ball_starts(rng):
    """Starts (1, y, z) with |y|^2 + |z|^2 = r^2 inside, on and outside the ball."""
    for r in (0.5, 1.0, 1.7):
        t, a, b = rng.uniform(0.0, 2.0 * math.pi, 3)
        yield _pt([1.0, r * math.cos(t) * np.exp(1j * a), r * math.sin(t) * np.exp(1j * b)])


# kind: stopping tolerance; elliptic and rotational orbits exhaust the budget
SCALAR_ORBIT_TOL = {"elliptic": 1e-8, "hyperbolic": 1e-10, "rotational": 1e-8,
                    "line_fixing": 1e-5, "three_step": 1e-5}


@pytest.mark.parametrize("scale", [0.8, 3.0])
@pytest.mark.parametrize("kind", sorted(SCALAR_ORBIT_TOL))
def test_converge_and_iterate_equal_the_scalar_reference_bit_for_bit(kind, scale):
    tol = SCALAR_ORBIT_TOL[kind]
    rng = np.random.default_rng([RNG_SEED, sorted(SCALAR_ORBIT_TOL).index(kind), int(10 * scale)])
    exhausted = 0
    for i in range(4):
        m = random_element(rng, kind, scale)
        for p in _ball_starts(rng):
            for max_iter in (1, 2_000):
                got, want = (_outcome(lambda f: _orbit_fields(f(m, p, max_iter, tol)), f)
                             for f in (converge, reference_scalar_converge))
                assert got == want, (kind, i, max_iter)
                exhausted += max_iter > 1 and got[0] is False
            for n in (0, 1, 37, 500):
                got, want = (_outcome(lambda f: _bits(f(m, p, n).coords), f)
                             for f in (iterate, reference_scalar_iterate))
                assert got == want, (kind, i, n)
    if kind in ("elliptic", "rotational"):
        assert exhausted


_IDENTITY_ROWS = [[1 + 0j, 0j, 0j], [0j, 1 + 0j, 0j], [0j, 0j, 1 + 0j]]


def _kernel_step(x):
    """One step of _walk from x under the identity, without and with its
    distance, each against _canonical and _chordal of the same image."""
    v = tuple(map(complex, x))

    def reference():
        w = reference_scalar_step(_IDENTITY_ROWS, v)
        d = linalg3._chordal(v, w)
        return 0 if d <= math.inf else 1, w, d

    got = (_outcome(lambda: _bits(dynamics._walk(_IDENTITY_ROWS, v, 1, None)[1])),
           _outcome(lambda: _bits(dynamics._walk(_IDENTITY_ROWS, v, 1, math.inf))))
    want = (_outcome(lambda: _bits(reference_scalar_step(_IDENTITY_ROWS, v))),
            _outcome(lambda: _bits(reference())))
    return got, want


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_coordinates())
def test_walk_step_equals_canonical_and_chordal(x):
    got, want = _kernel_step(x)
    assert got == want, x


@pytest.mark.parametrize("x, falls_back", [
    ([3 + 4j, 4 - 3j, 1], False),                           # |x0| = |x1|: index 0 wins
    ([0.5, 3 + 4j, -5], False),                             # |x1| = |x2|: index 1 wins
    ([3e-320 + 1e-320j, 1e-321, -2e-320j], True),           # subnormal pivot
    ([0, 2.0 ** -1023, 1e-310j], True),
    ([2.0 ** 1023, 1, 1j], True),                           # pivot at 2^1023
    ([1.5e308j, 1e308, 0], True),
    ([1e308 + 1e308j, 1, 1], True),                         # abs overflows
    ([math.nan, 1, 1], True),
    ([1, complex(math.inf, 0.0), 0], True),
    ([0, 0, 0], True),
])
def test_walk_step_edge_cases(monkeypatch, x, falls_back):
    got, want = _kernel_step(x)
    assert got == want
    calls = []
    monkeypatch.setattr(dynamics, "_canonical", lambda *y: calls.append(y) or linalg3._canonical(*y))
    _outcome(dynamics._walk, _IDENTITY_ROWS, tuple(map(complex, x)), 1, None)
    assert bool(calls) == falls_back
    if not falls_back:
        assert got[0].index(_bits(1 + 0j)) == [abs(z) for z in x].index(5.0)


def test_converge_step_cost_does_not_grow_with_the_iteration_count(monkeypatch):
    # numpy 3-vector calls, and then calls of linalg3's scalar step, distance
    # and norm, were the per-step cost of the old loops
    calls = Counter()

    def count(owner, name, wrap=lambda f: f):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(wrapper))

    count(np, "cross")
    count(linalg3, "canonical_coords")
    count(ProjectivePoint, "from_vector", staticmethod)
    for name in ("_canonical", "_chordal", "_norm2"):
        count(dynamics, name)
    m = mat_exp(AlgebraElement.parabolic_normal(0.2, 0.0, 1.0).matrix())
    p = _pt([1, 0.3 - 0.2j, -0.5j])
    runs = []
    for tol in (1e-4, 1e-6):
        calls.clear()
        res = converge(m, p, tol=tol)
        assert res.converged
        runs.append((res.iterations, dict(calls)))
    (short, short_calls), (long, long_calls) = runs
    assert long >= 800 and long > 4 * short
    assert short_calls == long_calls


def test_successive_distances_decrease_after_burn_in():
    rng = np.random.default_rng(RNG_SEED + 4)
    m = _hyperbolic(0.6, 0.8)
    total = 0
    monotone = 0
    for _ in range(100):
        v = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        prev = None
        violations = 0
        steps = 0
        x = ProjectivePoint.from_vector(v).vector
        for k in range(200):
            y = ProjectivePoint.from_vector(m @ x).vector
            d = chordal_distance(x, y)
            if d < 1e-13:
                break
            if k >= 20:
                steps += 1
                if prev is not None and d > prev:
                    violations += 1
            prev = d
            x = y
        if steps:
            total += 1
            monotone += violations == 0
    assert monotone / total >= 0.99


def test_backward_iteration_swaps_attractive_and_repulsive():
    rng = np.random.default_rng(RNG_SEED + 5)
    m = conjugate(_hyperbolic(0.7, 0.2), random_conjugator(rng))
    cls = classify(m)
    m_inv = J @ m.conj().T @ J
    cls_inv = classify(m_inv)
    assert chordal_distance(cls.attractive.point, cls_inv.repulsive.point) < 1e-8
    assert chordal_distance(cls.repulsive.point, cls_inv.attractive.point) < 1e-8


def test_basin_coverage_hyperbolic():
    rng = np.random.default_rng(RNG_SEED + 6)
    m = conjugate(_hyperbolic(0.8, 0.1), random_conjugator(rng))
    report = basin_coverage_check(m, samples=2000, seed=11)
    assert report.samples == 2200
    assert report.unresolved == 0
    assert report.resolved_forward + report.resolved_backward + report.unresolved == report.samples
    assert abs(report.fraction_to_attractive + report.fraction_to_repulsive_backward - 1.0) < 1e-12


def test_basin_coverage_strongly_contracting():
    # at large translation lengths an orbit reaches p+ within a stride or
    # two, and capture alone certifies every sample.  The conjugates'
    # entries grow like e^l; the relative group check accepts them all
    rng = np.random.default_rng(RNG_SEED + 8)
    elements = []
    for l in (3.0, 5.0, 8.0):
        m = _hyperbolic(l, 0.4)
        elements += [m, conjugate(m, random_conjugator(rng))]
    for element in elements:
        report = basin_coverage_check(element, samples=1000, seed=17)
        assert report.samples == 1100
        assert report.resolved_forward == 1100


def test_basin_coverage_accepts_large_elements_it_validated():
    # the entries of these conjugates reach ~10^3, so rounding puts their
    # form error near 10^-9; the relative group check accepts them at
    # classify's tolerance as well as at basin's
    rng = np.random.default_rng(0)
    for l in (5.0, 8.0):
        m = _hyperbolic(l, 0.4)
        for _ in range(10):
            c = conjugate(m, random_conjugator(rng))
            assert is_group_member(c, 1e-7)
            report = basin_coverage_check(c, samples=100, seed=3)
            assert report.unresolved == 0


def test_basin_coverage_parabolic_subtypes():
    rng = np.random.default_rng(RNG_SEED + 7)
    for subtype in ("rotational", "line_fixing", "three_step"):
        m = conjugate(random_parabolic(rng, subtype), random_conjugator(rng))
        report = basin_coverage_check(m, samples=1500, seed=13)
        assert report.unresolved == 0, subtype


def test_basin_coverage_deterministic():
    m = _hyperbolic(0.9, 0.3)
    r1 = basin_coverage_check(m, samples=500, seed=99)
    r2 = basin_coverage_check(m, samples=500, seed=99)
    assert r1 == r2


def test_basin_coverage_rejects_elliptic():
    m = mat_exp(AlgebraElement(0.9, -0.4, 0j, 0j, 0j).matrix())
    with pytest.raises(NotNonElliptic):
        basin_coverage_check(m, samples=10, seed=0)


def test_basin_counts_are_disjoint_partition():
    m = _hyperbolic(1.2, -0.6)
    report = basin_coverage_check(m, samples=800, line_samples=80, seed=5)
    assert report.samples == 880
    assert report.resolved_forward + report.resolved_backward + report.unresolved == 880


def test_basin_path_builds_one_philox_per_stream_and_no_generator(monkeypatch):
    # nothing is built per sample or per batch: each stream is one numpy
    # Philox read in order, and no numpy Generator is built
    def refuse(*args, **kwargs):
        raise AssertionError("numpy Generator built on the basin path")

    built = Counter()
    real_philox = np.random.Philox

    def counted(*args, **kwargs):
        built[samples] += 1
        return real_philox(*args, **kwargs)

    rng = np.random.default_rng(RNG_SEED + 9)
    elements = (_hyperbolic(0.8, 0.1), random_parabolic(rng, "three_step"))
    modules = [np.random] + [mod for name, mod in sys.modules.items()
                             if name.startswith("cp2lab")]
    for module in modules:
        if hasattr(module, "Generator"):
            monkeypatch.setattr(module, "Generator", refuse)
    monkeypatch.setattr(np.random, "Philox", counted)
    for samples in (300, 600):
        for m in elements:
            report = basin_coverage_check(m, samples=samples, seed=21)
            assert report.samples == samples + samples // 10
            assert report.unresolved == 0
    # one bit generator for each of the two streams of each element
    assert built[300] == built[600] == len(elements) * 2


def test_reciprocal_scaling_equals_division():
    # the resolver rescales a stride by y * (1 / max|y|) instead of y / max|y|;
    # numpy divides a complex by a real m + 0j as (re, im) * (1 / m), so the
    # values agree (a -0 may become +0, hence == and not the bits)
    rng = np.random.default_rng(RNG_SEED + 10)
    scale = 10.0 ** rng.uniform(-30, 30, size=(3, 20_000))
    y = (rng.normal(size=(3, 20_000)) + 1j * rng.normal(size=(3, 20_000))) * scale
    y[:, :50] = rng.normal(size=(3, 50))
    m = np.abs(y).max(axis=0)
    assert (y * (1.0 / m) == y / m).all()


# budgets of 1, 2 and 3 strides, of 64, 65 and 66 (the staleness window's
# edge) and the default; blocks end at the window's first stride
RESOLVER_BUDGETS = (8, 16, 24, 512, 520, 528, 10_000)


def _resolver_points(rng, cls, seed):
    """Default basin samples plus points of the invariant line through p+ and
    the exterior point, some of which the staleness rule voids."""
    p_plus = cls.attractive.point.vector
    points = dynamics._sample_points(seed, 1000, 100, p_plus,
                                     tangent_line(cls.attractive.point).vector)
    if cls.exterior is not None:
        t = 0.3 * (rng.normal(size=12) + 1j * rng.normal(size=12))
        line = p_plus[:, None] + cls.exterior.point.vector[:, None] * t
        points = np.column_stack([points, line])
    return points


@pytest.mark.parametrize("kind", ["hyperbolic", "rotational", "line_fixing", "three_step"])
def test_resolver_statuses_match_the_reference(kind):
    # the reference keeps the strong-convergence rule and status 2, which only
    # columns placed exactly on a fixed point reach; no sampled column lies on
    # one, so on these columns capture and the fallback give the same statuses
    rng = np.random.default_rng([RNG_SEED, 10, len(kind)])
    m = random_element(rng, kind)
    cls = classify(m)
    fixed = [fp.point.vector for fp in cls.fixed_points]
    points = _resolver_points(rng, cls, seed=len(kind))
    backward = J @ m.conj().T @ J
    seen = Counter()
    for max_iter in RESOLVER_BUDGETS:
        for a, target in ((m, cls.attractive.point), (backward, cls.repulsive.point)):
            expected = reference_resolve_batch(a, points, target.vector, fixed, max_iter, 1e-8,
                                               dynamics.CAPTURE_RADIUS)
            got = dynamics._resolve_batch(a, points, target.vector, max_iter,
                                          dynamics.CAPTURE_RADIUS)
            np.testing.assert_array_equal(got, expected, err_msg=f"{kind} max_iter={max_iter}")
            seen.update(expected.tolist())
    assert seen[1] > 0


# budgets of 1, 2 and 3 strides, where at most one probe runs, up to the default
PROBE_BUDGETS = (8, 16, 24, 64, 512, 520, 528, 1_000, 10_000)


@pytest.mark.parametrize("kind", ["hyperbolic", "rotational", "line_fixing", "three_step"])
def test_probes_certify_only_columns_the_reference_resolves(kind):
    # a probe certifies a column when the capture rule holds, with a margin,
    # at strides N and N + 1 <= budget; the reference tests capture at every
    # stride, so it must resolve every certified column to the target.
    # Columns started within the capture radius of the target add orbits
    # that leave it before they return, which no probe may certify early
    rng = np.random.default_rng([RNG_SEED, 12, len(kind)])
    m = random_element(rng, kind)
    cls = classify(m)
    fixed = [fp.point.vector for fp in cls.fixed_points]
    sampled = _resolver_points(rng, cls, seed=100 + len(kind))
    certified_at_default = 0
    for a, target in ((m, cls.attractive.point), (J @ m.conj().T @ J, cls.repulsive.point)):
        t_hat = (target.vector / np.linalg.norm(target.vector)).reshape(3, 1)
        near = t_hat + 2e-3 * (rng.normal(size=(3, 200)) + 1j * rng.normal(size=(3, 200)))
        points = np.column_stack([sampled, near])
        step, y = dynamics._target_frame(a, points, target.vector)
        for max_iter in PROBE_BUDGETS:
            certified = dynamics._probe_captures(step, y, max_iter // 8,
                                                 dynamics.CAPTURE_RADIUS ** 2)
            expected = reference_resolve_batch(a, points, target.vector, fixed, max_iter, 1e-8,
                                               dynamics.CAPTURE_RADIUS)
            wrong = np.flatnonzero(certified & (expected != 1))
            assert not wrong.size, f"{kind} max_iter={max_iter}: columns {wrong[:10]}"
            if max_iter == dynamics.DEFAULT_MAX_ITER:
                certified_at_default += int(certified.sum())
    assert certified_at_default > sampled.shape[1]


def test_probes_stay_within_the_budget():
    # at budgets of 2^j and 2^j + 1 strides a certified column meets the
    # capture rule by the budget's last stride.  Columns first captured at
    # stride 2^j + 1 and certified at that budget exist for j = 0, 2, 3, 4,
    # so a probe that ran one stride past a budget of 2^j would fail here
    edge = Counter()
    for kind in ("hyperbolic", "rotational", "line_fixing", "three_step"):
        rng = np.random.default_rng([RNG_SEED, 13, len(kind)])
        m = random_element(rng, kind)
        cls = classify(m)
        points = _resolver_points(rng, cls, seed=200 + len(kind))
        for a, target in ((m, cls.attractive.point), (J @ m.conj().T @ J, cls.repulsive.point)):
            first = reference_first_capture(a, points, target.vector, dynamics.CAPTURE_RADIUS, 130)
            step, y = dynamics._target_frame(a, points, target.vector)
            for j in range(8):
                for budget in (2**j, 2**j + 1):
                    certified = dynamics._probe_captures(step, y, budget,
                                                         dynamics.CAPTURE_RADIUS ** 2)
                    late = certified & ((first == 0) | (first > budget))
                    where = f"{kind} budget={budget}: columns {np.flatnonzero(late)[:10]}"
                    assert not late.any(), where
                    if budget == 2**j + 1:
                        edge[2**j] += int((certified & (first == budget)).sum())
    assert all(edge[b] > 0 for b in (1, 4, 8, 16))


@pytest.mark.parametrize("kind", ["hyperbolic", "rotational", "line_fixing", "three_step"])
def test_probes_do_not_depend_on_the_scale_of_a_column(kind):
    # the probes measure x_N = P_j x_0 without rescaling it, which the
    # distance's scale invariance allows; exact powers of two scale every
    # value exactly, and decimal factors round it, within the probe's margin
    rng = np.random.default_rng([RNG_SEED, 14, len(kind)])
    m = random_element(rng, kind)
    cls = classify(m)
    points = _resolver_points(rng, cls, seed=300 + len(kind))
    seen = 0
    for a, target in ((m, cls.attractive.point), (J @ m.conj().T @ J, cls.repulsive.point)):
        step, y = dynamics._target_frame(a, points, target.vector)
        for budget in (3, 64, 1_250):
            certified = dynamics._probe_captures(step, y, budget, dynamics.CAPTURE_RADIUS ** 2)
            seen += int(certified.sum())
            for scale in (2.0**20, 2.0**-20, 1e8, 1e-8):
                scaled = dynamics._probe_captures(step, y * scale, budget,
                                                  dynamics.CAPTURE_RADIUS ** 2)
                np.testing.assert_array_equal(scaled, certified,
                                              err_msg=f"{kind} budget={budget} scale={scale}")
    assert seen > points.shape[1]


def test_an_underflowing_jump_is_left_to_the_stride_loop():
    # a diagonal stride matrix with the target on the first axis keeps the
    # frame exact, so x_N = (2^-600, 2^-640, 2^-640) at N = 8: every square
    # underflows, the probe's distance is 0 / 0 and certifies nothing.  The
    # stride loop, which rescales every stride, captures the column at stride
    # 9, as the reference does, and the other columns keep their statuses
    m = np.diag([1.0, 2.0**-10, 2.0**-10]).astype(complex)
    target = np.array([1.0, 0.0, 0.0], dtype=complex)
    fixed = list(np.eye(3, dtype=complex))
    rng = np.random.default_rng(RNG_SEED + 15)
    points = np.column_stack([[2.0**-600, 1.0, 1.0],
                              rng.normal(size=(3, 20)) + 1j * rng.normal(size=(3, 20))])
    step, y = dynamics._target_frame(m, points, target)
    assert y[0, 0] == 2.0**-600 and y[1, 0] == y[2, 0] == 1.0
    cap2 = dynamics.CAPTURE_RADIUS ** 2
    assert reference_first_capture(m, points[:, :1], target, dynamics.CAPTURE_RADIUS, 20)[0] == 9
    for max_iter in (80, dynamics.DEFAULT_MAX_ITER):
        certified = dynamics._probe_captures(step, y, max_iter // 8, cap2)
        assert not certified[0]
        assert certified[1:].any()
        expected = reference_resolve_batch(m, points, target, fixed, max_iter, 1e-8,
                                           dynamics.CAPTURE_RADIUS)
        assert expected[0] == 1
        got = dynamics._resolve_batch(m, points, target, max_iter, dynamics.CAPTURE_RADIUS)
        np.testing.assert_array_equal(got, expected)


def test_resolver_tail_runs_many_strides_per_round(monkeypatch):
    # nothing is captured at capture_radius = 1e-300, so every column runs the
    # whole budget, and the probes, which certify nothing there either, are
    # left out.  A round makes one _target_dist2 call: one stride per round
    # would make 7,500 more calls for 7,500 more strides, 64 strides per round
    # make one per 64 strides
    calls = Counter()
    inner = dynamics._target_dist2

    def counted(y):
        calls["dist"] += 1
        return inner(y)

    monkeypatch.setattr(dynamics, "_target_dist2", counted)
    monkeypatch.setattr(dynamics, "_probe_captures",
                        lambda step, y, budget, cap2: np.zeros(y.shape[1], dtype=bool))
    rng = np.random.default_rng(RNG_SEED + 11)
    m = random_element(rng, "rotational")
    cls = classify(m)
    points = dynamics._sample_points(3, 10, 0, cls.attractive.point.vector,
                                     tangent_line(cls.attractive.point).vector)
    counts = []
    for max_iter in (20_000, 80_000):
        calls.clear()
        dynamics._resolve_batch(m, points, cls.attractive.point.vector, max_iter, 1e-300)
        counts.append(calls["dist"])
    assert counts[0] > 0
    assert counts[1] - counts[0] <= 7_500 / 64
