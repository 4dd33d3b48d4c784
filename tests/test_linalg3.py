"""Cubic roots, eigendata, Jordan shapes, matrix exponential, projective points."""

import cmath
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2lab import (
    ProjectivePoint,
    chordal_distance,
    cubic_roots,
    eig3,
    jordan_shape,
    mat_exp,
)
from cp2lab import linalg3
from cp2lab.errors import AmbiguousClustering
from cp2lab.linalg3 import _jordan_shape_from, _rank_and_null, canonical_coords, char_poly, det3, inv3

from helpers import abs_or_inf, full_pivot_rank, random_element, reference_canonical_coords, reference_chordal

RNG_SEED = 20240811


def _sorted(vals):
    return sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _newton_roots_oracle(c2, c1, c0, rng, starts=100):
    """Independent iterative root finder: Newton from many random starts."""
    found = []
    for _ in range(starts):
        x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        for _ in range(200):
            f = ((x + c2) * x + c1) * x + c0
            fp = (3 * x + 2 * c2) * x + c1
            if abs(fp) < 1e-300:
                break
            step = f / fp
            x -= step
            if abs(step) < 1e-14:
                break
        if abs(((x + c2) * x + c1) * x + c0) < 1e-9:
            if not any(abs(x - y) < 1e-6 for y in found):
                found.append(x)
    return found


def test_cubic_cube_roots_of_unity():
    roots = cubic_roots(0, 0, -1)
    expected = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    for e in expected:
        assert min(abs(e - r) for r in roots) < 1e-12


def test_cubic_matches_hyperbolic_eigenvalues():
    # characteristic roots of the closed-form boundary-translation matrix
    a = np.array([
        [math.cosh(1.0), math.sinh(1.0), 0.0],
        [math.sinh(1.0), math.cosh(1.0), 0.0],
        [0.0, 0.0, 1.0],
    ], dtype=complex)
    roots = cubic_roots(*char_poly(a))
    for e in (math.e, 1.0 / math.e, 1.0):
        assert min(abs(e - r) for r in roots) < 1e-12


def test_cubic_random_against_newton_oracle():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(40):
        c2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        c0 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        roots = cubic_roots(c2, c1, c0)
        oracle = _newton_roots_oracle(c2, c1, c0, rng)
        assert oracle, "oracle found no roots"
        for x in oracle:
            assert min(abs(x - r) for r in roots) < 1e-9


def test_cubic_residual_bound():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(200):
        c2 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c1 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        c0 = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        bound = 1e-9 * (1.0 + max(abs(c2), abs(c1), abs(c0)))
        for r in cubic_roots(c2, c1, c0):
            assert abs(((r + c2) * r + c1) * r + c0) <= bound


def test_cubic_merges_coincident_roots():
    # companion matrix of (x - 1)^2 (x - 2) = x^3 - 4x^2 + 5x - 2: eig3 reads
    # one eigenvalue of multiplicity 2 from the cubic's discriminants
    m = np.array([[0, 0, 2], [1, 0, -5], [0, 1, 4]], dtype=complex)
    double, simple = eig3(m).pairs
    assert double.multiplicity == 2 and abs(double.value - 1) < 1e-9
    assert simple.multiplicity == 1 and abs(simple.value - 2) < 1e-12
    assert eig3(m).eigenvalues()[:2] == [double.value, double.value]


@pytest.mark.parametrize("coeffs", [
    (-1e60, 1.0, -1.0),
    (0.0, 1e123 + 1e123j, -1.0),
    (0.0, 0.0, complex(float("nan"), 0.0)),
])
def test_cubic_refuses_coefficients_its_closed_form_would_overflow(coeffs):
    with pytest.raises(AmbiguousClustering):
        cubic_roots(*coeffs)


def test_cubic_accepts_coefficients_up_to_its_range():
    roots = cubic_roots(-1e50, 0.0, 0.0)
    assert abs(max(roots, key=abs) - 1e50) <= 1e36


def test_eig3_noise_floor_of_a_huge_nilpotent():
    # a zero cubic from entries whose cube overflows: the floors become inf,
    # not an OverflowError, and the root is triple
    m = np.array([[0, 1e200, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    [pair] = eig3(m).pairs
    assert pair.value == 0 and pair.multiplicity == 3 and len(pair.vectors) == 2


def test_eig3_null_direction_overflow_is_ambiguous():
    # a finite nilpotent whose null-space cross product overflows: no
    # eigenvector can be formed, so the decision is ambiguous, not a ValueError
    m = np.array([[0, 1e300, 0], [0, 0, 1e300], [0, 0, 0]], dtype=complex)
    with pytest.raises(AmbiguousClustering, match="^null direction overflows the float range$"):
        eig3(m)
    with pytest.raises(AmbiguousClustering, match="^null direction overflows the float range$"):
        jordan_shape(m)


def test_eig3_identity():
    data = eig3(np.eye(3))
    assert len(data.pairs) == 1
    pair = data.pairs[0]
    assert pair.multiplicity == 3
    assert abs(pair.value - 1) < 1e-12
    assert len(pair.vectors) == 3


def test_eig3_hyperbolic_normal_form_eigenvectors():
    a = np.array([
        [math.cosh(1.0), math.sinh(1.0), 0.0],
        [math.sinh(1.0), math.cosh(1.0), 0.0],
        [0.0, 0.0, 1.0],
    ], dtype=complex)
    data = eig3(a)
    expected = {
        round(math.e, 9): ProjectivePoint.from_vector([1, 1, 0]),
        round(1 / math.e, 9): ProjectivePoint.from_vector([1, -1, 0]),
        round(1.0, 9): ProjectivePoint.from_vector([0, 0, 1]),
    }
    for pair in data.pairs:
        target = expected[round(pair.value.real, 9)]
        assert chordal_distance(pair.vectors[0], target) < 1e-9


def test_eig3_recovers_constructed_diagonal():
    rng = np.random.default_rng(RNG_SEED + 2)
    found = 0
    while found < 20:
        p = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(p)) < 0.3:
            continue
        d = np.diag(rng.uniform(0.5, 2.0, 3) + 1j * rng.uniform(-1.0, 1.0, 3))
        gaps = [abs(d[i, i] - d[j, j]) for i in range(3) for j in range(i + 1, 3)]
        if min(gaps) < 0.3:
            continue
        m = p @ d @ np.linalg.inv(p)
        values = _sorted(eig3(m).eigenvalues())
        target = _sorted(np.diag(d))
        assert all(abs(a - b) < 1e-8 for a, b in zip(values, target))
        found += 1


def test_eig3_residual_invariant():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(1000):
        m = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        norm = np.abs(m).max()
        for pair in eig3(m).pairs:
            for vec in pair.vectors:
                v = vec.vector
                res = np.linalg.norm(m @ v - pair.value * v) / (norm * np.linalg.norm(v))
                assert res <= 1e-8


def test_eig3_degenerate_nullspace_error(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 4)
    m = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    monkeypatch.setattr(linalg3, "PIVOT_RTOL", 1e-30)
    with pytest.raises(AmbiguousClustering):
        eig3(m)


def test_jordan_identity():
    shape = jordan_shape(np.eye(3))
    assert shape.blocks == ((1, 1, 1),)


def test_jordan_single_block_unipotent():
    # exponential of the order-3 nilpotent generator fixing [1:1:0]
    a = np.array([[0, 0, 1], [0, 0, 1], [1, -1, 0]], dtype=complex)
    assert np.abs(a @ a @ a).max() < 1e-15
    m = np.eye(3) + a + (a @ a) / 2
    shape = jordan_shape(m)
    assert shape.blocks == ((3,),)
    assert abs(shape.eigenvalues[0] - 1) < 1e-9


def test_jordan_rotational_blocks():
    from cp2lab import AlgebraElement

    d2 = 1.0
    m = mat_exp(AlgebraElement.parabolic_normal(0.0, d2, 0.3).matrix())
    shape = jordan_shape(m)
    assert shape.for_eigenvalue(cmath.exp(-0.5j * d2)) == (2,)
    assert shape.for_eigenvalue(cmath.exp(1j * d2)) == (1,)


def test_jordan_diagonalizable_random():
    rng = np.random.default_rng(RNG_SEED + 5)
    found = 0
    while found < 50:
        p = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        if abs(np.linalg.det(p)) < 0.3:
            continue
        d = np.diag([1.0, 2.0, 3.5]) + 0j
        m = p @ d @ np.linalg.inv(p)
        shape = jordan_shape(m)
        assert all(blk == (1,) for blk in shape.blocks)
        found += 1


def test_jordan_ambiguous_clustering():
    m = np.diag([1.0, 1.0 + 5e-7, 2.0]).astype(complex)
    with pytest.raises(AmbiguousClustering):
        jordan_shape(m, tol=1e-7)


# shapes recorded from the full-pivot elimination path, per case: the shape
# at every tolerance, or the message at tolerance 1e-6
_ROT = (complex(0.540302306, 0.841470985), complex(0.877582562, -0.479425539))
_LOX = (complex(0.374475455, 0.158325683), complex(0.696706709, -0.717356091),
        complex(2.265444486, 0.957814566))
_NEAR = "eigenvalue clusters separated by 1.5e-05 < 10*tol"
JORDAN_CASES = [
    ("identity", ((1, 1, 1),), (1,), None),
    ("unipotent", ((3,),), (1,), None),
    ("rotational", ((1,), (2,)), _ROT, None),
    ("line_fixing", ((2, 1),), (1,), None),
    ("loxodromic", ((1,), (1,), (1,)), _LOX, None),
    ("diag conjugated", ((1,), (1,), (1,)), (1, 2, 3.5), None),
    ("double conjugated", ((1, 1), (1,)), (1, 2), None),
    ("near double", ((1,), (1,), (1,)), (1, 1.000015, 2), _NEAR),
    ("near double conjugated", ((1,), (1,), (1,)), (1, 1.000015, 2), _NEAR),
]


def _jordan_case_matrices():
    from cp2lab import AlgebraElement

    rng = np.random.default_rng(RNG_SEED + 6)
    p = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    unipotent = np.eye(3) + np.array([[0, 0, 1], [0, 0, 1], [1, -1, 0]], dtype=complex)
    return [
        np.eye(3, dtype=complex),
        unipotent,
        mat_exp(AlgebraElement.parabolic_normal(0.0, 1.0, 0.3).matrix()),
        mat_exp(AlgebraElement.parabolic_normal(0.7, 0.0, 0.0).matrix()),
        mat_exp(AlgebraElement.hyperbolic_normal(0.9, 0.4).matrix()),
        p @ np.diag([1.0, 2.0, 3.5]) @ np.linalg.inv(p),
        p @ np.diag([1.0, 1.0, 2.0]) @ np.linalg.inv(p),
        # clusters 1.5e-5 apart: distinct at every tol, ambiguous at tol 1e-6
        np.diag([1.0, 1.0 + 1.5e-5, 2.0]).astype(complex),
        p @ np.diag([1.0, 1.0 + 1.5e-5, 2.0]) @ np.linalg.inv(p),
    ]


def test_jordan_shape_recorded_cases():
    for m, (name, blocks, values, message) in zip(_jordan_case_matrices(), JORDAN_CASES, strict=True):
        for tol in (1e-9, 1e-7, 1e-6):
            if tol == 1e-6 and message is not None:
                with pytest.raises(AmbiguousClustering, match=f"^{re.escape(message)}$"):
                    jordan_shape(m, tol=tol)
                continue
            shape = jordan_shape(m, tol=tol)
            assert shape.blocks == blocks, name
            assert len(shape.eigenvalues) == len(values)
            assert all(abs(v - w) < 1e-8 for v, w in zip(shape.eigenvalues, values)), name
            assert _jordan_shape_from(np.asarray(m).tolist(), eig3(m), tol=tol) == shape


def test_jordan_shape_without_a_null_direction_is_ambiguous(monkeypatch):
    rng = np.random.default_rng(RNG_SEED + 4)
    m = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    monkeypatch.setattr(linalg3, "PIVOT_RTOL", 1e-30)
    with pytest.raises(AmbiguousClustering, match="^no null direction found for eigenvalue "):
        jordan_shape(m)


def _rank_cases():
    """(matrix, scale_ref) pairs: a - value I and its square for seeded
    elements of every kind, then rank-1 and rank-2 matrices plus noise."""
    rng = np.random.default_rng(RNG_SEED + 9)
    for kind in ("elliptic", "hyperbolic", "rotational", "line_fixing", "three_step"):
        for _ in range(300):
            m = random_element(rng, kind)
            for value in (pair.value for pair in eig3(m).pairs):
                n1 = m - value * np.eye(3)
                yield n1, None
                yield n1 @ n1, max(float(np.abs(n1).max()) ** 2, 1e-300)
    for rank in (1, 2):
        for noise in (1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
            for _ in range(40):
                u = rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank))
                v = rng.normal(size=(rank, 3)) + 1j * rng.normal(size=(rank, 3))
                e = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                yield u @ v + noise * e, None


def test_rank_decisions_match_full_pivot_elimination():
    ranks = Counter()
    for m, scale_ref in _rank_cases():
        rank, basis = _rank_and_null(m.tolist(), scale_ref)
        assert rank == full_pivot_rank(m, 1e-8, scale_ref)
        assert len(basis) == 3 - rank
        ranks[rank] += 1
    assert sorted(ranks) == [0, 1, 2, 3] and sum(ranks.values()) > 6000


def test_shift_subtracts_on_the_diagonal_only():
    # off-diagonal entries come out bit for bit as they went in, signed zeros
    # included: a -0.0 entry in the input reaches the eigenvectors, and so
    # the printed coordinates
    def bits(z):
        return (z.real.hex(), z.imag.hex())

    entries = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)] + [0.3 - 0.1j, -2.5j]
    for z in entries:
        rows = [[1.5 + 0.5j, z, z], [z, -0.25j, z], [z, z, -2.0 + 0j]]
        for value in (1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j, 2.0 + 0j, -0.5j, complex(-0.0, 0.0)):
            shifted = linalg3._shifted(rows, value)
            for i in range(3):
                for j in range(3):
                    want = rows[i][j] - value if i == j else rows[i][j]
                    assert bits(shifted[i][j]) == bits(want), (z, value, i, j)


def test_null_directions_by_rank():
    assert _rank_and_null(np.zeros((3, 3), dtype=complex).tolist()) == (0, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    # rank 1: solved from the pivot row (2, 4, -8); columns freed in the
    # order full-pivot elimination frees them
    m = np.outer([1, 0.5, 2], [2, 4, -8]).astype(complex)
    assert _rank_and_null(m.tolist()) == (1, [(0j, 1, 0.5), (1, 0j, 0.25)])
    rank, [v] = _rank_and_null(np.diag([1.0, 0.0, 3.0]).astype(complex).tolist())
    assert rank == 2 and v[0] == v[2] == 0 and v[1] != 0
    assert _rank_and_null(np.diag([1.0, 2.0, 3.0]).astype(complex).tolist()) == (3, [])


def test_det3_is_the_row_zero_cofactor_expansion_bit_for_bit():
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(1000):
        a = (rng.uniform(-2, 2, (3, 3)) + 1j * rng.uniform(-2, 2, (3, 3))) * 10.0 ** rng.integers(-3, 4)
        expansion = complex(
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
        d = det3(a)
        assert (d.real.hex(), d.imag.hex()) == (expansion.real.hex(), expansion.imag.hex())
        assert np.abs(inv3(a) @ a - np.eye(3)).max() < 1e-9


def test_mat_exp_zero():
    assert np.abs(mat_exp(np.zeros((3, 3))) - np.eye(3)).max() == 0.0


def _series_exp2(block, terms=60):
    """Independent plain Taylor series on a 2x2 block."""
    out = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, terms):
        term = term @ block / k
        out = out + term
    return out


def test_mat_exp_hyperbolic_block_closed_form():
    from cp2lab import AlgebraElement

    l = 0.8
    m = mat_exp(AlgebraElement.hyperbolic_normal(l, 0.0).matrix())
    oracle = _series_exp2(np.array([[0, l], [l, 0]], dtype=complex))
    assert np.abs(m[:2, :2] - oracle).max() < 1e-13
    assert np.abs(m[:2, :2] - np.array([[math.cosh(l), math.sinh(l)],
                                        [math.sinh(l), math.cosh(l)]])).max() < 1e-13
    assert abs(m[2, 2] - 1) < 1e-13
    assert np.abs(m[2, :2]).max() < 1e-15 and np.abs(m[:2, 2]).max() < 1e-15


def test_mat_exp_eigenvalue_formulas():
    from cp2lab import AlgebraElement

    l, b = 1.3, -0.7
    m = mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())
    values = eig3(m).eigenvalues()
    for target in (cmath.exp(l + 1j * b), cmath.exp(-l + 1j * b), cmath.exp(-2j * b)):
        assert min(abs(target - v) for v in values) < 1e-10


def test_mat_exp_determinant_identity():
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(200):
        m = rng.uniform(-0.8, 0.8, (3, 3)) + 1j * rng.uniform(-0.8, 0.8, (3, 3))
        e = mat_exp(m)
        prod = np.prod(eig3(e).eigenvalues())
        assert abs(prod - cmath.exp(np.trace(m))) < 1e-9
        assert abs(det3(e) - cmath.exp(np.trace(m))) < 1e-9


def test_canonical_idempotent_and_scale_invariant():
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(500):
        v = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        if np.abs(v).max() < 1e-3:
            continue
        c1 = canonical_coords(v)
        assert canonical_coords(c1) == c1
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) < 1e-3:
            continue
        assert chordal_distance(np.array(c1), np.array(canonical_coords(lam * v))) < 1e-12
    for special in ([1, 1, 0], [1, -1, 0], [0, 0, 1]):
        c = canonical_coords(special)
        assert canonical_coords(c) == c
        assert c[[abs(complex(x)) for x in special].index(max(abs(complex(x)) for x in special))] == 1.0


def test_canonical_pivot_is_one():
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(100):
        v = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        c = canonical_coords(v)
        mods = [abs(x) for x in c]
        assert c[int(np.argmax(mods))] == 1.0


def test_canonical_rejects_zero():
    with pytest.raises(ValueError):
        canonical_coords([0, 0, 0])


def test_canonical_coords_accepts_any_array_shape_of_three_and_a_flat_list():
    v = [0.5 - 1j, 2.0, 1j]
    expected = canonical_coords(tuple(v))
    for x in (v, np.array(v), np.array(v).reshape(3, 1), np.array(v).reshape(1, 3)):
        assert canonical_coords(x) == expected
    for bad in ([1, 2], [1, 2, 3, 4], np.ones((2, 2)), 1.0):
        with pytest.raises(ValueError):
            canonical_coords(bad)


_MAGNITUDE = st.floats(min_value=1e-300, max_value=1e308)
_PART = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                  _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))
_COMPLEX = st.builds(complex, _PART, _PART)
# maps of a coordinate to another of the same modulus: exactly, or as
# math.hypot rounds it, which Python's abs (libm's hypot) may round apart
_SAME_MODULUS = st.sampled_from([
    lambda z: z,
    lambda z: math.hypot(z.real, z.imag),
    lambda z: z.conjugate(),
    lambda z: -z,
    lambda z: complex(z.imag, z.real),
    lambda z: complex(-z.imag, z.real),
])


@st.composite
def _coordinates(draw) -> list[complex]:
    """Three coordinates, each drawn afresh or of the same modulus as a base."""
    base = draw(_COMPLEX)
    return [draw(_SAME_MODULUS)(base) if draw(st.booleans()) else draw(_COMPLEX)
            for _ in range(3)]


def _hex(coords) -> list:
    return [(z.real.hex(), z.imag.hex()) for z in coords]


def _canonical_or_error(f, x):
    try:
        return _hex(f(x))
    except ValueError as exc:
        return str(exc)


def _exact_quotient(z: complex, d: complex) -> complex:
    """z / d rounded once from exact rational arithmetic."""
    zr, zi, dr, di = map(Fraction, (z.real, z.imag, d.real, d.imag))
    den = dr * dr + di * di
    return complex(float((zr * dr + zi * di) / den), float((zi * dr - zr * di) / den))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_coordinates())
def test_canonical_coords_is_the_exact_quotient_by_the_first_largest_coordinate(x):
    # the pivot is the first coordinate of maximal Python abs (inf where abs
    # overflows), and each coordinate is within 4u|q| of the exact quotient
    # q, plus two subnormal ulps for a quotient that underflows
    finite = all(map(cmath.isfinite, x))
    mods = [abs_or_inf(z) for z in x] if finite else []
    if not finite or max(mods) == 0:
        message = "must be finite" if not finite else "needs a nonzero coordinate"
        with pytest.raises(ValueError, match=message):
            canonical_coords(x)
        return
    piv = mods.index(max(mods))
    coords = canonical_coords(x)
    assert _hex([coords[piv]]) == _hex([1 + 0j])
    for z, c in zip(x, coords):
        q = _exact_quotient(z, x[piv])
        assert abs(c - q) <= 4.0 * math.ulp(1.0) * abs(q) + 2.0 ** -1073, (x, z, c, q)


@pytest.mark.parametrize("x", [
    [1.7e308 + 1.7e308j, 1, 1],      # Python's abs overflows
    [1e308, 1e308j, -1e308],
    [3 + 4j, 5, -4 + 3j],            # exact ties with different parts
    [5 + 12j, 13, 12 - 5j],
    [0.9951708396049394, 0.646 + 0.757j, 0],   # a near tie that math.hypot and abs round apart
    [0, -0.0, 1e-300j],
])
def test_canonical_coords_edge_cases_match_numpy(x):
    # the reference is Python's division now; the name and its six ids are
    # kept from when it was numpy's array division
    assert _canonical_or_error(canonical_coords, x) == _canonical_or_error(reference_canonical_coords, x)


@pytest.mark.parametrize("x, representable", [
    ([0, -0.0, 1e-320], True),
    ([5e-324, 0, 5e-324j], True),
    ([0, 2.0 ** -1070, 3 * 2.0 ** -1074], True),
    ([0, 5e-309, 1e-309], False),
    ([3e-320 + 1e-320j, 1e-321, -2e-320j], False),
])
def test_canonical_coords_rescales_a_subnormal_pivot(x, representable):
    # 1 / pivot overflowed, so these gave nan or inf coordinates; the point is
    # now scaled by an exact power of two before the division
    x = [complex(z) for z in x]
    coords = canonical_coords(x)
    assert all(cmath.isfinite(z) for z in coords)
    piv = coords.index(1)
    assert (coords[piv].real, coords[piv].imag) == (1.0, 0.0)
    scaled = [complex(math.ldexp(z.real, 1074), math.ldexp(z.imag, 1074)) for z in x]
    assert _hex(coords) == _hex(canonical_coords(scaled))
    for z, c in zip(x, coords):
        q = _exact_quotient(z, x[piv])
        if representable:
            assert c == q
        else:
            assert abs(c - q) <= 2.0 ** -51 * abs(q)


def test_chordal_distance_basics():
    p = ProjectivePoint.from_vector([1, 1, 0])
    q = ProjectivePoint.from_vector([1, -1, 0])
    assert chordal_distance(p, p) == 0.0
    assert 0 < chordal_distance(p, q) <= 1.0
    assert chordal_distance(p, ProjectivePoint.from_vector([2 + 1j, 2 + 1j, 0])) < 1e-12
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(200):
        a, b = rng.uniform(-1, 1, (2, 3)) + 1j * rng.uniform(-1, 1, (2, 3))
        b = a + 10.0 ** rng.uniform(-12, 0) * b
        assert chordal_distance(a, b) == pytest.approx(reference_chordal(a, b), rel=1e-9)
