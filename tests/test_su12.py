"""Group membership, the algebra layout, classification, normal forms."""

import cProfile
import cmath
import math
import pstats
from collections import Counter

import numpy as np
import pytest

from cp2lab import (
    AlgebraElement,
    GroupElement,
    Kind,
    Location,
    ParabolicKind,
    ProjectivePoint,
    chordal_distance,
    classify,
    conjugate_to_normal_form,
    derivative_eigenvalues,
    eig3,
    fixed_points,
    hermitian_pairing,
    is_group_member,
    line_intersection,
    locate,
    mat_exp,
    q_value,
    tangent_line,
)
from cp2lab.errors import (
    AmbiguousClustering,
    DegenerateElement,
    NotFixed,
    NotInGroup,
    NotNonElliptic,
    NotOnBoundary,
)
from cp2lab import dynamics, linalg3, su12
from cp2lab.jsonio import classification_report, complex_to_json
from cp2lab.su12 import J

from helpers import (
    conjugate,
    random_algebra,
    random_conjugator,
    random_element,
    random_hyperbolic,
    random_parabolic,
    reference_membership,
)

RNG_SEED = 777


def _pt(v) -> ProjectivePoint:
    return ProjectivePoint.from_vector(v)


# algebra layout ----------------------------------------------------------------

def test_algebra_zero_gives_zero_matrix():
    assert np.abs(AlgebraElement(0, 0, 0, 0, 0).matrix()).max() == 0


def test_algebra_hyperbolic_normal_layout():
    l, b = 0.9, 0.4
    a = AlgebraElement.hyperbolic_normal(l, b).matrix()
    expected = np.array([
        [1j * b, l, 0],
        [l, 1j * b, 0],
        [0, 0, -2j * b],
    ])
    assert np.abs(a - expected).max() < 1e-15


def test_algebra_parabolic_normal_layout():
    d1, d2, c = 0.3, 0.8, 0.5 - 0.2j
    a = AlgebraElement.parabolic_normal(d1, d2, c).matrix()
    expected = np.array([
        [-1j * (d1 + d2), 1j * (d1 + d2 / 2), c],
        [-1j * (d1 + d2 / 2), 1j * d1, c],
        [np.conj(c), -np.conj(c), 1j * d2],
    ])
    assert np.abs(a - expected).max() < 1e-15
    # (1, 1, 0) is an eigenvector with eigenvalue -i d2 / 2
    v = np.array([1, 1, 0], dtype=complex)
    assert np.abs(a @ v - (-0.5j * d2) * v).max() < 1e-15


def test_algebra_anti_self_adjoint_and_traceless():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(1000):
        a = random_algebra(rng, 2.0).matrix()
        assert np.abs(a.conj().T @ J + J @ a).max() <= 1e-12
        assert abs(np.trace(a)) <= 1e-12


# membership ----------------------------------------------------------------------

def test_membership_identity():
    assert is_group_member(np.eye(3))


def test_membership_rejects_diagonal_stretch():
    assert not is_group_member(np.diag([2.0, 1.0, 0.5]))


def test_membership_is_relative_to_the_entries():
    # conjugates with entries ~10^3 carry a rounding error near 10^-9 in
    # A^dagger J A; doubling still breaks the form by 3 |J|
    rng = np.random.default_rng(RNG_SEED + 9)
    m = mat_exp(AlgebraElement.hyperbolic_normal(8.0, 0.4).matrix())
    for _ in range(10):
        c = conjugate(m, random_conjugator(rng))
        assert np.abs(c).max() > 100
        assert is_group_member(c)
        assert not is_group_member(2.0 * c)
        assert not is_group_member(c * np.exp(0.1j))


def test_exponential_lands_in_group():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(1000):
        m = mat_exp(random_algebra(rng, 2.0).matrix())
        assert is_group_member(m, 1e-7)


# one membership check per call ---------------------------------------------------

_HYPERBOLIC = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.3).matrix())
# entry (0, 2) raised by 5e-9: a member at the computed-element tolerance
# 1e-7, not at GROUP_TOL
_BAND = _HYPERBOLIC + np.array([[0, 0, 5e-9], [0, 0, 0], [0, 0, 0]])

# public entry: (call, membership checks per call)
ENTRIES = {
    "classify": (classify, 1),
    "fixed_points": (fixed_points, 1),
    "conjugate_to_normal_form": (conjugate_to_normal_form, 2),
    "basin_coverage_check": (lambda a: dynamics.basin_coverage_check(a, samples=20, seed=1), 1),
    "derivative_eigenvalues": (lambda a: derivative_eigenvalues(a, _pt([1, 1, 0])), 1),
    "converge": (lambda a: dynamics.converge(a, _pt([1, 0.2, 0.1])), 1),
    "iterate": (lambda a: dynamics.iterate(a, _pt([1, 0.2, 0.1]), 3), 1),
}


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_entry_checks_membership_once(monkeypatch, entry):
    # conjugate_to_normal_form also checks the conjugator it computes; a
    # GroupElement argument is not checked again
    call, checks = ENTRIES[entry]
    element = GroupElement(_HYPERBOLIC)
    calls = Counter()
    inner = su12.is_group_member

    def counted(*args, **kwargs):
        calls["is_group_member"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(su12, "is_group_member", counted)
    call(_HYPERBOLIC)
    assert calls["is_group_member"] == checks
    call(element)
    assert calls["is_group_member"] == 2 * checks - 1


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_each_entry_decides_membership_at_its_own_tolerance(entry):
    # every entry's tolerance is GROUP_TOL, as is GroupElement's, so all of
    # them refuse a matrix that only the computed-element tolerance accepts
    call, _ = ENTRIES[entry]
    assert is_group_member(_BAND, 1e-7)
    assert not is_group_member(_BAND, su12.GROUP_TOL)
    with pytest.raises(NotInGroup):
        call(_BAND)
    with pytest.raises(NotInGroup):
        GroupElement(_BAND)


@pytest.mark.parametrize("m", [
    np.diag([1e308, 1.0, 1.0]),
    np.diag([1e300, 1e-300, 1.0]),
    np.diag([1e154, 1e154, 1.0 + 1.0j]),
    np.diag([np.nan, 1.0, 1.0]),
    np.diag([np.inf, 1.0, 1.0]),
    # a member whose entries ~1e304 square past the float range
    mat_exp(AlgebraElement.hyperbolic_normal(700.0, 0.3).matrix()),
], ids=["1e308", "1e300-1e-300", "huge-det", "nan", "inf", "l700"])
def test_membership_check_overflows_to_not_a_member(m):
    assert not is_group_member(m)
    with pytest.raises(NotInGroup):
        GroupElement(m)


def test_membership_decides_large_members():
    # entries ~1e130: the check squares them without overflowing
    m = mat_exp(AlgebraElement.hyperbolic_normal(300.0, 0.3).matrix())
    assert np.abs(m).max() > 1e129
    assert is_group_member(m)


@pytest.mark.parametrize("algebra", [
    AlgebraElement(1e308, 1e308, 0j, 0j, 0j),
    AlgebraElement(1e200, 0.0, 0j, 0j, 0j),
    AlgebraElement(1e308, 0.0, 1e308 + 0j, 0j, 0j),
    AlgebraElement(0.0, 0.0, 800 + 0j, 0j, 0j),
], ids=["b-sum-inf", "b1-1e200", "row-sum-inf", "l1-800"])
def test_exp_refuses_an_exponential_that_is_not_finite(algebra):
    with pytest.raises(NotInGroup):
        GroupElement.exp(algebra)


def test_normal_form_conjugators_are_checked_as_computed_elements():
    # the inputs pass GROUP_TOL, but some computed conjugators are off by
    # more than GROUP_TOL relative (draw 0 by 3.0e-9)
    rng = np.random.default_rng(0)
    base = mat_exp(AlgebraElement.hyperbolic_normal(8.0, 0.4).matrix())
    refused = 0
    for _ in range(20):
        nf = conjugate_to_normal_form(conjugate(base, random_conjugator(rng)))
        refused += not is_group_member(nf.conjugator.matrix, su12.GROUP_TOL)
    assert refused >= 1


def test_products_are_checked_as_computed_elements():
    # nine factors of scale 2: the product's determinant is off by 1e-9
    # relative, which GROUP_TOL would refuse
    rng = np.random.default_rng(0)
    g = GroupElement.exp(random_algebra(rng, 2.0))
    for _ in range(8):
        g = g @ GroupElement.exp(random_algebra(rng, 2.0))
    assert not is_group_member(g.matrix, su12.GROUP_TOL)
    assert is_group_member(g.matrix, 1e-7)


def test_classification_respects_the_group_structure():
    # omega A acts as A does, for omega a cube root of unity, and
    # J A^dagger J = A^-1 swaps the attractive and repulsive points
    rng = np.random.default_rng(RNG_SEED + 11)
    omega = cmath.exp(2j * cmath.pi / 3)
    for kind in KINDS:
        for _ in range(40):
            m = random_element(rng, kind)
            base = classify(m)
            assert _kind_of(base) == kind
            for other in (omega * m, omega * omega * m):
                assert _kind_of(classify(other)) == kind
            inverse = classify(J @ m.conj().T @ J)
            assert _kind_of(inverse) == kind
            if base.attractive is not None:
                assert chordal_distance(inverse.repulsive.point, base.attractive.point) <= 1e-6


# locations -----------------------------------------------------------------------

def test_locate_examples():
    assert locate(_pt([1, 0, 0])) == Location.INSIDE
    assert locate(_pt([1, 1, 0])) == Location.BOUNDARY
    assert locate(_pt([0, 0, 1])) == Location.OUTSIDE


# fixed points ----------------------------------------------------------------------

def test_fixed_points_identity_degenerate():
    data = fixed_points(np.eye(3))
    assert data.fully_degenerate


def test_fixed_points_hyperbolic():
    m = mat_exp(AlgebraElement.hyperbolic_normal(1.0, 0.5).matrix())
    data = fixed_points(m)
    targets = {
        "p1": (_pt([1, 1, 0]), Location.BOUNDARY),
        "p2": (_pt([1, -1, 0]), Location.BOUNDARY),
        "q": (_pt([0, 0, 1]), Location.OUTSIDE),
    }
    assert len(data.points) == 3
    for target, loc in targets.values():
        hit = min(data.points, key=lambda fp: chordal_distance(fp.point, target))
        assert chordal_distance(hit.point, target) < 1e-9
        assert hit.location == loc


def test_fixed_points_three_step_single():
    m = mat_exp(AlgebraElement.parabolic_normal(0.0, 0.0, 1.0).matrix())
    data = fixed_points(m)
    assert len(data.points) == 1
    assert chordal_distance(data.points[0].point, _pt([1, 1, 0])) < 1e-9
    assert data.points[0].location == Location.BOUNDARY


# classification --------------------------------------------------------------------

def test_classify_hyperbolic_normal_form():
    m = mat_exp(AlgebraElement.hyperbolic_normal(1.0, 0.0).matrix())
    cls = classify(m)
    assert cls.kind == Kind.HYPERBOLIC
    assert chordal_distance(cls.attractive.point, _pt([1, 1, 0])) < 1e-9
    assert chordal_distance(cls.repulsive.point, _pt([1, -1, 0])) < 1e-9
    assert chordal_distance(cls.exterior.point, _pt([0, 0, 1])) < 1e-9


def test_classify_parabolic_subtypes():
    rot = mat_exp(AlgebraElement.parabolic_normal(0.0, 1.0, 0.0).matrix())
    assert classify(rot).subtype == ParabolicKind.ROTATIONAL

    line = mat_exp(AlgebraElement.parabolic_normal(0.7, 0.0, 0.0).matrix())
    cls = classify(line)
    assert cls.subtype == ParabolicKind.LINE_FIXING
    assert cls.fixed_line is not None
    assert cls.fixed_line.contains(_pt([1, 1, 0]))

    three = mat_exp(AlgebraElement.parabolic_normal(0.0, 0.0, 1.0).matrix())
    cls = classify(three)
    assert cls.subtype == ParabolicKind.THREE_STEP
    assert chordal_distance(cls.attractive.point, _pt([1, 1, 0])) < 1e-9


def test_classify_elliptic():
    m = mat_exp(AlgebraElement(0.9, -0.4, 0j, 0j, 0j).matrix())
    cls = classify(m)
    assert cls.kind == Kind.ELLIPTIC
    assert any(fp.location == Location.INSIDE for fp in cls.fixed_points)


def test_classify_rejects_scalars():
    with pytest.raises(DegenerateElement):
        classify(np.eye(3))
    omega = cmath.exp(2j * cmath.pi / 3)
    with pytest.raises(DegenerateElement):
        classify(omega * np.eye(3))


def test_classify_rejects_non_members():
    with pytest.raises(NotInGroup):
        classify(np.diag([2.0, 1.0, 0.5]))


def test_parabolic_moduli_on_unit_circle():
    rng = np.random.default_rng(RNG_SEED + 2)
    for subtype in ("rotational", "line_fixing", "three_step"):
        for _ in range(30):
            m = random_parabolic(rng, subtype)
            from cp2lab import eig3

            assert max(abs(abs(v) - 1) for v in eig3(m).eigenvalues()) <= 1e-8


def test_classification_conjugation_invariant():
    rng = np.random.default_rng(RNG_SEED + 3)
    elements = [
        ("hyperbolic", None, random_hyperbolic(rng)),
        ("parabolic", "rotational", random_parabolic(rng, "rotational")),
        ("parabolic", "line_fixing", random_parabolic(rng, "line_fixing")),
        ("parabolic", "three_step", random_parabolic(rng, "three_step")),
    ]
    for kind, subtype, m in elements:
        base = classify(m)
        assert base.kind.value == kind
        assert (base.subtype.value if base.subtype else None) == subtype
        for _ in range(20):
            g = random_conjugator(rng)
            cls = classify(conjugate(m, g))
            assert cls.kind == base.kind and cls.subtype == base.subtype


# tangent lines ------------------------------------------------------------------

def test_tangent_line_at_model_points():
    l1 = tangent_line(_pt([1, 1, 0]))
    l2 = tangent_line(_pt([1, -1, 0]))
    # {x = y} contains [1:1:t] for all t
    assert l1.contains(_pt([1, 1, 0.3 - 0.7j]))
    assert l2.contains(_pt([1, -1, 2.0]))
    q = line_intersection(l1, l2)
    assert chordal_distance(q, _pt([0, 0, 1])) < 1e-12


def test_tangent_line_requires_boundary_point():
    with pytest.raises(NotOnBoundary):
        tangent_line(_pt([1, 0, 0]))


def test_tangent_line_touches_ball_only_at_base_point():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(20):
        y = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        z = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        norm = math.sqrt(abs(y) ** 2 + abs(z) ** 2)
        p = _pt([1, y / norm, z / norm])
        assert locate(p) == Location.BOUNDARY
        line = tangent_line(p)
        # second point on the line, then sample combinations away from p
        dual = line.vector
        norm2 = np.vdot(dual, dual).real
        r = None
        for e in np.eye(3, dtype=complex):
            cand = e - (np.dot(dual, e) / norm2) * dual.conjugate()
            if np.linalg.norm(cand) > 0.1 and chordal_distance(cand, p) > 0.1:
                r = cand
                break
        assert r is not None and abs(np.dot(dual, r)) < 1e-9
        for _ in range(20):
            t = rng.uniform(0.2, 5.0) * cmath.exp(2j * math.pi * rng.uniform())
            sample = p.vector + t * r
            assert q_value(sample) > 0  # strictly outside away from p


# derivative eigenvalues ----------------------------------------------------------

def test_derivative_eigenvalues_hyperbolic_table():
    l, b = 0.9, 0.4
    m = mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())
    cls = classify(m)

    def close_set(got, expected):
        return all(min(abs(g - e) for g in got) < 1e-10 for e in expected)

    assert close_set(derivative_eigenvalues(m, cls.attractive.point),
                     [cmath.exp(-2 * l), cmath.exp(-l - 3j * b)])
    assert close_set(derivative_eigenvalues(m, cls.repulsive.point),
                     [cmath.exp(2 * l), cmath.exp(l - 3j * b)])
    assert close_set(derivative_eigenvalues(m, cls.exterior.point),
                     [cmath.exp(-l + 3j * b), cmath.exp(l + 3j * b)])


def test_derivative_eigenvalues_elliptic_diagonal():
    theta = 0.7
    m = np.diag([cmath.exp(1j * theta), cmath.exp(1j * theta), cmath.exp(-2j * theta)])
    got = derivative_eigenvalues(m, _pt([1, 0, 0]))
    expected = [1.0, cmath.exp(-3j * theta)]
    assert all(min(abs(g - e) for g in got) < 1e-10 for e in expected)


def test_derivative_eigenvalues_requires_fixed_point():
    m = mat_exp(AlgebraElement.hyperbolic_normal(1.0, 0.0).matrix())
    with pytest.raises(NotFixed):
        derivative_eigenvalues(m, _pt([1, 0.5, 0.1]))


def test_hyperbolic_derivative_moduli_pattern():
    rng = np.random.default_rng(RNG_SEED + 5)
    for _ in range(20):
        m = conjugate(random_hyperbolic(rng), random_conjugator(rng))
        cls = classify(m)
        at = [abs(v) for v in derivative_eigenvalues(m, cls.attractive.point)]
        rp = [abs(v) for v in derivative_eigenvalues(m, cls.repulsive.point)]
        ex = [abs(v) for v in derivative_eigenvalues(m, cls.exterior.point)]
        assert max(at) < 1.0
        assert min(rp) > 1.0
        assert min(ex) < 1.0 < max(ex)


@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
def test_near_parabolic_hyperbolics_are_classified_hyperbolic(eps):
    # the computed eigenvectors miss the sphere by up to ~1e-6 |v|^2 at
    # eps = 1e-5; the sign of Goldman's f gives the kind and an eigenvalue off
    # the unit circle puts its fixed point on the sphere.  At eps = 1e-6 the
    # ranks are undecidable, so ambiguity is a right answer too
    rng = np.random.default_rng([RNG_SEED, 6, int(-math.log10(eps))])
    base = mat_exp(AlgebraElement.hyperbolic_normal(eps, 0.3).matrix())
    for _ in range(20):
        m = conjugate(base, random_conjugator(rng, 0.8))
        try:
            cls = classify(m)
        except AmbiguousClustering:
            assert eps == 1e-6
            continue
        assert cls.kind == Kind.HYPERBOLIC
        assert max(abs(v) for v in cls.derivative_eigenvalues(cls.attractive)) < 1.0


# one spectral pass ---------------------------------------------------------------

KINDS = ("elliptic", "hyperbolic", "rotational", "line_fixing", "three_step")


def _kind_of(cls) -> str:
    return cls.subtype.value if cls.subtype is not None else cls.kind.value


@pytest.mark.parametrize("kind", ["elliptic", "hyperbolic"])
def test_sign_verdicts_are_confirmed_by_the_fixed_points(kind):
    # |Q(v)| <= |v|^2, so at tol = 2 every fixed point passes the boundary
    # test: the discriminant's sign still says elliptic or hyperbolic, but
    # neither finds the exterior fixed points it needs
    rng = np.random.default_rng(RNG_SEED + 14)
    for _ in range(10):
        m = random_element(rng, kind)
        assert _kind_of(classify(m)) == kind
        assert eig3(m).disc_sign == (1 if kind == "hyperbolic" else -1)
        with pytest.raises(AmbiguousClustering, match=f"^{kind} sign, "):
            classify(m, tol=2.0)


def _bits(entry) -> list:
    return [[part.hex() for part in z] for z in entry]


@pytest.mark.parametrize("kind", KINDS)
def test_classify_and_report_compute_the_spectrum_once(monkeypatch, kind):
    m = random_element(np.random.default_rng(RNG_SEED + 6), kind)
    calls = Counter()

    def count(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(su12, "eig3")
    count(linalg3, "jordan_shape")
    count(su12, "derivative_eigenvalues")
    count(su12, "fixed_points")
    cls = classify(m)
    report = classification_report(cls)
    assert _kind_of(cls) == kind
    assert len(report["fixed_points"]) == len(cls.fixed_points)
    assert calls == {"eig3": 1}


def test_report_matches_the_public_spectral_functions():
    rng = np.random.default_rng(RNG_SEED + 7)
    # an elliptic element with an eigenplane, whose fixed points form a line
    b = 0.6
    plane = conjugate(mat_exp(AlgebraElement(b, b, 0j, 0j, 0j).matrix()), random_conjugator(rng, 0.8))
    elements = [("elliptic", plane)]
    elements += [(kind, random_element(rng, kind)) for _ in range(8) for kind in KINDS]
    for kind, m in elements:
        cls = classify(m)
        assert _kind_of(cls) == kind
        report = classification_report(cls)
        for fp, entry in zip(cls.fixed_points, report["fixed_points"], strict=True):
            expected = [complex_to_json(z) for z in derivative_eigenvalues(m, fp.point)]
            assert _bits(entry["derivative_eigenvalues"]) == _bits(expected)
        if kind in ("elliptic", "line_fixing"):
            data = fixed_points(m)
            assert cls.fixed_points == data.points
            assert cls.fixed_line == data.fixed_line
    assert classify(plane).fixed_line is not None


# normal forms --------------------------------------------------------------------

def test_normal_form_of_normal_form_is_identity_conjugation():
    l, b = 0.8, 0.3
    m = mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())
    nf = conjugate_to_normal_form(m)
    assert abs(nf.params.l - l) < 1e-9
    assert abs(nf.params.b - b) < 1e-9
    assert np.abs(nf.conjugator.matrix - np.eye(3)).max() < 1e-9


def test_normal_form_recovers_hyperbolic_parameters():
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(10):
        g = random_conjugator(rng)
        m = conjugate(mat_exp(AlgebraElement.hyperbolic_normal(0.7, 0.3).matrix()), g)
        nf = conjugate_to_normal_form(m)
        assert abs(nf.params.l - 0.7) < 1e-6
        assert abs(nf.params.b - 0.3) < 1e-6
        target = mat_exp(AlgebraElement.hyperbolic_normal(nf.params.l, nf.params.b).matrix())
        assert np.abs(nf.matrix - target).max() < 1e-7


def test_normal_form_residual_is_relative_for_large_hyperbolics():
    # entries of G A G^-1 reach 1.5e3 at l = 8, so the residual of a right
    # normal form can exceed 1e-7 absolute (draw 63 by 2.5e-7)
    rng = np.random.default_rng(0)
    base = mat_exp(AlgebraElement.hyperbolic_normal(8.0, 0.4).matrix())
    for _ in range(100):
        nf = conjugate_to_normal_form(conjugate(base, random_conjugator(rng)))
        assert abs(nf.params.l - 8.0) < 1e-14
        assert abs(nf.params.projective_phase - 0.4) < 1e-14


def test_normal_form_projective_phase_window():
    nf = conjugate_to_normal_form(mat_exp(AlgebraElement.hyperbolic_normal(0.5, 3.0).matrix()))
    third = 2 * math.pi / 3
    assert -third / 2 < nf.params.projective_phase <= third / 2


def test_normal_form_three_step():
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(10):
        g = random_conjugator(rng)
        m = conjugate(random_parabolic(rng, "three_step"), g)
        nf = conjugate_to_normal_form(m)
        assert nf.subtype == ParabolicKind.THREE_STEP
        assert abs(nf.params.d2) < 1e-8
        assert abs(nf.params.c) > 1e-3
        assert nf.params.central_phase == 1
        target = mat_exp(
            AlgebraElement.parabolic_normal(nf.params.d1, nf.params.d2, nf.params.c).matrix()
        )
        assert np.abs(nf.matrix - target).max() < 1e-7 * max(1.0, np.abs(nf.matrix).max())


def test_normal_form_rotational_recovers_rotation_angle():
    rng = np.random.default_rng(RNG_SEED + 8)
    d2 = 1.1
    m0 = mat_exp(AlgebraElement.parabolic_normal(0.4, d2, 0.3 + 0.2j).matrix())
    for _ in range(5):
        nf = conjugate_to_normal_form(conjugate(m0, random_conjugator(rng)))
        assert nf.subtype == ParabolicKind.ROTATIONAL
        assert abs(nf.params.d2 - d2) < 1e-6


@pytest.mark.parametrize("kind", ("hyperbolic", "rotational", "line_fixing", "three_step"))
def test_normal_form_reuses_the_classification_spectrum(monkeypatch, kind):
    m = random_element(np.random.default_rng(RNG_SEED + 9), kind)
    calls = Counter()
    inner = su12.eig3

    def counted(*args, **kwargs):
        calls["eig3"] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(su12, "eig3", counted)
    nf = conjugate_to_normal_form(m)
    assert _kind_of(nf) == kind
    assert calls == {"eig3": 1}


def test_normal_form_rejects_elliptic():
    with pytest.raises(NotNonElliptic):
        conjugate_to_normal_form(mat_exp(AlgebraElement(0.9, -0.4, 0j, 0j, 0j).matrix()))


def test_normal_form_central_multiple_of_unipotent():
    omega = cmath.exp(2j * cmath.pi / 3)
    m = omega * mat_exp(AlgebraElement.parabolic_normal(0.0, 0.0, 1.0).matrix())
    assert is_group_member(m, 1e-9)
    nf = conjugate_to_normal_form(m)
    assert abs(nf.params.central_phase - omega) < 1e-9


# pairing sanity -------------------------------------------------------------------

def test_hermitian_pairing_null_vectors():
    assert hermitian_pairing([1, 1, 0], [1, 1, 0]) == 0
    assert hermitian_pairing([1, -1, 0], [1, -1, 0]) == 0
    assert q_value([0, 0, 1]) > 0
    assert q_value([1, 0, 0]) < 0


# the scalar spectral path -----------------------------------------------------------

def _equivalence_matrices():
    rng = np.random.default_rng(RNG_SEED + 11)
    return [random_element(rng, kind) for kind in KINDS for _ in range(4)]


@pytest.mark.parametrize("m", _equivalence_matrices(), ids=[f"{k}-{i}" for k in KINDS for i in range(4)])
def test_array_list_and_element_inputs_agree(m):
    # an ndarray, a nested list of the same entries and a GroupElement built
    # from them give equal results on every spectral entry
    inputs = (m, m.tolist(), GroupElement(m))
    for call in (classify, fixed_points, linalg3.eig3, is_group_member):
        first, *rest = (call(x) for x in inputs)
        assert all(r == first for r in rest), call.__name__


@pytest.mark.parametrize("kind", KINDS)
def test_membership_agrees_with_the_numpy_formula(kind):
    # the scalar check against a^dagger J a - J on arrays, away from the
    # bound: conjugates at scales 0.8 and 3.0, perturbed by 1e-6 and by
    # 10^-2 to 1 times GROUP_TOL max|a|, which straddles the bound
    rng = np.random.default_rng(RNG_SEED + 12)
    verdicts, near = Counter(), 0
    for scale in (0.8, 3.0):
        for _ in range(200):
            m = random_element(rng, kind, scale)
            noise = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            size = float(np.abs(m).max())
            nudge = su12.GROUP_TOL * size * 10.0 ** float(rng.uniform(-2.0, 0.0))
            for a in (m, m + 1e-6 * noise, m + nudge * noise):
                member, ratio = reference_membership(a, su12.GROUP_TOL)
                if abs(ratio - 1.0) < 0.01:
                    near += 1
                    continue
                assert is_group_member(a) == member, (scale, ratio)
                verdicts[member] += 1
    assert verdicts[True] > 600 and verdicts[False] > 400 and near < 10


@pytest.mark.parametrize("kind", KINDS)
def test_spectral_entries_on_an_element_call_no_numpy(kind):
    rng = np.random.default_rng(RNG_SEED + 13)
    for _ in range(5):
        g = GroupElement(random_element(rng, kind))
        profile = cProfile.Profile()
        profile.runcall(classify, g)
        profile.runcall(fixed_points, g)
        profile.runcall(dynamics.converge, g, _pt([1, 0.2, 0.1j]), max_iter=50)
        stats = pstats.Stats(profile).stats
        assert not [key for key in stats if "numpy" in str(key)]
