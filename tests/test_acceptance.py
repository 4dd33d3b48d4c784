"""Acceptance criteria: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the timing lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import cmath
import time

import numpy as np

from cp2lab import (
    AlgebraElement,
    DivisorClass,
    Kind,
    ParabolicKind,
    basin_coverage_check,
    builtin_sigma0_singular,
    builtin_sigma2_singular,
    builtin_sigma_chain,
    classify,
    derivative_eigenvalues,
    eig3,
    hirzebruch_lattice,
    isometry_order_on_classes,
    mat_exp,
    p2_lattice,
    run,
    square_one_classes,
)

from helpers import conjugate, random_conjugator, random_parabolic

SEED = 20170824


def _report(name: str, started: float, budget: float):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name}: {elapsed:.2f}s exceeded the {budget:.0f}s budget"
    print(f"PASS {name}: {elapsed:.2f}s (budget {budget:.0f}s)")


def _matches(values, expected, tol):
    return all(min(abs(v - e) for v in values) <= tol for e in expected)


def _hyperbolic_sample(rng, count=100):
    for _ in range(count):
        l = float(rng.uniform(1e-3, 3.0))
        b = float(rng.uniform(-np.pi, np.pi))
        yield l, b, mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())


def test_criterion_01_hyperbolic_eigenvalue_formulas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for l, b, m in _hyperbolic_sample(rng):
        values = eig3(m).eigenvalues()
        expected = [cmath.exp(l + 1j * b), cmath.exp(-l + 1j * b), cmath.exp(-2j * b)]
        assert _matches(values, expected, 1e-9), (l, b)
    _report("criterion 1 (hyperbolic eigenvalue formulas)", t0, 1.0)


def test_criterion_02_derivative_eigenvalue_table():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    for l, b, m in _hyperbolic_sample(rng):
        cls = classify(m)
        table = {
            "attractive": (cls.attractive.point, [cmath.exp(-2 * l), cmath.exp(-l - 3j * b)]),
            "repulsive": (cls.repulsive.point, [cmath.exp(2 * l), cmath.exp(l - 3j * b)]),
            "exterior": (cls.exterior.point, [cmath.exp(-l + 3j * b), cmath.exp(l + 3j * b)]),
        }
        for role, (point, expected) in table.items():
            got = derivative_eigenvalues(m, point)
            assert _matches(got, expected, 1e-9), (l, b, role)
    _report("criterion 2 (derivative eigenvalue table)", t0, 1.0)


def test_criterion_03_parabolic_trichotomy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 1)

    def draw_params(stratum):
        d1 = float(rng.uniform(0.3, 1.5)) * (1 if rng.uniform() < 0.5 else -1)
        if stratum == "rotational":
            d2 = float(rng.uniform(0.3, 1.5)) * (1 if rng.uniform() < 0.5 else -1)
            mag, ph = rng.uniform(0.0, 1.5), rng.uniform(0, 2 * np.pi)
            c = complex(mag * np.cos(ph), mag * np.sin(ph))
        elif stratum == "line_fixing":
            d2, c = 0.0, 0j
        else:
            d2 = 0.0
            mag, ph = rng.uniform(0.3, 1.5), rng.uniform(0, 2 * np.pi)
            c = complex(mag * np.cos(ph), mag * np.sin(ph))
        return d1, d2, c

    expected_subtype = {
        "rotational": ParabolicKind.ROTATIONAL,
        "line_fixing": ParabolicKind.LINE_FIXING,
        "three_step": ParabolicKind.THREE_STEP,
    }
    for stratum in ("rotational", "line_fixing", "three_step"):
        for _ in range(100):
            d1, d2, c = draw_params(stratum)
            m = mat_exp(AlgebraElement.parabolic_normal(d1, d2, c).matrix())
            cls = classify(m)
            assert cls.kind == Kind.PARABOLIC, (stratum, d1, d2, c)
            assert cls.subtype == expected_subtype[stratum], (stratum, d1, d2, c)
            values = eig3(m).eigenvalues()
            expected = [cmath.exp(1j * d2), cmath.exp(-0.5j * d2), cmath.exp(-0.5j * d2)]
            assert _matches(values, expected, 1e-8), (stratum, d1, d2, c)
    _report("criterion 3 (parabolic trichotomy)", t0, 2.0)


def test_criterion_04_conjugation_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 2)
    elements = [
        mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.5).matrix()),
        random_parabolic(rng, "rotational"),
        random_parabolic(rng, "line_fixing"),
        random_parabolic(rng, "three_step"),
        mat_exp(AlgebraElement(0.9, -0.4, 0j, 0j, 0j).matrix()),
    ]
    for m in elements:
        base = classify(m)
        for _ in range(100):
            g = random_conjugator(rng, 0.9)
            cls = classify(conjugate(m, g))
            assert cls.kind == base.kind
            assert cls.subtype == base.subtype
    _report("criterion 4 (conjugation invariance)", t0, 2.0)


def test_criterion_05_basin_coverage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 3)
    elements = []
    for _ in range(10):
        l = float(rng.uniform(0.3, 1.5))
        b = float(rng.uniform(-np.pi, np.pi))
        m = mat_exp(AlgebraElement.hyperbolic_normal(l, b).matrix())
        elements.append(conjugate(m, random_conjugator(rng, 0.8)))
    subtypes = ["rotational"] * 4 + ["line_fixing"] * 3 + ["three_step"] * 3
    for subtype in subtypes:
        m = random_parabolic(rng, subtype)
        elements.append(conjugate(m, random_conjugator(rng, 0.8)))

    for idx, m in enumerate(elements):
        report = basin_coverage_check(
            m, samples=10_000, line_samples=1_000,
            seed=SEED + idx, max_iter=10_000,
        )
        assert report.unresolved == 0, f"element {idx}: {report}"
        assert report.samples == 11_000
    _report("criterion 5 (basin coverage, 20 elements x 11k samples)", t0, 60.0)


def test_criterion_06_lorentzian_signature():
    t0 = time.perf_counter()
    lat = p2_lattice()
    for k in range(11):
        assert lat.signature() == (1, k)
        lat = lat.blow_up()
    _report("criterion 6 (Lorentzian signatures k=0..10)", t0, 1.0)


def test_criterion_07_definite_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED + 4)

    two_up = p2_lattice().blow_up().blow_up()
    three_up = two_up.blow_up()
    sigma1 = hirzebruch_lattice(1)
    cases = [
        (two_up, DivisorClass((1, 0, 0))),
        (sigma1, DivisorClass((1, 1))),
    ]
    for lat, c in cases:
        form = lat.definite_form(c)
        count = 0
        while count < 1000:
            v = tuple(int(x) for x in rng.integers(-20, 21, lat.rank))
            if not any(v):
                continue
            assert form(DivisorClass(v)) > 0
            count += 1

    swap = two_up.isometry([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    cycle = three_up.isometry([
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ])
    form2 = two_up.definite_form(DivisorClass((1, 0, 0)))
    form3 = three_up.definite_form(DivisorClass((1, 0, 0, 0)))
    for _ in range(300):
        v2 = DivisorClass(tuple(int(x) for x in rng.integers(-15, 16, 3)))
        assert form2(swap.apply(v2)) == form2(v2)
        v3 = DivisorClass(tuple(int(x) for x in rng.integers(-15, 16, 4)))
        assert form3(cycle.apply(v3)) == form3(v3)

    e = [two_up.basis_class("E1"), two_up.basis_class("E2")]
    assert isometry_order_on_classes(swap, e, 100) == 2
    es = [three_up.basis_class(f"E{i}") for i in (1, 2, 3)]
    assert isometry_order_on_classes(cycle, es, 100) == 3
    _report("criterion 7 (definite form positivity and isometry invariance)", t0, 1.0)


def test_criterion_08_hirzebruch_square_one_scan():
    t0 = time.perf_counter()
    assert sorted(square_one_classes(1, 1000)) == [(-1, -1), (1, 1)]
    for n in [0] + list(range(2, 21)):
        assert square_one_classes(n, 1000) == [], n
    _report("criterion 8 (square-one classes on Hirzebruch lattices)", t0, 5.0)


def test_criterion_09_adjunction_genus():
    t0 = time.perf_counter()
    p2 = p2_lattice()
    h = p2.basis_class("H")
    for d in range(1, 6):
        assert p2.genus(d * h) == (d - 1) * (d - 2) // 2
    for n in range(11):
        lat = hirzebruch_lattice(n)
        assert lat.genus(lat.basis_class("F")) == 0
        assert lat.genus(lat.basis_class("B")) == 0
    _report("criterion 9 (adjunction genus formulas)", t0, 1.0)


def test_criterion_10_singular_construction_replays():
    t0 = time.perf_counter()
    s0 = run(builtin_sigma0_singular())  # intermediate asserts run inside
    assert s0.gram_of(["E1", "E2"]) == [[0, 1], [1, 0]]
    assert s0.lattice.intersect(s0.curves["E1"], s0.curves["E2"]) == 1
    assert any(e["op"] == "assert" and e["kind"] == "self_intersection" for e in s0.log)

    s2 = run(builtin_sigma2_singular())
    assert s2.gram_of(["F", "B"]) == [[0, 1], [1, -2]]

    for k in range(9):
        state = run(builtin_sigma_chain(k))
        b = state.curves["B"]
        assert state.lattice.intersect(b, b) == -(2 + k)
    _report("criterion 10 (singular construction replays)", t0, 1.0)


def test_criterion_11_blow_up_contract_round_trip():
    t0 = time.perf_counter()
    bases = []
    lat = p2_lattice()
    for k in range(6):
        bases.append(lat)
        lat = lat.blow_up()
    bases.extend(hirzebruch_lattice(n) for n in range(6))

    for base in bases:
        up = base.blow_up()
        e_new = up.basis_class(up.labels[-1])
        down, push = up.contract(e_new)
        isometry_columns = [
            push(DivisorClass(tuple(int(i == j) for i in range(base.rank)) + (0,)))
            for j in range(base.rank)
        ]
        for a in range(base.rank):
            for b in range(base.rank):
                assert down.intersect(isometry_columns[a], isometry_columns[b]) == base.gram[a][b]
    _report("criterion 11 (blow-up/contract round trip isometries)", t0, 1.0)
