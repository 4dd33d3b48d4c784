"""Exact lattice arithmetic: intersection, genus, surgery, enumerations."""

import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2lab import (
    DivisorClass,
    PicardLattice,
    enumerate_exceptional_classes,
    find_contractible_component,
    hirzebruch_lattice,
    isometry_order_on_classes,
    p2_lattice,
    square_one_classes,
)
from cp2lab.lattice import _signature
from cp2lab.replay import (
    builtin_sigma0_singular,
    builtin_sigma2_singular,
    builtin_sigma_chain,
    builtin_standard_blowups,
    run,
)
from cp2lab.errors import (
    NoCandidate,
    NotExceptionalClass,
    NotSquareOne,
    ParityViolation,
    RankMismatch,
    SetNotInvariant,
)

from helpers import bareiss_det, brute_force_exceptional_classes, scan_square_one_classes

RNG_SEED = 31337


def _blown_up(k: int) -> PicardLattice:
    lat = p2_lattice()
    for _ in range(k):
        lat = lat.blow_up()
    return lat


# projective plane ---------------------------------------------------------------

def test_p2_basics():
    lat = p2_lattice()
    h = lat.basis_class("H")
    assert lat.intersect(h, h) == 1
    assert lat.genus(h) == 0
    assert lat.genus(3 * h) == 1
    assert lat.canonical.coeffs == (-3,)


def test_p2_degree_genus_formula():
    lat = p2_lattice()
    h = lat.basis_class("H")
    for d in range(1, 6):
        assert lat.genus(d * h) == (d - 1) * (d - 2) // 2


# Hirzebruch surfaces --------------------------------------------------------------

def test_hirzebruch_intersection_table():
    for n in range(0, 11):
        lat = hirzebruch_lattice(n)
        f, b = lat.basis_class("F"), lat.basis_class("B")
        assert lat.intersect(f, f) == 0
        assert lat.intersect(f, b) == 1
        assert lat.intersect(b, b) == -n


def test_hirzebruch_rational_rulings_and_k_squared():
    for n in range(0, 11):
        lat = hirzebruch_lattice(n)
        assert lat.genus(lat.basis_class("F")) == 0
        assert lat.genus(lat.basis_class("B")) == 0
        assert lat.intersect(lat.canonical, lat.canonical) == 8


# blow-ups ---------------------------------------------------------------------------

def test_blow_up_gram_and_canonical():
    lat = p2_lattice().blow_up()
    assert lat.gram == ((1, 0), (0, -1))
    assert lat.canonical.coeffs == (-3, 1)
    e1 = lat.basis_class("E1")
    assert lat.intersect(e1, e1) == -1
    assert lat.genus(e1) == 0


def test_blow_up_signature_and_k_squared_chain():
    lat = p2_lattice()
    for k in range(11):
        assert lat.signature() == (1, k)
        kk = lat.intersect(lat.canonical, lat.canonical)
        assert kk == 9 - k
        lat = lat.blow_up()


def test_exceptional_classes_are_orthonormal():
    lat = _blown_up(3)
    es = [lat.basis_class(f"E{i}") for i in (1, 2, 3)]
    for i, a in enumerate(es):
        for j, b in enumerate(es):
            assert lat.intersect(a, b) == (-1 if i == j else 0)


def test_line_through_two_points_squares_to_minus_one():
    lat = _blown_up(2)
    d = DivisorClass((1, -1, -1))
    assert lat.intersect(d, d) == -1
    assert lat.intersect(d, lat.canonical) == -1


def test_proper_transform():
    base = p2_lattice()
    up = base.blow_up()
    h = base.basis_class("H")
    once = up.proper_transform(h, 1)
    assert once.coeffs == (1, -1)
    assert up.intersect(once, once) == 0
    untouched = up.proper_transform(h, 0)
    assert untouched.coeffs == (1, 0)
    up2 = up.blow_up()
    twice = up2.proper_transform(once, 1)
    assert twice.coeffs == (1, -1, -1)
    assert up2.intersect(twice, twice) == -1


def test_genus_of_square_zero_rational_class():
    # a square-zero class of genus zero pairs to -2 with the canonical class
    lat = _blown_up(1)
    d = DivisorClass((1, -1))
    assert lat.intersect(d, d) == 0
    assert lat.genus(d) == 0
    assert lat.intersect(d, lat.canonical) == -2


# contraction -------------------------------------------------------------------------

def test_contract_requires_exceptional_class():
    lat = _blown_up(1)
    with pytest.raises(NotExceptionalClass):
        lat.contract(DivisorClass((1, -1)))  # square 0


def test_contract_line_transform_gives_quadric_rulings():
    lat = _blown_up(2)
    line = DivisorClass((1, -1, -1))
    down, push = lat.contract(line)
    e1 = push(DivisorClass((0, 1, 0)))
    e2 = push(DivisorClass((0, 0, 1)))
    assert down.intersect(e1, e1) == 0
    assert down.intersect(e2, e2) == 0
    assert down.intersect(e1, e2) == 1
    assert down.signature() == (1, 1)
    # pushforward of E1 is H - E2 upstairs: check intersection with K
    assert down.intersect(e1, down.canonical) == -2


def test_contract_blow_up_round_trip_isometry():
    bases = [_blown_up(k) for k in range(6)] + [hirzebruch_lattice(n) for n in range(6)]
    for base in bases:
        up = base.blow_up()
        e_new = up.basis_class(up.labels[-1])
        down, push = up.contract(e_new)
        images = [
            push(DivisorClass(tuple(int(i == j) for i in range(base.rank)) + (0,)))
            for j in range(base.rank)
        ]
        for a in range(base.rank):
            for b in range(base.rank):
                assert down.intersect(images[a], images[b]) == base.gram[a][b]
        assert down.intersect(down.canonical, down.canonical) == \
            base.intersect(base.canonical, base.canonical)


def test_pushforward_kills_the_contracted_class():
    lat = _blown_up(2)
    line = DivisorClass((1, -1, -1))
    _, push = lat.contract(line)
    assert push(line).coeffs == (0, 0)


def test_rank_mismatch_errors():
    lat = p2_lattice()
    with pytest.raises(RankMismatch):
        lat.intersect(DivisorClass((1, 2)), DivisorClass((1,)))


def test_parity_violation():
    lat = PicardLattice(((1,),), ("H",), DivisorClass((0,)))
    with pytest.raises(ParityViolation):
        lat.genus(DivisorClass((1,)))


def test_constructor_rejects_bad_lattices():
    with pytest.raises(ValueError):
        PicardLattice(((2,),), ("H",), DivisorClass((0,)))  # not unimodular
    with pytest.raises(ValueError):
        PicardLattice(((-1,),), ("E",), DivisorClass((0,)))  # wrong signature
    with pytest.raises(ValueError):
        PicardLattice(((0, 1), (2, 0)), ("a", "b"), DivisorClass((0, 0)))  # asymmetric


# definite form -------------------------------------------------------------------------

def test_definite_form_examples():
    lat = _blown_up(1)
    form = lat.definite_form(DivisorClass((1, 0)))
    assert form(DivisorClass((1, 0))) == 1
    assert form(DivisorClass((0, 1))) == 1
    assert form(DivisorClass((1, 1))) == 2


def test_definite_form_requires_square_one():
    lat = _blown_up(1)
    with pytest.raises(NotSquareOne):
        lat.definite_form(DivisorClass((0, 1)))


def test_definite_form_positive_on_random_vectors():
    rng = np.random.default_rng(RNG_SEED)
    cases = [
        (_blown_up(2), DivisorClass((1, 0, 0))),
        (hirzebruch_lattice(1), DivisorClass((1, 1))),
    ]
    for lat, c in cases:
        form = lat.definite_form(c)
        for _ in range(1000):
            v = tuple(int(x) for x in rng.integers(-20, 21, lat.rank))
            if not any(v):
                continue
            assert form(DivisorClass(v)) > 0


def test_definite_form_accepts_rational_vectors():
    lat = _blown_up(1)
    form = lat.definite_form(DivisorClass((1, 0)))
    value = form((Fraction(1, 2), Fraction(1, 3)))
    assert value == Fraction(1, 4) + Fraction(1, 9)


def test_definite_form_preserved_by_isometries_fixing_the_class():
    rng = np.random.default_rng(RNG_SEED + 1)
    lat = _blown_up(3)
    swap = lat.isometry([
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ])
    form = lat.definite_form(DivisorClass((1, 0, 0, 0)))
    for _ in range(200):
        v = DivisorClass(tuple(int(x) for x in rng.integers(-10, 11, 4)))
        assert form(v) == form(swap.apply(v))


# isometry orders ------------------------------------------------------------------------

def test_isometry_order_identity():
    lat = _blown_up(2)
    iso = lat.isometry(np.eye(3, dtype=int))
    e1 = lat.basis_class("E1")
    assert isometry_order_on_classes(iso, [e1], 10) == 1


def test_isometry_order_swap():
    lat = _blown_up(2)
    swap = lat.isometry([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    e1, e2 = lat.basis_class("E1"), lat.basis_class("E2")
    assert isometry_order_on_classes(swap, [e1, e2], 10) == 2


def test_isometry_order_empty_set():
    lat = _blown_up(2)
    swap = lat.isometry([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert isometry_order_on_classes(swap, [], 10) == 1


def test_isometry_order_three_cycle_and_bound():
    lat = _blown_up(3)
    cyc = lat.isometry([
        [1, 0, 0, 0],
        [0, 0, 0, 1],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ])
    es = [lat.basis_class(f"E{i}") for i in (1, 2, 3)]
    assert isometry_order_on_classes(cyc, es, 10) == 3
    assert isometry_order_on_classes(cyc, es, 2) is None


def test_isometry_order_set_not_invariant():
    lat = _blown_up(2)
    swap = lat.isometry([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    with pytest.raises(SetNotInvariant):
        isometry_order_on_classes(swap, [lat.basis_class("E1")], 10)


def test_isometry_constructor_rejects_non_isometry():
    lat = _blown_up(1)
    with pytest.raises(ValueError):
        lat.isometry([[1, 0], [0, 2]])


# contractible components ----------------------------------------------------------------

def test_find_contractible_single_exceptional():
    lat = _blown_up(1)
    assert find_contractible_component([(DivisorClass((0, 1)), 1)], lat) == 0


def test_find_contractible_reducible_member():
    lat = _blown_up(2)
    comps = [(DivisorClass((1, -1, -1)), 1), (DivisorClass((0, 0, 1)), 1)]
    assert find_contractible_component(comps, lat) == 0


def test_find_contractible_no_candidate():
    lat = _blown_up(2)
    with pytest.raises(NoCandidate):
        find_contractible_component([(DivisorClass((0, 1, -1)), 1)], lat)


# enumerations ------------------------------------------------------------------------------

def test_square_one_classes_n1():
    pairs = square_one_classes(1, 10)
    assert pairs == [(1, 1), (-1, -1)]
    f_plus_b = DivisorClass((1, 1))
    lat = hirzebruch_lattice(1)
    assert lat.intersect(f_plus_b, f_plus_b) == 1


def test_square_one_classes_empty_cases():
    assert square_one_classes(0, 100) == []
    assert square_one_classes(2, 100) == []


def test_square_one_matches_box_scan_oracle():
    # independent oracle: full box scan of the square equation plus the
    # base-positivity filter on the sign-normalized representative
    for n in range(0, 6):
        bound = 30
        brute = sorted(
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if 2 * a * b - n * b * b == 1
            and (a - n * b if b > 0 else -a + n * b) >= 0
        )
        assert sorted(square_one_classes(n, bound)) == brute


def test_square_one_closed_form_matches_scan():
    for n in range(0, 41):
        for bound in range(0, 61):
            assert square_one_classes(n, bound) == scan_square_one_classes(n, bound), (n, bound)


def test_square_one_huge_bound_returns_at_once():
    # b(2a - n b) = 1 forces b = +-1: the cost does not grow with the bound
    start = time.perf_counter()
    assert square_one_classes(1, 10**12) == [(1, 1), (-1, -1)]
    assert square_one_classes(5, 10**12) == []
    assert time.perf_counter() - start < 0.5


def test_square_one_odd_index_killed_by_base_pairing():
    # the bare square equation admits ((n+1)/2, 1) for odd n, but such a
    # class meets the base negatively, so it is excluded for n >= 3
    lat = hirzebruch_lattice(3)
    d = DivisorClass((2, 1))
    assert lat.intersect(d, d) == 1
    assert lat.intersect(d, lat.basis_class("B")) < 0
    assert square_one_classes(3, 100) == []


def test_enumerate_exceptional_classes():
    assert enumerate_exceptional_classes(p2_lattice(), 3) == []
    one = enumerate_exceptional_classes(_blown_up(1), 3)
    assert [d.coeffs for d in one] == [(0, 1)]
    two = enumerate_exceptional_classes(_blown_up(2), 3)
    assert sorted(d.coeffs for d in two) == [(0, 0, 1), (0, 1, 0), (1, -1, -1)]


# exceptional classes against the box scan ------------------------------------------------

def _changed_basis(lat: PicardLattice, ops) -> PicardLattice:
    """The same lattice in the basis reached by elementary column operations.

    Each op (i, j, c) adds c times basis vector i to basis vector j (i != j);
    U collects the new basis vectors as columns and U_inv tracks its inverse,
    so G' = U^T G U and K' = U^-1 K.
    """
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, c in ops:
        for row in u:
            row[j] += c * row[i]
        u_inv[i] = [a - c * b for a, b in zip(u_inv[i], u_inv[j])]
    g = lat.gram
    gram = tuple(
        tuple(sum(u[a][i] * g[a][b] * u[b][j] for a in range(n) for b in range(n))
              for j in range(n))
        for i in range(n)
    )
    k = lat.canonical.coeffs
    canonical = DivisorClass(tuple(sum(u_inv[i][j] * k[j] for j in range(n)) for i in range(n)))
    return PicardLattice(gram, tuple(f"v{i + 1}" for i in range(n)), canonical)


def _replay_end_lattices() -> dict[str, PicardLattice]:
    scripts = {
        "sigma0": builtin_sigma0_singular(),
        "sigma2": builtin_sigma2_singular(),
        "sigma-steps-3": builtin_sigma_chain(3),
        "standard-4": builtin_standard_blowups(4),
    }
    return {name: run(script).lattice for name, script in scripts.items()}


def _assert_matches_box_scan(lat: PicardLattice, bound: int) -> list[DivisorClass]:
    got = enumerate_exceptional_classes(lat, bound)
    assert got == brute_force_exceptional_classes(lat, bound)
    return got


@pytest.mark.parametrize("k", range(6))
def test_exceptional_classes_match_box_scan_on_blow_ups(k):
    for bound in range(4):
        _assert_matches_box_scan(_blown_up(k), bound)


def test_exceptional_classes_match_box_scan_on_hirzebruch_lattices():
    for n in range(9):
        for bound in (1, 2, 3, 5):
            _assert_matches_box_scan(hirzebruch_lattice(n), bound)
    # F_1 is the blow-up of the plane: its one exceptional class is the base
    assert [d.coeffs for d in enumerate_exceptional_classes(hirzebruch_lattice(1), 5)] == [(0, 1)]


def test_exceptional_classes_match_box_scan_on_replay_lattices():
    for lat in _replay_end_lattices().values():
        for bound in (1, 2, 3):
            _assert_matches_box_scan(lat, bound)


def test_exceptional_classes_of_the_plane_are_empty_at_any_bound():
    for bound in (0, 1, 5, 100, 10**6):
        assert enumerate_exceptional_classes(p2_lattice(), bound) == []


def test_exceptional_classes_without_unit_canonical_pairing():
    # basis H, E1 + E2, H + E2 of the twice blown-up plane: G K = (-3, -2, -4),
    # so the solved coordinate needs an exact division by 2
    lat = _changed_basis(_blown_up(2), [(2, 1, 1), (0, 2, 1)])
    ell = [sum(a * b for a, b in zip(row, lat.canonical.coeffs)) for row in lat.gram]
    assert ell == [-3, -2, -4]
    classes = _assert_matches_box_scan(lat, 3)
    assert len(classes) == 3


def test_exceptional_classes_with_vanishing_leading_coefficient():
    # diag(1, -1) with K = (1, 1): the quadratic in the last coordinate is linear
    lat = PicardLattice(((1, 0), (0, -1)), ("a", "b"), DivisorClass((1, 1)))
    assert [d.coeffs for d in _assert_matches_box_scan(lat, 3)] == [(0, 1)]


def test_exceptional_classes_with_identically_vanishing_quadratic():
    # diag(1, -1, -1) with K = (1, 1, 1): every (c, c, 1) and (c, 1, c) has
    # D.D = D.K = -1, so on some leaves the equation in c_p holds for every c_p
    lat = PicardLattice(((1, 0, 0), (0, -1, 0), (0, 0, -1)), ("a", "b", "c"),
                        DivisorClass((1, 1, 1)))
    classes = _assert_matches_box_scan(lat, 3)
    assert DivisorClass((-3, -3, 1)) in classes and DivisorClass((2, 1, 2)) in classes


def test_exceptional_classes_of_a_null_canonical_class():
    lat = PicardLattice(((0, 1), (1, 0)), ("a", "b"), DivisorClass((0, 0)))
    assert _assert_matches_box_scan(lat, 3) == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    bound=st.integers(1, 2),
    ops=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)),
                 max_size=8),
)
def test_exceptional_classes_match_box_scan_in_any_basis(k, bound, ops):
    ops = [(i, j, c) for i, j, c in ops if i != j and max(i, j) <= k]
    _assert_matches_box_scan(_changed_basis(_blown_up(k), ops), bound)


def test_one_pass_determinant_matches_bareiss():
    lattices = [_blown_up(k) for k in range(9)] + [hirzebruch_lattice(n) for n in range(9)]
    lattices += list(_replay_end_lattices().values())
    lattices.append(_changed_basis(_blown_up(4), [(1, 0, 2), (0, 3, -1), (4, 2, 1), (2, 4, -2)]))
    for lat in lattices:
        assert lat.determinant() == bareiss_det(lat.gram)
        assert lat.signature() == (1, lat.rank - 1)
    # zero diagonals, non-unimodular and degenerate forms
    forms = [
        ((0, 1), (1, 0)),
        ((0, 2), (2, 0)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
        ((1, 2), (2, 4)),
        ((0, 0), (0, 0)),
        ((2, 1, 0), (1, 2, 1), (0, 1, 2)),
    ]
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(50):
        m = rng.integers(-3, 4, (4, 4))
        forms.append(tuple(map(tuple, (m + m.T).tolist())))
    for gram in forms:
        (pos, neg), det = _signature(gram)
        assert det == bareiss_det(gram)
        if det:
            eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
            assert (pos, neg) == (int((eig > 0).sum()), int((eig < 0).sum()))


# integer inputs: a float is refused, never truncated; numpy integers pass -------------------

def test_divisor_class_refuses_float_coefficients():
    with pytest.raises(TypeError):
        DivisorClass((1.9, 2.5))
    with pytest.raises(TypeError):
        DivisorClass((1.0, 2))
    d = DivisorClass((np.int64(1), np.int32(-2)))
    assert d.coeffs == (1, -2) and all(type(c) is int for c in d.coeffs)


def test_scalar_multiple_refuses_a_float():
    d = DivisorClass((1, -1))
    with pytest.raises(TypeError):
        2.7 * d
    assert (np.int64(3) * d).coeffs == (3, -3)


def test_picard_lattice_refuses_a_float_gram():
    with pytest.raises(TypeError):
        PicardLattice(((1.0, 0), (0, -1)), ("H", "E"), DivisorClass((-3, 1)))
    lat = PicardLattice(np.array([[1, 0], [0, -1]]), ("H", "E"), DivisorClass((-3, 1)))
    assert lat.gram == ((1, 0), (0, -1)) and all(type(x) is int for row in lat.gram for x in row)


def test_isometry_refuses_float_rows():
    lat = _blown_up(2)
    with pytest.raises(TypeError):
        lat.isometry([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]])
    assert lat.isometry(np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]])) is not None


def test_proper_transform_refuses_a_float_multiplicity():
    base = p2_lattice()
    up = base.blow_up()
    h = base.basis_class("H")
    with pytest.raises(TypeError):
        up.proper_transform(h, 1.5)
    assert up.proper_transform(h, np.int64(1)).coeffs == (1, -1)


def test_find_contractible_component_refuses_a_float_coefficient():
    lat = _blown_up(1)
    with pytest.raises(TypeError):
        find_contractible_component([(DivisorClass((0, 1)), 1.5)], lat)
    assert find_contractible_component([(DivisorClass((0, 1)), np.int64(1))], lat) == 0


def test_square_one_classes_refuses_a_negative_index():
    with pytest.raises(ValueError, match="Hirzebruch index must be non-negative"):
        hirzebruch_lattice(-1)
    with pytest.raises(ValueError, match="Hirzebruch index must be non-negative"):
        square_one_classes(-1, 5)
