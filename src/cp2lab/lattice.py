"""Exact integer Picard lattices of rational surfaces.

Unimodular Lorentzian lattices with a distinguished canonical class,
supporting blow-up (append a -1 vector, add it to the canonical class),
contraction of an exceptional class (orthogonal complement with an
integer basis from a gcd-chain unimodular transform, plus the pushforward
map), adjunction genus, the positive-definite form attached to a
square-one class, finite-order checks for isometries on class sets, a
square-one scan on Hirzebruch lattices, and the enumeration of exceptional
classes in a coefficient box.  When K.K > 0 the exceptional classes lie on
the ellipsoid 2 (D.K)^2 - K.K (D.D) = K.K + 2, positive definite by the
Hodge index theorem, and a Fincke-Pohst search (Math. Comp. 44 (1985)
463-471) finds them in time that follows the ellipsoid's lattice points,
not the box: the 240 classes of the plane blown up at 8 points at any
bound.  Its bounds come from fraction-free (Bareiss, Math. Comp. 22 (1968)
565-578) elimination of that form, exact in integers.  When K.K <= 0
(9 or more blow-ups) two coordinates are solved exactly and the other
rank - 2 scanned, (2 bound + 1)^(rank - 2) leaves.

All arithmetic is exact: Python integers and Fractions throughout.  The
public constructor validates every lattice built from user input (square,
symmetric, unimodular, signature (1, rank - 1)) by one congruence pass that
yields both the inertia and the determinant.  The plane, the Hirzebruch
lattices and the results of surgery are valid by construction and skip that
pass: a blow-up is G + <-1>, and a contraction is the orthogonal complement
of a class of square -1 (see `PicardLattice.contract`).  Pairings skip zero
coefficients, which keeps the diagonal Gram matrices of repeated blow-ups
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm, prod
from operator import index, mul

from .errors import (
    NoCandidate,
    NonUnimodularComplement,
    NotExceptionalClass,
    NotSquareOne,
    ParityViolation,
    RankMismatch,
    SetNotInvariant,
)


@dataclass(frozen=True)
class DivisorClass:
    """Integer coefficient vector in the basis of its ambient lattice."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        # built from a list so the tuple is allocated at its final size; a
        # tuple grown from an iterator is resized from a default-size block,
        # and over repeated blow-ups the per-size tuple free lists then fill
        # to their cap (about 4 MB more peak memory).  index, not int: a float
        # raises TypeError rather than truncating
        object.__setattr__(self, "coeffs", tuple([index(c) for c in self.coeffs]))

    @classmethod
    def _of(cls, coeffs: tuple[int, ...]) -> "DivisorClass":
        """A class from a tuple that already holds ints: no re-coercion."""
        d = object.__new__(cls)
        object.__setattr__(d, "coeffs", coeffs)
        return d

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs, strict=True)))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(tuple(-a for a in self.coeffs))

    def __rmul__(self, k: int) -> "DivisorClass":
        return DivisorClass(tuple(index(k) * a for a in self.coeffs))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


def _signature(gram: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int], int]:
    """((positive, negative) inertia, determinant) of a symmetric integer matrix.

    One exact symmetric congruence diagonalization over the rationals: each
    pivot takes the Schur complement of the trailing block, touching only
    the rows and columns where the pivot row is nonzero.  When the trailing
    block has a zero diagonal, row and column j are added to row and column
    i for some nonzero entry (i, j), which leaves the pivot 2 a_ij.  Every
    congruence used has determinant +-1, so the determinant is the product
    of the pivots.  A degenerate matrix gives determinant 0; the inertia then
    counts only the pivots met before the zero block.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            hit = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]), None)
            if hit is None:
                return (pos, neg), 0
            i, j = hit
            for t in range(k, n):
                a[i][t] += a[j][t]
            for t in range(k, n):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a[k:]:
                row[k], row[piv] = row[piv], row[k]
        row_k = a[k]
        p = row_k[k]
        det *= p
        if p > 0:
            pos += 1
        else:
            neg += 1
        support = [t for t in range(k + 1, n) if row_k[t]]
        for i in support:
            f = Fraction(row_k[i], p)
            row_i = a[i]
            for t in support:
                row_i[t] -= f * row_k[t]
    return (pos, neg), int(det)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _clear_vector(w: list[int]) -> tuple[list[list[int]], list[list[int]], int]:
    """Unimodular V (and its inverse) with w^T V = (g, 0, ..., 0), g = gcd(w) > 0."""
    n = len(w)
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vinv = [[int(i == j) for j in range(n)] for i in range(n)]
    cur = list(map(int, w))
    for idx in range(1, n):
        a0, ai = cur[0], cur[idx]
        if ai == 0:
            continue
        g, x, y = _xgcd(a0, ai)
        p, q = -(ai // g), a0 // g
        for r in range(n):
            c0, ci = v[r][0], v[r][idx]
            v[r][0] = x * c0 + y * ci
            v[r][idx] = p * c0 + q * ci
        for c in range(n):
            r0, ri = vinv[0][c], vinv[idx][c]
            vinv[0][c] = q * r0 - p * ri
            vinv[idx][c] = -y * r0 + x * ri
        cur[0], cur[idx] = g, 0
    if cur[0] < 0:
        for r in range(n):
            v[r][0] = -v[r][0]
        for c in range(n):
            vinv[0][c] = -vinv[0][c]
        cur[0] = -cur[0]
    return v, vinv, cur[0]


@dataclass(frozen=True)
class PushforwardMap:
    """Linear map induced by contracting an exceptional class.

    Sends D to D + (D.E) E, rewritten in the integer basis of the
    orthogonal complement of E.
    """

    matrix: tuple[tuple[int, ...], ...]   # (rank-1) x rank
    exceptional: DivisorClass
    dual: tuple[int, ...]                 # G E, so that D.E = d . dual

    def _check(self, d: DivisorClass) -> None:
        if d.rank != len(self.dual):
            raise RankMismatch(f"class has rank {d.rank}, map expects {len(self.dual)}")

    def __call__(self, d: DivisorClass) -> DivisorClass:
        self._check(d)
        return DivisorClass._of(tuple([sum(map(mul, row, d.coeffs)) for row in self.matrix]))

    def pairing(self, d: DivisorClass) -> int:
        """D.E, read from G E with no pass over the Gram matrix."""
        self._check(d)
        return sum(map(mul, d.coeffs, self.dual))


@dataclass(frozen=True)
class LatticeIsometry:
    """Integer matrix with M^T G M = G; columns are images of basis vectors."""

    matrix: tuple[tuple[int, ...], ...]

    def apply(self, d: DivisorClass) -> DivisorClass:
        n = len(self.matrix)
        if d.rank != n:
            raise RankMismatch(f"class has rank {d.rank}, isometry expects {n}")
        return DivisorClass(
            tuple(sum(self.matrix[i][j] * d.coeffs[j] for j in range(n)) for i in range(n))
        )


@dataclass(frozen=True)
class DefiniteForm:
    """Positive form v -> (v.C)^2 - D.D for v = (v.C) C + D with D in C-perp.

    Defined whenever C.C = 1 in a Lorentzian lattice; positivity is the
    Hodge-index statement that C-perp is negative definite.
    """

    lattice: "PicardLattice"
    unit_class: DivisorClass

    def __call__(self, v) -> Fraction:
        coeffs = v.coeffs if isinstance(v, DivisorClass) else tuple(v)
        if len(coeffs) != self.lattice.rank:
            raise RankMismatch(f"vector has length {len(coeffs)}, lattice rank {self.lattice.rank}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        gram = self.lattice.gram
        c = self.unit_class.coeffs
        lam = sum(coeffs[i] * gram[i][j] * c[j] for i in range(len(c)) for j in range(len(c)))
        d = tuple(coeffs[i] - lam * c[i] for i in range(len(c)))
        dd = sum(d[i] * gram[i][j] * d[j] for i in range(len(c)) for j in range(len(c)))
        return lam * lam - dd


@dataclass(frozen=True)
class PicardLattice:
    """Unimodular Lorentzian lattice with named basis and canonical class."""

    gram: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    canonical: DivisorClass

    def __post_init__(self):
        gram = tuple([tuple([index(x) for x in row]) for row in self.gram])  # see DivisorClass
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        if any(row != col for row, col in zip(gram, zip(*gram))):
            raise ValueError("gram matrix must be symmetric")
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise ValueError("labels must be distinct and match the rank")
        if self.canonical.rank != n:
            raise RankMismatch("canonical class length does not match the rank")
        inertia, det = _signature(gram)
        if abs(det) != 1:
            raise ValueError("gram matrix must be unimodular")
        if inertia != (1, n - 1):
            raise ValueError("lattice must have Lorentzian signature (1, rank-1)")

    @classmethod
    def _derived(cls, gram: tuple[tuple[int, ...], ...], labels: tuple[str, ...],
                 canonical: DivisorClass) -> "PicardLattice":
        """A lattice that surgery proved valid: no validation pass."""
        lat = object.__new__(cls)
        object.__setattr__(lat, "gram", gram)
        object.__setattr__(lat, "labels", labels)
        object.__setattr__(lat, "canonical", canonical)
        return lat

    @property
    def rank(self) -> int:
        return len(self.gram)

    def signature(self) -> tuple[int, int]:
        return _signature(self.gram)[0]

    def determinant(self) -> int:
        return _signature(self.gram)[1]

    @cached_property
    def _exceptional_labels(self) -> int:
        """How many labels read E<j>; blow_up hands the count on to its result."""
        return sum(1 for lab in self.labels if lab.startswith("E") and lab[1:].isdigit())

    def basis_class(self, label: str) -> DivisorClass:
        coeffs = [0] * self.rank
        coeffs[self.labels.index(label)] = 1
        return DivisorClass._of(tuple(coeffs))

    def class_from(self, coeffs) -> DivisorClass:
        d = DivisorClass(tuple(coeffs))
        if d.rank != self.rank:
            raise RankMismatch(f"class has rank {d.rank}, lattice rank {self.rank}")
        return d

    # pairing and genus

    def intersect(self, d1: DivisorClass, d2: DivisorClass) -> int:
        c1, c2, gram = d1.coeffs, d2.coeffs, self.gram
        if len(c1) != len(gram) or len(c2) != len(gram):
            raise RankMismatch(
                f"classes of rank {d1.rank}, {d2.rank} in a rank-{self.rank} lattice"
            )
        # rows of zero coefficients of d1 are skipped: blow-up classes are sparse
        return sum(a * sum(map(mul, row, c2)) for a, row in zip(c1, gram) if a)

    def genus(self, d: DivisorClass) -> int:
        total = self.intersect(d, d) + self.intersect(d, self.canonical)
        if total % 2 != 0:
            raise ParityViolation(f"D.D + D.K = {total} is odd for {d}")
        return total // 2 + 1

    # surgery

    def blow_up(self) -> "PicardLattice":
        """Append an exceptional vector: gram gains a -1 entry, K gains E.

        G + <-1> is unimodular with signature (1, rank), so the result is
        not re-validated.
        """
        n = self.rank
        gram = tuple([row + (0,) for row in self.gram] + [tuple([0] * n + [-1])])
        count = self._exceptional_labels + 1
        canonical = DivisorClass._of(self.canonical.coeffs + (1,))
        lat = PicardLattice._derived(gram, self.labels + (f"E{count}",), canonical)
        object.__setattr__(lat, "_exceptional_labels", count)  # fills the cache
        return lat

    def proper_transform(self, d: DivisorClass, multiplicity: int) -> DivisorClass:
        """Class of a curve of the given multiplicity through the blown-up point.

        Call on the blown-up lattice with a class from the previous lattice.
        """
        if multiplicity < 0:
            raise ValueError("multiplicity must be non-negative")
        if d.rank != self.rank - 1:
            raise RankMismatch(
                f"expected a rank-{self.rank - 1} class from before the blow-up, got rank {d.rank}"
            )
        return DivisorClass._of(d.coeffs + (-index(multiplicity),))

    def contract(self, e: DivisorClass) -> tuple["PicardLattice", PushforwardMap]:
        """Contract an exceptional class; returns the complement lattice and
        the pushforward map (new canonical class = pushforward of K + E)."""
        n = self.rank
        g = self.gram
        if e.rank != n:
            raise RankMismatch(f"class has rank {e.rank}, lattice rank {n}")
        w = [sum(map(mul, row, e.coeffs)) for row in g]  # G e: X.E = x . w for every X
        ee, ek = sum(map(mul, e.coeffs, w)), sum(map(mul, self.canonical.coeffs, w))
        if ee != -1 or ek != -1:
            raise NotExceptionalClass(f"{e} has E.E = {ee}, E.K = {ek}")
        v, vinv, content = _clear_vector(w)
        if content != 1:
            raise NonUnimodularComplement(f"pairing vector has content {content}")

        basis = [[v[i][c] for i in range(n)] for c in range(1, n)]  # columns 1..n-1
        g_basis = [[sum(map(mul, row, b)) for row in g] for b in basis]
        new_gram = tuple([tuple([sum(map(mul, a, gb)) for gb in g_basis]) for a in basis])

        # rows 1..n-1 of Vinv composed with x -> x + (x.E) E, that is
        # row + (row . e) w with w = G e
        push_rows = []
        for vrow in vinv:
            pairing = sum(map(mul, vrow, e.coeffs))
            push_rows.append([x + pairing * y for x, y in zip(vrow, w)])
        if any(push_rows[0][j] != 0 for j in range(n)):
            raise NonUnimodularComplement("projection onto the complement is not integral")
        push = PushforwardMap(tuple(tuple(row) for row in push_rows[1:]), e, tuple(w))

        new_canonical = push(self.canonical + e)
        labels = tuple(f"v{i + 1}" for i in range(n - 1))
        # valid by construction: since E.E = -1, every x is
        # (x + (x.E) E) - (x.E) E, so L = E-perp + Z E, an orthogonal sum;
        # E-perp is then unimodular with signature (1, n - 2)
        return PicardLattice._derived(new_gram, labels, new_canonical), push

    # forms and isometries

    def definite_form(self, c: DivisorClass) -> DefiniteForm:
        if self.intersect(c, c) != 1:
            raise NotSquareOne(f"{c} has self-intersection {self.intersect(c, c)}, need 1")
        return DefiniteForm(self, c)

    def isometry(self, rows) -> LatticeIsometry:
        mat = tuple(tuple(index(x) for x in row) for row in rows)
        n = self.rank
        if len(mat) != n or any(len(r) != n for r in mat):
            raise RankMismatch("isometry matrix must match the lattice rank")
        g = self.gram
        for a in range(n):
            for b in range(n):
                val = sum(mat[i][a] * g[i][j] * mat[j][b] for i in range(n) for j in range(n))
                if val != g[a][b]:
                    raise ValueError("matrix does not preserve the intersection form")
        return LatticeIsometry(mat)


def p2_lattice() -> PicardLattice:
    """Picard lattice of the projective plane: Z H with H.H = 1, K = -3H."""
    return PicardLattice._derived(((1,),), ("H",), DivisorClass._of((-3,)))


def hirzebruch_lattice(n: int) -> PicardLattice:
    """Rank-2 lattice of the n-th Hirzebruch surface on the fibre/base basis.

    F.F = 0, F.B = 1, B.B = -n; the canonical class -2B - (n+2)F is fixed
    by requiring both rulings to be rational and K.K = 8.  The Gram matrix
    has determinant -1 and signature (1, 1) for every n.
    """
    if n < 0:
        raise ValueError("Hirzebruch index must be non-negative")
    n = index(n)
    return PicardLattice._derived(((0, 1), (1, -n)), ("F", "B"), DivisorClass._of((-(n + 2), -2)))


def square_one_classes(n: int, bound: int) -> list[tuple[int, int]]:
    """Square-one curve classes aF + bB on the n-th Hirzebruch lattice.

    Pairs with |a|, |b| <= bound and (aF + bB)^2 = b(2a - n b) = 1, keeping
    only pairs whose sign-normalized representative (fibre pairing b > 0)
    also meets the base non-negatively (a - n b >= 0), as an irreducible
    curve distinct from the rulings must.  The product b(2a - n b) = 1 of
    integers forces b = +-1, so only those two values are solved, in O(1)
    for any bound.  Sign-symmetric pairs (-a, -b) are listed alongside
    their positives.  For odd n >= 3 the bare equation has solutions but
    the base pairing is negative, so the list is empty; only n = 1 admits
    (1, 1).  Raises ValueError for n < 0, as hirzebruch_lattice does.
    """
    if n < 0:
        raise ValueError("Hirzebruch index must be non-negative")
    out = []
    for b in (1, -1) if bound >= 1 else ():
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


def _box_roots(a: int, b: int, c: int, bound: int):
    """Integer roots x of a x^2 + 2 b x + c = 0 with |x| <= bound."""
    if a == 0:
        if b == 0:
            return range(-bound, bound + 1) if c == 0 else ()
        roots = (-c // (2 * b),) if c % (2 * b) == 0 else ()
    else:
        disc = b * b - a * c
        if disc < 0:
            return ()
        s = isqrt(disc)
        if s * s != disc:
            return ()
        roots = [num // a for num in {-b + s, -b - s} if num % a == 0]
    return [x for x in roots if -bound <= x <= bound]


def enumerate_exceptional_classes(lat: PicardLattice, coeff_bound: int) -> list[DivisorClass]:
    """Every class with D.D = -1 and D.K = -1 and all |coefficients| <= coeff_bound,
    sorted by coefficient vector.

    Two exact methods, chosen by the sign of K.K; both equal the scan of the
    whole coefficient box, order included, and a negative bound gives [].

    K.K > 0 (the plane blown up at k <= 8 points, the Hirzebruch lattices):
    by the Hodge index theorem K-perp is negative definite, so
    P(D) = 2 (D.K)^2 - K.K (D.D) is positive definite, and every exceptional
    class has P(D) = K.K + 2.  The classes are the points of that finite
    ellipsoid with D.K = -1, found by a Fincke-Pohst search (Math. Comp. 44
    (1985) 463-471) in integers alone; see `_ellipsoid_classes`.  Its cost
    follows the lattice points of the ellipsoid, not the box: on the plane
    blown up at 7 points, at most 498 search nodes whatever the bound.

    K.K <= 0: the exceptional classes can be infinite in number, and the box
    is searched by exact elimination of two coordinates; see `_box_classes`.
    Its cost is (2 coeff_bound + 1)^(rank - 2) leaves of O(1) integer work.
    """
    bound = index(coeff_bound)
    g, k = lat.gram, lat.canonical.coeffs
    ell = [sum(x * c for x, c in zip(row, k) if c) for row in g]  # l = G K: D.K = d . l
    k2 = sum(map(mul, ell, k))
    out = _ellipsoid_classes(g, ell, k2, bound) if k2 > 0 else _box_classes(g, ell, bound)
    out.sort(key=lambda d: d.coeffs)
    return out


def _ellipsoid_classes(g, ell: list[int], k2: int, bound: int) -> list[DivisorClass]:
    """The classes of the box with P(D) = K.K + 2 and D.K = -1, for K.K > 0.

    P(x) = x^T Q x with Q = 2 l l^T - K.K G.  The coordinates are taken in
    reversed order, y = (x_n, ..., x_1), so that the search fixes x_1 first:
    H on a blown-up plane, the widest range, which at 7 blow-ups and bound 3
    visits 496 nodes where basis order visits 670.  Fraction-free
    elimination (Bareiss, Math. Comp. 22 (1968) 565-578) of the
    positive-definite Q in that order gives its leading minors D_k > 0
    (D_0 = 1) and integer rows B_k with

        P = sum_k (D_k y_k + s_k)^2 / (D_k D_{k-1}),  s_k = sum_{j > k} B_kj y_j,

    the LDL^T factorization with its denominators cleared.  Scaled by
    M = prod_k D_k D_{k-1}, each term is the integer c_k (D_k y_k + s_k)^2
    with c_k = M / (D_k D_{k-1}).  The search fixes y_n, then y_{n-1}, down
    to y_1.  With R the scaled budget M (K.K + 2) less the terms already
    fixed, y_k ranges over |D_k y_k + s_k| <= isqrt(R // c_k), clipped to the
    box: exact, with no float and no slack.  y_1 must spend the budget
    exactly, since a class with D.K = -1 has P(D) = 2 - K.K (D.D), so
    P(D) = K.K + 2 is D.D = -1; of the at most two such y_1, those in the
    box with D.K = -1 are kept.
    """
    n = len(g)
    ell = ell[::-1]
    q = [[2 * ell[i] * ell[j] - k2 * g[-1 - i][-1 - j] for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):  # Bareiss, in place: the diagonal becomes D_1..D_n, the rows B_k
        p, row_k = q[k][k], q[k]
        for row in q[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * row_k[j]) // prev
        prev = p
    minors = [q[k][k] for k in range(n)]
    weights = [a * b for a, b in zip(minors, [1] + minors)]
    total = prod(weights)
    scale = [total // w for w in weights]
    rows = [[0] * (k + 1) + q[k][k + 1:] for k in range(n)]
    x = [0] * n
    out = []

    def search(k: int, budget: int) -> None:
        d, c = minors[k], scale[k]
        s = sum(map(mul, rows[k], x))  # the zeros of rows[k] skip x_0..x_k
        if k:
            t = isqrt(budget // c)
            for v in range(max(-bound, -((t + s) // d)), min(bound, (t - s) // d) + 1):
                x[k] = v
                u = d * v + s
                search(k - 1, budget - c * u * u)
            return
        sq, rem = divmod(budget, c)
        t = isqrt(sq)
        if rem or t * t != sq:
            return
        for u in {t, -t}:
            v, r = divmod(u - s, d)
            if not r and -bound <= v <= bound:
                x[0] = v
                if sum(map(mul, x, ell)) == -1:
                    out.append(DivisorClass._of(tuple(x[::-1])))

    search(n - 1, total * (k2 + 2))
    return out


def _box_classes(g, ell: list[int], bound: int) -> list[DivisorClass]:
    """The classes of the box with D.D = D.K = -1, by exact elimination of two
    coordinates.

    With l = G K, D.K = sum l_i c_i; the coordinate r with the smallest
    nonzero |l_r| is solved from the linear constraint, l_r c_r = -1 - sum_{i != r} l_i c_i, and kept only when
    the division is exact and c_r lies in the box.  Writing
    l_r D = -e_r + sum_{i != r} c_i w_i with w_i = l_r e_i - l_i e_r (so
    w_i.K = 0) turns l_r^2 (D.D + 1) = 0 into the integer quadratic

        sum W_ij c_i c_j - 2 sum t_i c_i + G_rr + l_r^2 = 0,
        W_ij = w_i.w_j,  t_i = e_r.w_i,

    over the coordinates i != r.  One of them, p, is solved from
    A c_p^2 + 2 B c_p + C = 0 (A = W_pp, preferring A != 0) with math.isqrt,
    keeping exact roots inside the box; the other rank - 2 coordinates are
    scanned depth first, B and C updated incrementally.  A canonical class
    with G K = 0 has no classes with D.K = -1, and the rank-one lattice Z<1>
    none with D.D = -1.
    """
    n = len(g)
    nonzero = [i for i in range(n) if ell[i]]
    if n == 1 or not nonzero:
        return []
    r = min(nonzero, key=lambda i: abs(ell[i]))
    lr = ell[r]
    others = [i for i in range(n) if i != r]
    g_r = g[r]

    def w_dot(i: int, j: int) -> int:
        # w_i.w_j for w_i = l_r e_i - l_i e_r
        return (lr * lr * g[i][j] - lr * (ell[j] * g_r[i] + ell[i] * g_r[j])
                + ell[i] * ell[j] * g_r[r])

    p = next((i for i in others if w_dot(i, i)), others[0])
    free = [i for i in others if i != p]
    m = len(free)
    a_p, l_p = w_dot(p, p), ell[p]
    t = {i: lr * g_r[i] - ell[i] * g_r[r] for i in others}
    w_rows = [[w_dot(f, h) for h in free] for f in free]
    w_p = [w_dot(p, f) for f in free]
    x = [0] * m
    box = range(-bound, bound + 1)
    out = []

    def leaf(lin: int, b: int, c: int) -> None:
        for cp in _box_roots(a_p, b, c, bound):
            num = -1 - lin - l_p * cp
            if num % lr or not -bound <= num // lr <= bound:
                continue
            coeffs = [0] * n
            for f, v in zip(free, x):
                coeffs[f] = v
            coeffs[p], coeffs[r] = cp, num // lr
            out.append(DivisorClass(tuple(coeffs)))

    def scan(d: int, lin: int, b: int, c: int, acc: list[int]) -> None:
        # acc[j] = sum over the assigned free coordinates h of W[free[j]][h] x_h
        f, row = free[d], w_rows[d]
        l_f, w_pf, w_ff, t_f, acc_f = ell[f], w_p[d], row[d], t[f], acc[d]
        for v in box:
            x[d] = v
            lin_v, b_v = lin + l_f * v, b + w_pf * v
            c_v = c + v * (2 * acc_f + w_ff * v - 2 * t_f)
            if d == m - 1:
                leaf(lin_v, b_v, c_v)
            else:
                scan(d + 1, lin_v, b_v, c_v, [s + v * y for s, y in zip(acc, row)])

    b0, c0 = -t[p], g_r[r] + lr * lr
    if m:
        scan(0, 0, b0, c0, [0] * m)
    else:
        leaf(0, b0, c0)
    return out


def find_contractible_component(components, lat: PicardLattice) -> int:
    """Index of a component with negative canonical pairing.

    components is a list of (DivisorClass, positive coefficient) with every
    component of negative self-intersection, as in the decomposition of a
    reducible square-zero pencil member; adjunction on the genus-zero sum
    then guarantees some component pairs negatively with K.  Ties break to
    the lowest index; NoCandidate signals a violated configuration or that
    every component is K-orthogonal (as for chains of -2 classes).
    """
    comps = [(d, index(c)) for d, c in components]
    if not comps:
        raise NoCandidate("empty component list")
    if any(c <= 0 for _, c in comps):
        raise NoCandidate("component coefficients must be positive")
    if any(lat.intersect(d, d) >= 0 for d, _ in comps):
        raise NoCandidate("every component must have negative self-intersection")
    for idx, (d, _) in enumerate(comps):
        if lat.intersect(d, lat.canonical) < 0:
            return idx
    raise NoCandidate("no component pairs negatively with the canonical class")


def isometry_order_on_classes(iso: LatticeIsometry, classes, bound: int) -> int | None:
    """Smallest k <= bound with iso^k fixing every listed class, else None.

    The listed set must be invariant; orbits inside a finite invariant set
    are cycles, so k is the lcm of the cycle lengths.
    """
    class_list = list(classes)
    if not class_list:
        return 1
    index = {d.coeffs: i for i, d in enumerate(class_list)}
    succ = []
    for d in class_list:
        image = iso.apply(d)
        if image.coeffs not in index:
            raise SetNotInvariant(f"isometry maps {d} to {image}, outside the given set")
        succ.append(index[image.coeffs])
    order = 1
    seen = [False] * len(class_list)
    for start in range(len(class_list)):
        if seen[start]:
            continue
        length = 0
        cur = start
        while not seen[cur]:
            seen[cur] = True
            cur = succ[cur]
            length += 1
        order = lcm(order, length)
    if order > bound:
        return None
    return order
