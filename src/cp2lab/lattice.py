"""Exact integer Picard lattices of rational surfaces.

Unimodular Lorentzian lattices with a distinguished canonical class,
supporting blow-up (append a -1 vector, add it to the canonical class),
contraction of an exceptional class (orthogonal complement with an
integer basis from a gcd-chain unimodular transform, plus the pushforward
map), adjunction genus, the positive-definite form attached to a
square-one class, finite-order checks for isometries on class sets, a
square-one scan on Hirzebruch lattices, and the enumeration of exceptional
classes in a coefficient box, which solves two coordinates exactly and
scans the other rank - 2.

All arithmetic is exact: Python integers and Fractions throughout.  The
public constructor validates every lattice built from user input (square,
symmetric, unimodular, signature (1, rank - 1)) by one congruence pass that
yields both the inertia and the determinant.  The results of surgery are
valid by construction and skip that pass: a blow-up is G + <-1>, and a
contraction is the orthogonal complement of a class of square -1 (see
`PicardLattice.contract`).  Pairings skip zero coefficients, which keeps
the diagonal Gram matrices of repeated blow-ups cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
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

    def __call__(self, d: DivisorClass) -> DivisorClass:
        if d.rank != len(self.matrix[0]):
            raise RankMismatch(f"class has rank {d.rank}, map expects {len(self.matrix[0])}")
        return DivisorClass._of(tuple([sum(map(mul, row, d.coeffs)) for row in self.matrix]))


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

    def basis_class(self, label: str) -> DivisorClass:
        idx = self.labels.index(label)
        return DivisorClass(tuple(int(i == idx) for i in range(self.rank)))

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
        existing = sum(1 for lab in self.labels if lab.startswith("E") and lab[1:].isdigit())
        labels = self.labels + (f"E{existing + 1}",)
        canonical = DivisorClass._of(self.canonical.coeffs + (1,))
        return PicardLattice._derived(gram, labels, canonical)

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
        if self.intersect(e, e) != -1 or self.intersect(e, self.canonical) != -1:
            raise NotExceptionalClass(
                f"{e} has E.E = {self.intersect(e, e)}, E.K = {self.intersect(e, self.canonical)}"
            )
        n = self.rank
        g = self.gram
        w = [sum(map(mul, row, e.coeffs)) for row in g]
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
        push = PushforwardMap(tuple(tuple(row) for row in push_rows[1:]), e)

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
    return PicardLattice(((1,),), ("H",), DivisorClass((-3,)))


def hirzebruch_lattice(n: int) -> PicardLattice:
    """Rank-2 lattice of the n-th Hirzebruch surface on the fibre/base basis.

    F.F = 0, F.B = 1, B.B = -n; the canonical class -2B - (n+2)F is fixed
    by requiring both rulings to be rational and K.K = 8.
    """
    if n < 0:
        raise ValueError("Hirzebruch index must be non-negative")
    gram = ((0, 1), (1, -n))
    canonical = DivisorClass((-(n + 2), -2))
    return PicardLattice(gram, ("F", "B"), canonical)


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

    Exact elimination of two coordinates.  With l = G K, D.K = sum l_i c_i;
    the coordinate r with the smallest nonzero |l_r| is solved from the
    linear constraint, l_r c_r = -1 - sum_{i != r} l_i c_i, and kept only when
    the division is exact and c_r lies in the box.  Writing
    l_r D = -e_r + sum_{i != r} c_i w_i with w_i = l_r e_i - l_i e_r (so
    w_i.K = 0) turns l_r^2 (D.D + 1) = 0 into the integer quadratic

        sum W_ij c_i c_j - 2 sum t_i c_i + G_rr + l_r^2 = 0,
        W_ij = w_i.w_j,  t_i = e_r.w_i,

    over the coordinates i != r.  One of them, p, is solved from
    A c_p^2 + 2 B c_p + C = 0 (A = W_pp, preferring A != 0) with math.isqrt,
    keeping exact roots inside the box; the other rank - 2 coordinates are
    scanned depth first, B and C updated incrementally.  The cost is
    (2 coeff_bound + 1)^(rank - 2) leaves of O(1) integer work each, against
    (2 coeff_bound + 1)^rank vectors for a box scan, and the result equals
    that scan exactly, order included.  A canonical class with G K = 0 has
    no classes with D.K = -1, and the rank-one lattice Z<1> none with
    D.D = -1.
    """
    n, g, bound = lat.rank, lat.gram, coeff_bound
    ell = [sum(x * k for x, k in zip(row, lat.canonical.coeffs) if k) for row in g]
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
    out.sort(key=lambda d: d.coeffs)
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
