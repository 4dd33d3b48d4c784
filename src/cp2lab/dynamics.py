"""Orbits of the projective action and empirical basin checks.

converge() follows single orbits step by step and declares convergence
when successive canonical iterates stop moving in the chordal metric.
Both it and iterate() run one kernel, _walk, which calls no function of
this package per step: the matrix-vector product on complex scalars, then
linalg3's _canonical and, for converge(), _chordal, both inline, with
|v|^2 carried over from the previous |w|^2.  The arithmetic and its order
are theirs, so results match to the bit; images _canonical would rescale
or refuse go to it.  Rows and fixed points come from su12's scalar path
too, so converge() makes no numpy call on a GroupElement; only basin
sampling and the resolver use numpy arrays.
basin_coverage_check() samples the open unit ball and random lines
through the attractive fixed point, then certifies that every sample
resolves into the forward basin of the attractive point or the backward
basin of the repulsive one.

Parabolic orbits approach their fixed point only polynomially, so the
coverage check certifies a sample by asymptotic capture: its distance to
the target is below a capture radius at two successive strides and
strictly decreasing between them.  The resolver (_resolve_batch) steps
every live sample by strides of 8 steps, x = S x / max|S x| with S = m^8
rescaled.  Since the report only says whether a sample is captured within
the budget, not when, the resolver first probes at power-of-two strides
(_probe_captures).  With P_j = S^(2^j) from repeated rescaled squaring,
for every N = 2^j with N + 1 <= the budget, it forms x_N = P_j x_0 and
x_(N+1) = S x_N, and certifies a sample when d_N <= (1 - delta) r^2 and
d_(N+1) < (1 - delta) d_N, for squared chordal distances d to the target,
capture radius r and delta = _PROBE_MARGIN (so d_(N+1) <= (1 - delta) r^2
as well).  The stride loop below tests capture at every stride up to the
budget, so it would certify that sample at stride N + 1 or earlier; the
margin keeps the rounding of the jump from flipping a decision.  x_N is
not rescaled: P_j, S and x_0 have largest entry 1, so |x_N| <= 3 and
|x_(N+1)| <= 9, and d does not depend on scale.  A jump that underflows
gives a NaN distance, which certifies nothing: probes only certify, and
that sample is left to the stride loop, which rescales every stride.
converge() and iterate() never probe, since their iteration counts are
exact.  Probes and strides run in a unitary frame whose first axis is
the target (_target_frame), where the squared distance of y is
(|y_1|^2 + |y_2|^2) / |y|^2.  The samples no probe
certifies go on to the stride loop, which advances them k strides per
round, k = _BLOCK_COLUMNS // live clamped to [1, _BLOCK_STRIDES], in place
in one 3 x (k live) block, then tests the whole block at once.  A sample's
decision is its first decided stride, so k changes no status; _BLOCK_COLUMNS
bounds a round's memory when many samples survive the probes.
Samples still undecided when the budget of max_iter // 8 strides runs out
are certified if their distance record is within _END_RADIUS and was set
in the last _END_STALE strides: with S strides, that holds exactly when
the smallest distance of strides S - _END_STALE .. S is below that of
strides 0 .. S - _END_STALE - 1 (or always, when S <= _END_STALE), so
rounds stop at stride S - _END_STALE - 1 and only keep a running minimum
on each side.  Samples left undecided are resolved backward toward p- by
the same rules; at budgets of a few strides that certifies samples still
far from p+.

Each sample stream is read in order, so a report depends only on the
seed and the sample counts, and the first n ball (or line) samples are the
same for any count >= n.  Stream s (0 for the ball, 1 for the lines) is
numpy's C Philox4x64-10 (Salmon et al., SC'11) with key
[seed mod 2^64, seed >> 64] and 256-bit counter s 2^128 (numpy steps the
counter before each block); each word w is read as the double
(w >> 11) * 2^-53.  A sample is the next accepted attempt.  A ball attempt
reads 4 words u_0..u_3: radius and angle of y, then of z, in the chart
x = 1, and is accepted when |y|^2 + |z|^2 < 1.  Since |y|^2 = u_0 and
|z|^2 = u_2 up to rounding, acceptance is read from s = u_0 + u_2; only
inside the band |s - 1| <= _BALL_BAND does the computed |y|^2 + |z|^2
decide, so y and z are computed for kept and band attempts alone.  A
line attempt reads 10 words: words 2k, 2k+1 give the complex Gaussian
g_k = rho cos phi + i rho sin phi by Box-Muller, rho = sqrt(-2 log(1 - u_2k)),
phi = 2 pi u_2k+1, and the point is alpha p + beta r with r = (g0, g1, g2),
alpha = g3, beta = g4.  No numpy Generator is built.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DEFAULT_MAX_ITER, NotNonElliptic, check_tol
from .linalg3 import _MAX_PIVOT, _MIN_PIVOT, ProjectivePoint, _canonical, _chordal, _norm2
from .su12 import (FixedPointData, Kind, _as_group_element, _inverse_rows, classify, fixed_points,
                   tangent_line)

DEFAULT_TOL = 1e-8
CAPTURE_RADIUS = 5e-3    # asymptotic capture radius for slow parabolic orbits
LINE_ANGLE_TOL = 1e-6    # sampled lines must differ from the tangent line by this
_STRIDE = 8              # iterations folded into one resolver step
# end-of-budget fallback: lines passing close to the tangent line converge
# like 1/n with a constant proportional to the inverse angle, so they may
# not reach the capture radius; an orbit whose distance record to the
# target is small and still being broken near the end of the budget is
# certified anyway, while a non-converging rotation stops improving
_END_RADIUS = 0.25
_END_STALE = 64          # strides without a new distance record that void the fallback


@dataclass(frozen=True)
class OrbitResult:
    converged: bool
    limit: ProjectivePoint | None
    iterations: int
    final_distance: float


@dataclass(frozen=True)
class BasinReport:
    """Outcome counts of a basin coverage run; counts partition the samples."""

    samples: int
    resolved_forward: int
    resolved_backward: int
    unresolved: int
    seed: int

    @property
    def fraction_to_attractive(self) -> float:
        return self.resolved_forward / self.samples if self.samples else 0.0

    @property
    def fraction_to_repulsive_backward(self) -> float:
        return self.resolved_backward / self.samples if self.samples else 0.0


def _walk(rows: list[list[complex]], v, steps: int, tol: float | None):
    """Up to `steps` orbit steps from the triple v under the matrix with
    these rows, each w = _canonical(m v), measured by d = _chordal(v, w)
    unless tol is None.  Returns (k, w, d) at the first step k with d <= tol,
    else (steps, last iterate, last d)."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x0, x1, x2 = v
    lo, hi, sqrt = _MIN_PIVOT, _MAX_PIVOT, math.sqrt
    n2 = (x0 * x0.conjugate() + x1 * x1.conjugate() + x2 * x2.conjugate()).real
    dist = math.inf
    for k in range(steps):
        y0, y1, y2 = a * x0 + b * x1 + c * x2, d * x0 + e * x1 + f * x2, g * x0 + h * x1 + i * x2
        try:
            m0, m1, m2 = abs(y0), abs(y1), abs(y2)
        except OverflowError:
            m0 = m1 = m2 = math.nan
        # _canonical where it neither rescales nor raises; a NaN modulus fails every test
        if m0 >= m1 and m0 >= m2 and lo <= m0 < hi:
            w0, w1, w2 = 1 + 0j, y1 / y0, y2 / y0
        elif m1 > m0 and m1 >= m2 and lo <= m1 < hi:
            w0, w1, w2 = y0 / y1, 1 + 0j, y2 / y1
        elif m2 > m0 and m2 > m1 and lo <= m2 < hi:
            w0, w1, w2 = y0 / y2, y1 / y2, 1 + 0j
        else:
            w0, w1, w2 = _canonical(y0, y1, y2)
        if tol is not None:
            c0, c1, c2 = x1 * w2 - x2 * w1, x2 * w0 - x0 * w2, x0 * w1 - x1 * w0
            n2w = (w0 * w0.conjugate() + w1 * w1.conjugate() + w2 * w2.conjugate()).real
            dist = sqrt((c0 * c0.conjugate() + c1 * c1.conjugate() + c2 * c2.conjugate()).real
                        / (n2 * n2w))
            if dist <= tol:
                return k, (w0, w1, w2), dist
            n2 = n2w
        x0, x1, x2 = w0, w1, w2
    return steps, (x0, x1, x2), dist


def iterate(a, p: ProjectivePoint, n: int) -> ProjectivePoint:
    """Canonical form of A^n p: n of converge's steps (_walk) without their
    distances.  Raises NotInGroup unless a is a member at GROUP_TOL."""
    if n < 0:
        raise ValueError("iteration count must be non-negative")
    _, w, _ = _walk(_as_group_element(a).rows, p.coords, n, None)
    return ProjectivePoint(_canonical(*w))


def _nearest_fixed_point(data: FixedPointData, p: ProjectivePoint) -> ProjectivePoint:
    if data.fully_degenerate:
        return p
    candidates = [fp.point for fp in data.points]
    if data.fixed_line is not None:
        # every point of the line is fixed: project the iterate onto it
        l = data.fixed_line.coords
        v = p.coords
        c = (l[0] * v[0] + l[1] * v[1] + l[2] * v[2]) / _norm2(l)
        proj = tuple(x - c * y.conjugate() for x, y in zip(v, l))
        if _norm2(proj) > 1e-24:
            candidates.append(ProjectivePoint(_canonical(*proj)))
    if not candidates:
        return p
    return min(candidates, key=lambda q: _chordal(q.coords, p.coords))


def converge(a, p: ProjectivePoint, max_iter: int = DEFAULT_MAX_ITER,
             tol: float = DEFAULT_TOL) -> OrbitResult:
    """Step with _walk until successive canonical points are at chordal
    distance at most tol.

    On success the limit is the fixed point of A nearest to the final
    iterate; iterations counts the steps before the stopping test fired.
    Raises ValueError unless tol passes check_tol, and NotInGroup unless a
    is a member at GROUP_TOL.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    check_tol(tol)
    g = _as_group_element(a)
    data = fixed_points(g)
    k, w, dist = _walk(g.rows, p.coords, max_iter, tol)
    if k == max_iter:
        return OrbitResult(False, None, max_iter, dist)
    # canonical again: a modulus tie in w can move the pivot
    return OrbitResult(True, _nearest_fixed_point(data, ProjectivePoint(_canonical(*w))), k, dist)


# sampling -------------------------------------------------------------------

_BALL_STREAM, _LINE_STREAM = 0, 1
_SEED_LIMIT = 1 << 128   # a Philox key is two 64-bit words
_CHUNK = 1 << 15         # most attempts one batch draws
_BATCH_SLACK = 16        # attempts a batch draws beyond its share of the missing samples
# half-width of the band of s = u_0 + u_2 around 1 where a ball attempt's point
# decides it: the computed |y|^2 + |z|^2 is within 20 ulp relative of s
_BALL_BAND = 1e-9


def _rejection_samples(seed: int, stream: int, words: int, draw, out: np.ndarray) -> None:
    """Write samples 0..n-1 of a stream into the 3 x n complex array out,
    with `words` Philox words per attempt (layout in the module docstring).

    draw(u, limit) maps the uniforms of a batch of attempts, one array per
    word, to the 3 x k points of its first k <= limit accepted attempts.  A
    batch is one random_raw call: one attempt per missing sample at first,
    then twice the missing count, plus _BATCH_SLACK and at most _CHUNK
    attempts, which bounds its memory.  Accepted points fill out in stream
    order; the rest of the last batch is dropped.
    """
    n = out.shape[1]
    bit_gen = np.random.Philox(key=seed, counter=stream << 128)
    filled, per_missing = 0, 1
    while filled < n:
        batch = min(per_missing * (n - filled) + _BATCH_SLACK, _CHUNK)
        raw = bit_gen.random_raw(words * batch).reshape(batch, words).T
        points = draw((raw >> 11) * 2.0 ** -53, n - filled)
        out[:, filled:filled + points.shape[1]] = points
        filled += points.shape[1]
        per_missing = 2


def _disc(u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points of the unit disc as (re, im)."""
    r = np.sqrt(u_radius)
    phi = (2.0 * np.pi) * u_angle
    return r * np.cos(phi), r * np.sin(phi)


def _abs2(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re + i im|^2 as C hypot then C pow, the arithmetic of Python's abs(z) ** 2."""
    return np.float_power(np.hypot(re, im), 2.0)


def _ball_points(u: np.ndarray, limit: int) -> np.ndarray:
    """Points (1, y, z) of the first limit accepted attempts (acceptance in the
    module docstring); the ball {Q < 0} lies inside the affine chart x = 1."""
    s = u[0] + u[2]
    ok = s < 1.0 - _BALL_BAND
    band = np.flatnonzero(np.abs(s - 1.0) <= _BALL_BAND)
    if band.size:
        ub = u[:, band]
        ok[band] = _abs2(*_disc(ub[0], ub[1])) + _abs2(*_disc(ub[2], ub[3])) < 1.0
    kept = u[:, np.flatnonzero(ok)[:limit]]
    points = np.empty((3, kept.shape[1]), dtype=complex)
    points[0] = 1.0
    points.real[1], points.imag[1] = _disc(kept[0], kept[1])
    points.real[2], points.imag[2] = _disc(kept[2], kept[3])
    return points


def _ball_samples(seed: int, out: np.ndarray) -> None:
    """Write ball samples 0..n-1 of the seed into the 3 x n complex array out:
    four words per attempt, kept when |y|^2 + |z|^2 < 1."""
    _rejection_samples(seed, _BALL_STREAM, 4, _ball_points, out)


def _box_muller(u_radius: np.ndarray, u_angle: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of complex Gaussians: rho cos phi + i rho sin phi
    with rho = sqrt(-2 log(1 - u_radius)), phi = 2 pi u_angle."""
    rho = np.sqrt(-2.0 * np.log(1.0 - u_radius))
    phi = (2.0 * np.pi) * u_angle
    return rho * np.cos(phi), rho * np.sin(phi)


def _norm(parts) -> np.ndarray:
    """Euclidean norms of vectors given as (re, im) pairs of arrays, summed in order."""
    return np.sqrt(sum(re * re + im * im for re, im in parts))


def _line_samples(seed: int, out: np.ndarray, p_vec: np.ndarray, tangent_dual: np.ndarray) -> None:
    """Write line samples 0..n-1 of the seed into the 3 x n complex array out:
    points alpha p + beta r on random lines through p, kept when |r| >= 1e-8,
    |<dual, r>| > LINE_ANGLE_TOL |dual| |r| (the line is not the tangent
    line) and |alpha p + beta r| > 1e-8.  Complex products are spelt out in
    real arithmetic, since numpy's complex multiply may fuse multiply-adds
    and then differ in the last bit from the scalar reference.
    """
    l_norm = float(np.linalg.norm(tangent_dual))
    p = [(float(c.real), float(c.imag)) for c in p_vec]
    dual = [(float(c.real), float(c.imag)) for c in tangent_dual]

    def draw(u, limit):
        g = [_box_muller(u[2 * k], u[2 * k + 1]) for k in range(5)]
        r, (a_re, a_im), (b_re, b_im) = g[:3], g[3], g[4]
        x = [((a_re * p_re - a_im * p_im) + (b_re * re - b_im * im),
              (a_re * p_im + a_im * p_re) + (b_re * im + b_im * re))
             for (p_re, p_im), (re, im) in zip(p, r)]
        d_re = sum(l_re * re - l_im * im for (l_re, l_im), (re, im) in zip(dual, r))
        d_im = sum(l_re * im + l_im * re for (l_re, l_im), (re, im) in zip(dual, r))
        r_norm = _norm(r)
        ok = ((r_norm >= 1e-8)
              & (np.hypot(d_re, d_im) > LINE_ANGLE_TOL * l_norm * r_norm)
              & (_norm(x) > 1e-8))
        points = np.empty((3, r_norm.size), dtype=complex)
        for j, (re, im) in enumerate(x):
            points.real[j], points.imag[j] = re, im
        return points[:, np.flatnonzero(ok)[:limit]]

    _rejection_samples(seed, _LINE_STREAM, 10, draw, out)


def _sample_points(seed: int, samples: int, line_samples: int, p_vec: np.ndarray,
                   tangent_dual: np.ndarray) -> np.ndarray:
    """3 x (samples + line_samples) array: the ball samples, then the line samples."""
    points = np.empty((3, samples + line_samples), dtype=complex)
    _ball_samples(seed, points[:, :samples])
    _line_samples(seed, points[:, samples:], p_vec, tangent_dual)
    return points


# vectorized resolver ---------------------------------------------------------

_BLOCK_COLUMNS = 2048    # stride-columns (strides x live samples) one resolver round tests
_BLOCK_STRIDES = 64      # most strides one resolver round advances
_PROBE_MARGIN = 1e-6     # relative margin of a probe's capture test, against the jump's rounding


def _normalized_power(m: np.ndarray, log2_exp: int) -> np.ndarray:
    a = m / np.abs(m).max()
    for _ in range(log2_exp):
        a = a @ a
        a = a / np.abs(a).max()
    return a


def _target_frame(m: np.ndarray, points: np.ndarray, target: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The stride matrix S = m^8 (rescaled) and the columns of points (each
    rescaled), both in a unitary frame whose first axis is the target."""
    t_hat = (target / np.linalg.norm(target)).reshape(3, 1)
    # unitary, its first row the target's conjugate up to a phase
    frame = np.linalg.qr(np.column_stack([t_hat, np.eye(3)]))[0].conj().T
    step = frame @ _normalized_power(m, 3) @ frame.conj().T
    y = frame @ points
    return step, y / np.abs(y).max(axis=0)


def _target_dist2(y: np.ndarray) -> np.ndarray:
    """Squared chordal distances of the columns of y to the target, the
    first axis of the frame: (|y_1|^2 + |y_2|^2) / |y|^2."""
    w = y.real * y.real + y.imag * y.imag
    off = w[1] + w[2]
    return off / (off + w[0])


def _probe_captures(step: np.ndarray, y: np.ndarray, budget: int, cap2: float) -> np.ndarray:
    """Mask of the columns of y that the power-of-two probes certify within
    budget strides of step (both in the target frame; rule in the module
    docstring)."""
    certified = np.zeros(y.shape[1], dtype=bool)
    live = np.arange(y.shape[1])
    lim = (1.0 - _PROBE_MARGIN) * cap2
    power = step  # S^N, rescaled
    big_n = 1
    # a jump that underflows measures 0 / 0: NaN, which certifies nothing
    with np.errstate(invalid="ignore"):
        while big_n + 1 <= budget and live.size:
            a = live.size
            # y_N and y_(N+1) side by side, so one pass measures both
            pair = np.empty((3, 2 * a), dtype=complex)
            y_n = pair[:, :a]
            np.matmul(power, y, out=y_n)
            np.matmul(step, y_n, out=pair[:, a:])
            d = _target_dist2(pair)
            d_n, d_next = d[:a], d[a:]
            ok = (d_n <= lim) & (d_next < (1.0 - _PROBE_MARGIN) * d_n)
            if ok.any():
                certified[live[ok]] = True
                live, y = live[~ok], y[:, ~ok]
            power = _normalized_power(power, 1)
            big_n *= 2
    return certified


def _resolve_batch(m: np.ndarray, points: np.ndarray, target: np.ndarray, max_iter: int,
                   capture_radius: float) -> np.ndarray:
    """Resolve each column of points toward the target fixed point.

    Returns a status per column: 1 resolved to the target, by capture or by
    the end-of-budget fallback, and 0 undecided within the iteration budget.
    The probes, rounds of k strides and the window form of the fallback are
    described in the module docstring.
    """
    n = points.shape[1]
    status = np.zeros(n, dtype=np.int8)
    if n == 0:
        return status

    step, x = _target_frame(m, points, target)
    cap2 = capture_radius * capture_radius
    budget = max_iter // _STRIDE
    certified = _probe_captures(step, x, budget, cap2)
    status[certified] = 1
    alive = np.flatnonzero(~certified)
    if not alive.size:
        return status
    x = x[:, alive]
    d_prev = _target_dist2(x)
    window = budget - _END_STALE  # first stride of the staleness window
    # smallest distance to the target before the window and within it;
    # stride 0 lies in the window when the budget is at most _END_STALE
    d_min_before, d_min = np.full(alive.size, np.inf), d_prev
    done = 0
    while done < budget:
        if done + 1 == window:
            d_min_before, d_min = d_min, np.full(alive.size, np.inf)
        a = alive.size
        end = window - 1 if done < window - 1 else budget
        k = min(max(_BLOCK_COLUMNS // a, 1), _BLOCK_STRIDES, end - done)
        # k x a stride-columns, stride-major: S x, then its rescaling, in place
        block = np.empty((3, k * a), dtype=complex)
        for j in range(k):
            y = block[:, j * a:(j + 1) * a]
            np.matmul(step, x, out=y)
            # times the reciprocal: the values of y / max|y| (numpy divides
            # by a real as by m + 0j, i.e. by 1/m) without complex division
            np.multiply(y, 1.0 / np.abs(y).max(axis=0), out=y)
            x = y
        done += k

        d = _target_dist2(block)
        # "from" is the distance at the stride each step starts at
        d_from = np.concatenate((d_prev, d[:-a]))
        captured = (d <= cap2) & (d_from <= cap2) & (d < d_from)
        d_min = np.minimum(d_min, d.reshape(k, a).min(axis=0))

        d_prev = d[-a:]
        if captured.any():
            keep = ~captured.reshape(k, a).any(axis=0)
            status[alive[~keep]] = 1
            x, d_prev = x[:, keep], d_prev[keep]
            d_min, d_min_before, alive = d_min[keep], d_min_before[keep], alive[keep]
            if not alive.size:
                return status

    # end-of-budget fallback: a new distance record inside the window is
    # exactly "at most _END_STALE strides since the last record"
    slow = (np.minimum(d_min_before, d_min) <= _END_RADIUS ** 2) & (d_min < d_min_before)
    status[alive[slow]] = 1
    return status


def basin_coverage_check(a, samples: int, line_samples: int | None = None, *,
                         seed: int = 0, max_iter: int = DEFAULT_MAX_ITER) -> BasinReport:
    """Empirical check that the sampled ball and lines through the
    attractive point resolve into forward-basin(p+) or backward-basin(p-).

    samples points are drawn from the open unit ball by rejection on the
    affine chart, plus line_samples points (default samples // 10) on
    random projective lines through the attractive fixed point, excluding
    its tangent line.  Each point is iterated forward toward p+ and, if
    undecided, backward toward p-, and counts as resolved when the
    resolver's capture rule or its end-of-budget fallback certifies it
    (module docstring), with capture radius CAPTURE_RADIUS.  Raises ValueError
    for a seed outside [0, 2^128), a negative sample count, or max_iter
    below one stride.
    """
    seed = operator.index(seed)
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError("seed must lie in [0, 2**128)")
    if samples < 0 or (line_samples is not None and line_samples < 0):
        raise ValueError("sample counts must be non-negative")
    if max_iter < _STRIDE:
        raise ValueError(f"max_iter must be at least {_STRIDE}, one resolver stride")
    g = _as_group_element(a)
    cls = classify(g)
    if cls.kind == Kind.ELLIPTIC:
        raise NotNonElliptic("basin coverage applies to hyperbolic and parabolic elements only")
    if line_samples is None:
        line_samples = samples // 10

    p_plus = cls.attractive.point
    p_minus = cls.repulsive.point
    l_plus = tangent_line(p_plus)

    points = _sample_points(seed, samples, line_samples, p_plus.vector, l_plus.vector)
    total = points.shape[1]

    forward = _resolve_batch(g.matrix, points, p_plus.vector, max_iter, CAPTURE_RADIUS)

    rest = forward == 0
    backward_count = 0
    if rest.any():
        backward = _resolve_batch(np.array(_inverse_rows(g.rows)), points[:, rest],
                                  p_minus.vector, max_iter, CAPTURE_RADIUS)
        backward_count = int(backward.sum())

    forward_count = int(forward.sum())
    unresolved = total - forward_count - backward_count
    return BasinReport(
        samples=total,
        resolved_forward=forward_count,
        resolved_backward=backward_count,
        unresolved=unresolved,
        seed=seed,
    )
