"""Basin sampling streams: the bulk sampler against scalar references
that read the same stream one attempt at a time, the words each stream
draws, and the sampled laws.

Stream s is one numpy Philox keyed by the seed at counter s * 2^128; a
sample is the next accepted attempt, of 4 words on the ball and 10 on a
line.  The bulk sampler reads whole batches of attempts and drops what it
reads past the last sample.
"""

import numpy as np
import pytest
from scipy import stats

from cp2lab import AlgebraElement, dynamics, mat_exp
from cp2lab.dynamics import _ball_samples, _sample_points
from cp2lab.su12 import classify, tangent_line

from helpers import ball_sample, line_sample, sample_stream, unit_disc


def _same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


class CountingPhilox(np.random.Philox):
    """numpy's Philox, counting the words drawn through random_raw."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.words = 0

    def random_raw(self, size=None, output=True):
        self.words += 1 if size is None else int(np.prod(size))
        return super().random_raw(size, output)


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5, 2**128 - 1])
def test_ball_samples_bitwise_equal_scalar_reference(seed):
    n = 5000
    got = np.empty((3, n), dtype=complex)
    _ball_samples(seed, got)
    stream = sample_stream(seed, 0)
    expected = np.column_stack([ball_sample(stream) for _ in range(n)])
    assert _same_bits(got, expected)


def test_ball_samples_are_uniform_in_the_ball():
    # uniform in the unit 4-ball of the chart x = 1: s = |y|^2 + |z|^2 has
    # CDF s^2 and |y|^2 has CDF 2t - t^2
    points = np.empty((3, 20_000), dtype=complex)
    _ball_samples(2024, points)
    assert (points[0] == 1.0).all()
    y2, z2 = np.abs(points[1]) ** 2, np.abs(points[2]) ** 2
    assert (y2 + z2 < 1.0).all()
    assert stats.kstest(y2 + z2, lambda s: s * s).pvalue > 1e-3
    assert stats.kstest(y2, lambda t: 2 * t - t * t).pvalue > 1e-3


def _line_data():
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.3).matrix())
    p_plus = classify(m).attractive.point
    return p_plus.vector, tangent_line(p_plus).vector


def test_line_samples_lie_on_lines_through_p_off_its_tangent_line():
    p_vec, dual = _line_data()
    points = _sample_points(2024, 0, 2000, p_vec, dual)
    norms = np.linalg.norm(points, axis=0)
    # the tangent line contains p; a sample off it spans a line through p
    # other than the tangent line
    assert abs(np.dot(dual, p_vec)) < 1e-12 * np.linalg.norm(dual) * np.linalg.norm(p_vec)
    assert (norms > 1e-8).all()
    off = np.abs(dual @ points) / (np.linalg.norm(dual) * norms)
    assert (off > 1e-9).all()
    cross = np.linalg.norm(np.cross(p_vec, points, axis=0), axis=0)
    assert (cross > 1e-9 * np.linalg.norm(p_vec) * norms).all()


def test_samples_do_not_depend_on_sample_counts():
    p_vec, dual = _line_data()
    large = _sample_points(17, 700, 25, p_vec, dual)
    for n in (0, 1, 40):
        for k in (0, 1, 7, 25):
            small = _sample_points(17, n, k, p_vec, dual)
            assert _same_bits(small[:, :n], large[:, :n])
            assert _same_bits(small[:, n:], large[:, 700:700 + k])


@pytest.mark.parametrize("seed", [0, 7, 2**128 - 1])
def test_line_samples_bitwise_equal_scalar_reference(seed):
    p_vec, dual = _line_data()
    n = 600
    got = _sample_points(seed, 0, n, p_vec, dual)
    stream = sample_stream(seed, 1)
    expected = np.column_stack([line_sample(stream, p_vec, dual) for _ in range(n)])
    assert _same_bits(got, expected)


def test_line_samples_retry_rejected_attempts(monkeypatch):
    # at angle tolerance 0.5 about 44% of the attempts fall too close to
    # the tangent line, so the stream reads many more attempts than samples
    p_vec, dual = _line_data()
    n = 500
    monkeypatch.setattr(dynamics, "LINE_ANGLE_TOL", 0.5)
    got = _sample_points(3, 0, n, p_vec, dual)
    stream = CountingPhilox(key=3, counter=1 << 128)
    expected = np.column_stack([line_sample(stream, p_vec, dual, angle_tol=0.5)
                                for _ in range(n)])
    assert _same_bits(got, expected)
    attempts = stream.words // 10
    assert 1.5 * n < attempts < 2.2 * n


def test_samples_do_not_depend_on_chunking(monkeypatch):
    p_vec, dual = _line_data()
    whole = _sample_points(23, 300, 40, p_vec, dual)
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    assert _same_bits(_sample_points(23, 300, 40, p_vec, dual), whole)


def test_seeds_differing_in_the_high_key_word_give_different_samples():
    # the key is [seed mod 2^64, seed >> 64]: seeds s and s + 2^64 share the
    # low word only
    p_vec, dual = _line_data()
    for seed in (0, 5, 2**64 - 1):
        low = _sample_points(seed, 200, 20, p_vec, dual)
        high = _sample_points(seed + 2**64, 200, 20, p_vec, dual)
        assert (low != high).any(axis=0).all()


@pytest.mark.parametrize("seed", [0, 419])
def test_samplers_draw_little_beyond_the_attempts_they_consume(monkeypatch, seed):
    # the scalar references read exactly the attempts up to the last
    # accepted one; the bulk sampler may read at most half as much again
    p_vec, dual = _line_data()
    built = []

    def counted(*args, **kwargs):
        built.append(CountingPhilox(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(np.random, "Philox", counted)
    points = _sample_points(seed, 1000, 100, p_vec, dual)
    ball, line = built
    ball_ref, line_ref = CountingPhilox(key=seed), CountingPhilox(key=seed, counter=1 << 128)
    expected = np.column_stack([ball_sample(ball_ref) for _ in range(1000)]
                               + [line_sample(line_ref, p_vec, dual) for _ in range(100)])
    assert _same_bits(points, expected)
    assert ball.words <= 1.5 * ball_ref.words
    assert line.words <= 1.5 * line_ref.words


def _ball_attempts(u0, u2, rng):
    """Ball attempts (4 x k uniforms) with radii u0, u2 and random angles."""
    u0, u2 = np.broadcast_arrays(np.asarray(u0, dtype=float), np.asarray(u2, dtype=float))
    angles = rng.integers(0, 2**53, size=(2, u0.size)) * 2.0 ** -53
    return np.stack([u0, angles[0], u2, angles[1]])


def test_ball_acceptance_in_the_band_follows_the_exact_rule():
    # s = u_0 + u_2 next to 1 and inside the band, where the computed
    # |y|^2 + |z|^2 decides: each verdict and each kept point must be those
    # of the scalar rule, which s < 1 alone would not always give
    beta = dynamics._BALL_BAND
    rng = np.random.default_rng(5)
    u0 = np.repeat(np.arange(1, 16) / 16, 40)
    columns = []
    for s in (1 - 2.0**-53, 1.0, 1 + 2.0**-52, 1 - 0.5 * beta, 1 + 0.5 * beta):
        columns.append(_ball_attempts(u0, s - u0, rng))
    u = np.concatenate(columns, axis=1)
    s = u[0] + u[2]
    assert (np.abs(s - 1.0) <= beta).all()
    expected = []
    for u_y_r, u_y_a, u_z_r, u_z_a in u.T:
        y, z = unit_disc(u_y_r, u_y_a), unit_disc(u_z_r, u_z_a)
        expected.append(abs(y) ** 2 + abs(z) ** 2 < 1.0)
    expected = np.array(expected)
    got = dynamics._ball_points(u, u.shape[1])
    kept = u[:, expected]
    reference = np.array([[1.0] * kept.shape[1],
                          [unit_disc(r, a) for r, a in zip(kept[0], kept[1])],
                          [unit_disc(r, a) for r, a in zip(kept[2], kept[3])]])
    assert _same_bits(got, reference)
    # the band decides against s < 1 on some of these attempts
    assert (expected != (s < 1.0)).any()
    assert expected.any() and not expected.all()


def test_ball_acceptance_outside_the_band_is_s_below_one():
    # the computed |y|^2 + |z|^2 stays on the side of 1 that s = u_0 + u_2
    # is on whenever beta < |s - 1| <= 1e-6: the rounding, under 20 ulp,
    # never reaches beyond the band
    beta = dynamics._BALL_BAND
    rng = np.random.default_rng(11)
    n = 100_000
    u0 = rng.integers(2**44, 2**53 - 2**44, size=n) * 2.0 ** -53
    offset = rng.choice([-1.0, 1.0], size=n) * rng.uniform(beta, 1e-6, size=n)
    u2 = np.round((1.0 + offset - u0) * 2.0**53) * 2.0 ** -53
    u = _ball_attempts(u0, u2, rng)
    s = u[0] + u[2]
    u, s = u[:, np.abs(s - 1.0) > beta], s[np.abs(s - 1.0) > beta]
    assert s.size > 0.99 * n
    # the band's rule, bitwise that of the scalar reference
    y2 = dynamics._abs2(*dynamics._disc(u[0], u[1]))
    z2 = dynamics._abs2(*dynamics._disc(u[2], u[3]))
    np.testing.assert_array_equal(y2 + z2 < 1.0, s < 1.0)


def test_ball_points_are_computed_for_kept_attempts_alone(monkeypatch):
    # about half the attempts are rejected; _disc, the trig of a point, runs
    # on the kept attempts and on those in the band only
    given = []
    inner = dynamics._disc

    def counted(u_radius, u_angle):
        given.append(u_radius.size)
        return inner(u_radius, u_angle)

    built = []

    def counting(*args, **kwargs):
        built.append(CountingPhilox(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(dynamics, "_disc", counted)
    monkeypatch.setattr(np.random, "Philox", counting)
    n = 1000
    _ball_samples(419, np.empty((3, n), dtype=complex))
    (ball,) = built
    words = sample_stream(419, 0).random_raw(ball.words).reshape(-1, 4).T
    u = (words >> 11) * 2.0 ** -53
    band = int((np.abs(u[0] + u[2] - 1.0) <= dynamics._BALL_BAND).sum())
    attempts = ball.words // 4
    assert attempts > 1.8 * n
    # y and z each pass through _disc once per kept or band attempt
    assert sum(given) <= 2 * (n + band)
