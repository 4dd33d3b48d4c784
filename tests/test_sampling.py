"""Basin sampling streams: the bulk Philox passes against numpy's Philox
built per sample and attempt, and the sampled laws.

Attempt a of sample i in stream s reads its blocks at the counters
[blocks * i + j, a + 1, s, 0], so one pass over the pending samples is one
contiguous draw of numpy's Philox; the scalar references in helpers build
one numpy Philox per attempt instead.
"""

import numpy as np
import pytest
from scipy import stats

from cp2lab import AlgebraElement, dynamics, mat_exp
from cp2lab.dynamics import _CHUNK, _ball_samples, _pass_words, _sample_points
from cp2lab.su12 import classify, tangent_line

from helpers import ball_sample, line_sample


def _same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


SEEDS = [0, 1, 2**64 - 1, 2**64 + 3, 2**128 - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", [0, 1])
def test_philox_blocks_match_numpy_stream(seed, stream):
    # the words of a pass are numpy Philox blocks at the layout's counters;
    # index 0 starts its Philox at a counter that borrows from the attempt
    # word, and the chunk-boundary and >= 2^32 indices leave gaps in the pass.
    # One bit generator and its first state serve every pass, since
    # _pass_words sets the counter and draws whole blocks
    blocks = (1, 3)[stream]
    pending = np.array([0, 1, 4, _CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 3,
                        2**32 - 1, 2**32, 2**32 + 5])
    bit_gen = np.random.Philox(key=seed)
    state = bit_gen.state
    for attempt in (0, 5):
        for part in (pending[:7], pending[3:7], pending[7:]):
            words = _pass_words(bit_gen, state, stream, blocks, attempt, part)
            assert words.shape == (4 * blocks, part.size)
            for column, i in zip(words.T, part.tolist()):
                # numpy's Philox steps its counter before each block, so it
                # starts at the word list of the counter one block earlier
                before = ([blocks * i - 1, attempt + 1, stream, 0] if i
                          else [2**64 - 1, attempt, stream, 0])
                expected = np.random.Philox(key=seed, counter=np.array(before, dtype=np.uint64)
                                            ).random_raw(4 * blocks)
                np.testing.assert_array_equal(column, expected)


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5])
def test_ball_samples_bitwise_equal_scalar_reference(seed):
    n = 5000
    got = np.empty((3, n), dtype=complex)
    _ball_samples(seed, got)
    expected = np.column_stack([ball_sample(seed, i) for i in range(n)])
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
    expected = np.column_stack([line_sample(seed, i, p_vec, dual) for i in range(n)])
    assert _same_bits(got, expected)


def test_line_samples_retry_rejected_attempts(monkeypatch):
    # at angle tolerance 0.5 about 44% of the attempts fall too close to
    # the tangent line, so many samples come from their second or later attempt
    p_vec, dual = _line_data()
    n = 500
    first_try = _sample_points(3, 0, n, p_vec, dual)
    monkeypatch.setattr(dynamics, "LINE_ANGLE_TOL", 0.5)
    got = _sample_points(3, 0, n, p_vec, dual)
    expected = np.column_stack([line_sample(3, i, p_vec, dual, angle_tol=0.5) for i in range(n)])
    assert _same_bits(got, expected)
    moved = (got != first_try).any(axis=0).sum()
    assert n // 4 < moved < n // 2 + n // 10


def test_samples_do_not_depend_on_chunking(monkeypatch):
    p_vec, dual = _line_data()
    whole = _sample_points(23, 300, 40, p_vec, dual)
    monkeypatch.setattr(dynamics, "_CHUNK", 7)
    assert _same_bits(_sample_points(23, 300, 40, p_vec, dual), whole)
