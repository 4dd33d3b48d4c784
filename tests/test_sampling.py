"""Basin sampling streams: the vectorised Philox against numpy's generator."""

import numpy as np
import pytest

from cp2lab import AlgebraElement, dynamics, mat_exp
from cp2lab.dynamics import _ball_samples, _philox4x64, _sample_points
from cp2lab.su12 import classify, tangent_line

from helpers import ball_sample, line_sample, sample_rng

SEEDS = [0, 1, 2**64 - 1, 2**64 + 3, 2**128 - 1]


def _same_bits(x, y):
    return np.array_equal(x.view(np.uint64), y.view(np.uint64))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("stream", [0, 1])
def test_philox_blocks_match_numpy_stream(seed, stream):
    index = np.array(list(range(300)) + [2**40], dtype=np.uint64)
    blocks = []
    for b in (1, 2, 3):
        words = _philox4x64(seed, np.full_like(index, b), np.zeros_like(index),
                            np.full_like(index, stream), index)
        blocks.append(np.stack(words, axis=1))
    got = np.concatenate(blocks, axis=1)
    for row, i in zip(got, index.tolist()):
        expected = np.random.Philox(key=seed, counter=[0, 0, stream, i]).random_raw(12)
        np.testing.assert_array_equal(row, expected)


@pytest.mark.parametrize("seed", [0, 42, 2**63 + 5])
def test_ball_samples_bitwise_equal_scalar_reference(seed):
    n = 5000
    got = np.empty((3, n), dtype=complex)
    _ball_samples(seed, got)
    expected = np.column_stack([ball_sample(sample_rng(seed, 0, i)) for i in range(n)])
    assert _same_bits(got, expected)


def _line_data():
    m = mat_exp(AlgebraElement.hyperbolic_normal(0.8, 0.3).matrix())
    p_plus = classify(m).attractive.point
    return p_plus.vector, tangent_line(p_plus).vector


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
