import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from sstkalman.channel import (
    DB_GRID,
    ReceivedSequence,
    bpsk_map,
    grid_points,
    make_rng,
    q_function,
    snr_point,
    standard_normals,
    transmit,
)


def test_q_function_matches_scipy():
    xs = np.linspace(-6, 6, 41)
    assert_allclose([q_function(x) for x in xs], norm.sf(xs), rtol=0, atol=1e-14)


def test_snr_point_anchors():
    p0 = snr_point(0.0)
    assert_allclose(p0.rho, 1.0)
    assert_allclose(p0.c, 1.0)
    assert_allclose(p0.epsilon, 0.15865525393145707, atol=1e-12)
    p2 = snr_point(2.0)
    assert_allclose(p2.epsilon, 0.104028637, atol=1e-9)
    p10 = snr_point(10.0)
    assert_allclose(p10.rho, 10.0)


def test_grid_points_default():
    pts = grid_points()
    assert len(pts) == 21
    assert [p.ebn0_db for p in pts] == list(DB_GRID)
    assert pts[0].ebn0_db == -10 and pts[-1].ebn0_db == 10


def test_bpsk_map():
    assert_allclose(bpsk_map([0, 1, 0]), [1.0, -1.0, 1.0])
    with pytest.raises(ValueError):
        bpsk_map([0, 2])


def test_received_sequence_hard_decisions():
    z = np.array([[0.3, -0.2], [-1.5, 0.0]])
    rs = ReceivedSequence(z)
    assert rs.z_hard.tolist() == [[0, 1], [1, 0]]
    assert len(rs) == 2


def test_transmit_deterministic_per_seed():
    y = np.zeros((64, 2), dtype=np.uint8)
    pt = snr_point(0.0)
    a = transmit(y, pt, seed=42)
    b = transmit(y, pt, seed=42)
    c = transmit(y, pt, seed=43)
    assert np.array_equal(a.z, b.z)
    assert not np.array_equal(a.z, c.z)


def test_transmit_crossover_rate():
    n = 200_000
    pt = snr_point(0.0)
    y = np.zeros((n, 2), dtype=np.uint8)
    rs = transmit(y, pt, seed=7)
    flips = rs.z_hard.mean()
    se = math.sqrt(pt.epsilon * (1 - pt.epsilon) / (2 * n))
    assert abs(flips - pt.epsilon) < 4 * se


def test_transmit_signal_sign():
    # without noise dominance, the mean of z tracks the mapped symbol
    n = 100_000
    pt = snr_point(10.0)
    y = np.ones((n, 2), dtype=np.uint8)
    rs = transmit(y, pt, seed=1)
    assert rs.z.mean() < -2.0


def test_standard_normals_moments():
    gen = make_rng(123)
    w = standard_normals(gen, 1_000_000)
    assert abs(w.mean()) < 4e-3
    assert abs(w.std() - 1.0) < 4e-3
    # deterministic restart
    w2 = standard_normals(make_rng(123), 1_000_000)
    assert np.array_equal(w, w2)


def test_standard_normals_are_ndtri_of_mid_interval_uniforms():
    from scipy.special import ndtri

    u = (make_rng(123).integers(0, 1 << 53, size=8, dtype=np.uint64) + 0.5) / float(1 << 53)
    assert np.array_equal(standard_normals(make_rng(123), 8), ndtri(u))


class FixedWords:
    """A generator stub whose integers(0, 2^53) are the given words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        assert (low, high, size, dtype) == (0, 1 << 53, self.words.shape, np.uint64)
        return self.words.copy()


def test_standard_normals_keep_the_top_word_finite():
    from scipy.special import ndtri

    # (2^53 - 1) + 0.5 rounds up to 2^53, so u would be 1.0 and ndtri +inf;
    # it takes 1 - 2^-53, the largest double below 1, and no other word moves
    words = [2**53 - 1, 2**53 - 2, 2**52 + 1, 0]
    got = standard_normals(FixedWords(words), (4,))
    assert np.isfinite(got).all()
    assert got[0] == ndtri(1.0 - 2.0**-53) > got[1]
    assert np.array_equal(got[1:], ndtri((np.array(words[1:], dtype=np.uint64) + 0.5) / 2.0**53))


def test_make_rng_tuple_seeds_differ():
    a = make_rng((5, 1)).random(8)
    b = make_rng((5, 2)).random(8)
    assert not np.array_equal(a, b)


def test_make_rng_keys_tuples_past_int64_exactly():
    # a float64 key would round 2^63 + 1 to 2^63, and 2^64 - 1 up out of range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = [make_rng((s, 1)).bit_generator.random_raw(4).tolist()
                 for s in (2**63, 2**63 + 1, 2**64 - 1)]
    assert len({tuple(w) for w in words}) == 3
    # below 2^63 the key is numpy's own reading of the tuple
    assert make_rng((2**62, 2)).bit_generator.random_raw(4).tolist() == \
        np.random.Philox(key=(2**62, 2)).random_raw(4).tolist()
