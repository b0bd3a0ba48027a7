"""Tests for the chamber entropy field and the smooth cutoff."""
import warnings

import numpy as np
import pytest

from siegelbm import (
    DegenerateSpectrum,
    OutOfChamber,
    bump,
    cutoff_eta,
    entropy,
    entropy_gradient,
    entropy_laplacian,
    log_cosh_norm,
)


def _chamber_points(rng, n, count):
    gaps = rng.uniform(0.15, 0.6, size=(count, n))
    return np.cumsum(gaps, axis=1) + rng.uniform(0.05, 0.3, size=(count, 1))


def test_entropy_value():
    # log sinh(1) + log sinh(2) + log(cosh(2) - cosh(1))
    assert abs(entropy(np.array([1.0, 2.0])) - 2.246915227295635) < 1e-13


def test_entropy_single():
    assert abs(entropy(np.array([1.0])) - np.log(np.sinh(1.0))) < 1e-14


def test_entropy_permutation_invariant():
    rng = np.random.default_rng(2)
    sig = _chamber_points(rng, 4, 1)[0]
    perm = rng.permutation(4)
    assert abs(entropy(sig) - entropy(sig[perm])) < 1e-12


def test_entropy_errors():
    with pytest.raises(OutOfChamber):
        entropy(np.array([-0.5, 1.0]))
    with pytest.raises(DegenerateSpectrum):
        entropy(np.array([1.0, 1.0]))


def test_gradient_value():
    g = entropy_gradient(np.array([1.0, 2.0]))
    np.testing.assert_allclose(
        g, [0.7834542751212608, 2.6716871240881305], atol=1e-12
    )


def test_gradient_finite_difference():
    rng = np.random.default_rng(13)
    eps = 1e-6
    for n in (1, 2, 4):
        for sig in _chamber_points(rng, n, 10):
            g = entropy_gradient(sig)
            for k in range(n):
                e = np.zeros(n)
                e[k] = eps
                fd = (entropy(sig + e) - entropy(sig - e)) / (2 * eps)
                assert abs(fd - g[k]) < 1e-5 * max(1.0, abs(g[k]))


def test_gradient_permutation_covariant():
    rng = np.random.default_rng(29)
    sig = _chamber_points(rng, 5, 1)[0]
    perm = rng.permutation(5)
    np.testing.assert_allclose(
        entropy_gradient(sig)[perm], entropy_gradient(sig[perm]), atol=1e-12
    )


def test_laplacian_gradient_identity():
    # Delta S + |grad S|^2 is the constant 1^2 + ... + n^2 on the chamber
    rng = np.random.default_rng(37)
    for n, c_n in ((1, 1.0), (2, 5.0), (3, 14.0), (4, 30.0)):
        for sig in _chamber_points(rng, n, 50):
            g = entropy_gradient(sig)
            val = entropy_laplacian(sig) + np.sum(g * g)
            assert abs(val - c_n) < 1e-8 * c_n


def test_laplacian_finite_difference():
    rng = np.random.default_rng(41)
    eps = 1e-4
    sig = _chamber_points(rng, 3, 1)[0]
    fd = 0.0
    for k in range(3):
        e = np.zeros(3)
        e[k] = eps
        fd += (entropy(sig + e) - 2 * entropy(sig) + entropy(sig - e)) / eps**2
    assert abs(fd - entropy_laplacian(sig)) < 1e-5 * max(1.0, abs(fd))


def test_batched_shapes():
    rng = np.random.default_rng(43)
    sig = _chamber_points(rng, 3, 7)
    assert entropy(sig).shape == (7,)
    assert entropy_gradient(sig).shape == (7, 3)
    assert entropy_laplacian(sig).shape == (7,)
    for i in range(7):
        assert abs(entropy(sig)[i] - entropy(sig[i])) < 1e-12


def test_log_cosh_norm():
    sig = np.array([1.0, 2.0])
    expect = np.log(np.cosh(1.0) + np.cosh(2.0))
    assert abs(log_cosh_norm(sig) - expect) < 1e-14


def test_bump_plateau():
    assert bump(0.5) == 1.0
    assert bump(1.0) == 1.0
    assert bump(2.0) == 0.0
    assert bump(3.0) == 0.0
    assert abs(bump(1.5) - 0.5) < 1e-15
    xs = np.linspace(1.0, 2.0, 101)
    vals = bump(xs)
    assert np.all(np.diff(vals) <= 1e-15)  # nonincreasing across the ramp
    assert vals[1] > 0.99 and vals[-2] < 0.01


def test_cutoff_eta_plateau_and_walls():
    # interior point far from walls: eta = 1 for generous scales
    assert cutoff_eta(np.array([1.0, 2.0]), 50.0, 50.0) == 1.0
    # collision gives S = -inf which must map to zero, not an error
    assert cutoff_eta(np.array([1.0, 1.0]), 50.0, 50.0) == 0.0
    # off-chamber state maps to zero
    assert cutoff_eta(np.array([-1.0, 2.0]), 50.0, 50.0) == 0.0
    # far-out states are suppressed by the norm factor
    assert cutoff_eta(np.array([80.0, 160.0]), 50.0, 50.0) == 0.0
    with pytest.raises(ValueError):
        cutoff_eta(np.array([1.0]), -1.0, 50.0)


def test_cutoff_eta_intermediate():
    # a close pair lowers S below -k but above -2k: eta strictly inside (0, 1)
    sig = np.array([1.0, 1.0 + 1e-9])
    s_val = entropy(sig)
    k = -s_val / 1.5  # places -S/k = 1.5 mid-ramp
    val = cutoff_eta(sig, k, 50.0)
    assert 0.0 < val < 1.0


def test_log_cosh_norm_and_cutoff_at_large_sigma():
    sig = np.array([800.0, 1000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = log_cosh_norm(sig)
        eta = cutoff_eta(sig, 50.0, 50.0)
        stacked = log_cosh_norm(np.array([[1.0, 2.0], [999.0, 1000.0]]))
    # log(cosh 800 + cosh 1000) = 1000 - log 2 + log1p(e^-200 + ...)
    assert val == pytest.approx(1000.0 - np.log(2.0), rel=1e-15)
    assert eta == 0.0
    assert stacked[0] == pytest.approx(np.log(np.cosh(1.0) + np.cosh(2.0)), rel=1e-15)
    assert stacked[1] == pytest.approx(1000.0 - np.log(2.0) + np.log1p(np.exp(-1.0)), rel=1e-15)
