"""The pair-table entropy layer against the mask-based formulas it replaced.

The four reference functions below are the earlier implementations, kept
verbatim as oracles: every finite output must match them bit for bit, and
exact collisions must give nonfinite values in the same places."""
import importlib

import numpy as np
import pytest

from siegelbm import DegenerateSpectrum, OutOfChamber, dyson_drift
from siegelbm.entropy import (
    _as_sigma,
    _dyson_raw,
    _entropy_raw,
    _gradient_raw,
    entropy_gradient,
    entropy_laplacian,
)

# the package root exports a function named entropy, which shadows the module
entropy_mod = importlib.import_module("siegelbm.entropy")


def _validate(sigma, value):
    entropy_mod._validate(sigma, value)


def _offdiag_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def reference_entropy_raw(sigma: np.ndarray) -> np.ndarray:
    """S(sigma) without error checking; -inf on collisions, nan off-domain."""
    n = sigma.shape[-1]
    c = np.cosh(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sum(np.log(np.sinh(sigma)), axis=-1)
        if n > 1:
            diff = np.abs(c[..., :, None] - c[..., None, :])
            logd = np.where(_offdiag_mask(n), np.log(np.where(diff > 0, diff, 1.0)), 0.0)
            logd = np.where(_offdiag_mask(n) & (diff == 0), -np.inf, logd)
            val = val + 0.5 * np.sum(logd, axis=(-2, -1))
    return val


def reference_gradient_raw(sigma: np.ndarray) -> np.ndarray:
    """grad S without error checking; nan entries on collisions."""
    n = sigma.shape[-1]
    c, s = np.cosh(sigma), np.sinh(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 / np.tanh(sigma)
        if n > 1:
            diff = c[..., :, None] - c[..., None, :]
            inv = np.where(_offdiag_mask(n), 1.0 / np.where(diff != 0, diff, np.inf), 0.0)
            bad = _offdiag_mask(n) & (diff == 0)
            inv = np.where(bad, np.nan, inv)
            g = g + s * np.sum(inv, axis=-1)
    return g


def reference_entropy_laplacian(sigma) -> float | np.ndarray:
    """Sum of the unmixed second derivatives of S (the flat Laplacian):

        sum_k [ -1/sinh^2(sigma_k)
                + sum_{l != k} ( cosh(sigma_k) / d_kl - sinh^2(sigma_k) / d_kl^2 ) ]

    with d_kl = cosh(sigma_k) - cosh(sigma_l).
    """
    sigma = _as_sigma(sigma)
    n = sigma.shape[-1]
    c, s = np.cosh(sigma), np.sinh(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sum(-1.0 / s**2, axis=-1)
        if n > 1:
            diff = c[..., :, None] - c[..., None, :]
            safe = np.where(diff != 0, diff, np.inf)
            term = c[..., :, None] / safe - (s**2)[..., :, None] / safe**2
            term = np.where(_offdiag_mask(n), term, 0.0)
            term = np.where(_offdiag_mask(n) & (diff == 0), np.nan, term)
            val = val + np.sum(term, axis=(-2, -1))
    _validate(sigma, val)
    return float(val) if sigma.ndim == 1 else val


def reference_dyson_raw(lam: np.ndarray) -> np.ndarray:
    """Dyson drift without error checking; coincident pairs contribute zero."""
    n = lam.shape[-1]
    diff = lam[..., :, None] - lam[..., None, :]
    mask = ~np.eye(n, dtype=bool)
    inv = np.where(mask, 1.0 / np.where(diff != 0, diff, np.inf), 0.0)
    return np.sum(inv, axis=-1)


@pytest.fixture
def unvalidated(monkeypatch):
    """Both Laplacians return their raw values, nonfinite ones included."""
    monkeypatch.setattr(entropy_mod, "_validate", lambda sigma, value: None)


def _pairs(sigma):
    """(new, reference) outputs of the four formulas at the stacked points."""
    with np.errstate(over="ignore"):
        return [
            (_entropy_raw(sigma), reference_entropy_raw(sigma)),
            (_gradient_raw(sigma), reference_gradient_raw(sigma)),
            (entropy_laplacian(sigma), reference_entropy_laplacian(sigma)),
            (_dyson_raw(np.cosh(sigma)), reference_dyson_raw(np.cosh(sigma))),
        ]


def _assert_same_finite(new, ref):
    """Finite outputs bit-identical; nonfinite ones in the same places."""
    fin = np.isfinite(ref)
    np.testing.assert_array_equal(np.isfinite(new), fin)
    np.testing.assert_array_equal(new[fin], ref[fin])


def _chamber(rng, n, count, top):
    """Ascending points in (0, top]: log-uniform gaps down to 1e-12,
    placed anywhere from the origin to the top."""
    gaps = 10.0 ** rng.uniform(-12.0, 0.5, size=(count, n))
    sig = np.cumsum(gaps, axis=1)
    lead = rng.uniform(0.0, 1.0, size=(count, 1)) * (top - sig[:, -1:])
    return sig + np.maximum(lead, 1e-3)


@pytest.mark.parametrize("n", range(1, 9))
def test_finite_outputs_match_the_mask_formulas(n, unvalidated):
    rng = np.random.default_rng(100 + n)
    sig = np.concatenate([_chamber(rng, n, 200, top) for top in (3.0, 30.0, 350.0, 700.0)])
    assert np.all(np.diff(sig, axis=-1) > 0) and np.all(sig > 0)
    assert sig.max() > 600.0 and (n == 1 or np.diff(sig, axis=-1).min() < 1e-11)
    for new, ref in _pairs(sig):
        _assert_same_finite(new, ref)
        assert np.isfinite(ref).sum() > 0
    # the bulk of the near-origin points is finite for every formula
    for new, ref in _pairs(sig[:200]):
        assert np.isfinite(ref).mean() > 0.9
        np.testing.assert_array_equal(new, ref)


@pytest.mark.parametrize("n", range(2, 9))
def test_collisions_are_nonfinite_in_the_same_places(n, unvalidated):
    rng = np.random.default_rng(200 + n)
    sig = _chamber(rng, n, 50, 10.0)
    k = rng.integers(0, n - 1, size=50)
    rows = np.arange(50)
    sig[rows, k + 1] = sig[rows, k]  # one exact collision per row
    for new, ref in _pairs(sig)[:3]:
        _assert_same_finite(new, ref)
        assert not np.isfinite(ref).all()
    grad = _gradient_raw(sig)
    assert not np.isfinite(grad[rows, k]).any() and not np.isfinite(grad[rows, k + 1]).any()


def test_dyson_collisions_are_nonfinite_and_refused():
    lam = np.array([[0.5, 0.5, 2.0], [-1.0, 0.0, 3.0]])
    d = _dyson_raw(lam)
    np.testing.assert_array_equal(np.isfinite(d), [[False, False, True], [True, True, True]])
    np.testing.assert_array_equal(d[1], reference_dyson_raw(lam[1]))
    with pytest.raises(OutOfChamber):
        dyson_drift(lam)


@pytest.mark.parametrize("n", [1, 3])
def test_dyson_drift_matches_the_mask_formula(n):
    lam = np.random.default_rng(300 + n).standard_normal((40, n)).cumsum(axis=-1)
    np.testing.assert_array_equal(dyson_drift(lam), reference_dyson_raw(lam))


@pytest.mark.parametrize("sigma", [400.0, 700.0, 800.0])
def test_single_coordinate_stays_finite_where_sinh_overflows(sigma):
    with np.errstate(over="ignore"):
        grad = entropy_gradient([sigma])
        lap = entropy_laplacian([sigma])
        np.testing.assert_array_equal(grad, reference_gradient_raw(np.array([sigma])))
        assert lap == reference_entropy_laplacian([sigma])
    if sigma == 800.0:
        np.testing.assert_array_equal(grad, [1.0])
        assert np.isfinite(lap)


def test_two_coordinates_overflowing_stay_refused():
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateSpectrum):
            entropy_gradient([1.0, 800.0])
        with pytest.raises(DegenerateSpectrum):
            entropy_laplacian([1.0, 400.0])
