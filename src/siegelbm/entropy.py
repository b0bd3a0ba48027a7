"""Orbit log-volume (entropy) field on the ordered radial chamber.

    S(sigma) = sum_k log sinh(sigma_k)
             + sum_{k<l} log |cosh(sigma_k) - cosh(sigma_l)|

S is permutation symmetric, so everything here accepts unordered (but
pairwise distinct, strictly positive) coordinate vectors, and works on
stacked inputs of shape (..., n).  A key identity, tested rather than
assumed: Delta S + |grad S|^2 = n (n+1) (2n+1) / 6 at every chamber point.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum, OutOfChamber


def _as_sigma(sigma) -> np.ndarray:
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if sigma.shape[-1] == 0:
        raise OutOfChamber("sigma must have at least one entry")
    return sigma


def _pair_diff(x: np.ndarray, diag: float) -> np.ndarray:
    """x_k - x_l for every ordered pair (k, l) of the last axis, with diag on
    the diagonal: +inf where the caller sums reciprocals (1/inf = 0), 1.0
    where it sums logs (log 1 = 0).  Coincident entries leave exact zeros,
    which turn into nonfinite sums."""
    d = x[..., :, None] - x[..., None, :]
    i = np.arange(x.shape[-1])
    d[..., i, i] = diag
    return d


def _entropy_raw(sigma: np.ndarray) -> np.ndarray:
    """S(sigma) without error checking; -inf on collisions, nan off-domain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sum(np.log(np.sinh(sigma)), axis=-1)
        logd = np.log(np.abs(_pair_diff(np.cosh(sigma), 1.0)))
        return val + 0.5 * np.sum(logd, axis=(-2, -1))


def _validate(sigma: np.ndarray, value: np.ndarray):
    if np.any(sigma <= 0):
        raise OutOfChamber("sigma entries must be strictly positive")
    if not np.all(np.isfinite(value)):
        with np.errstate(over="ignore"):
            big = not np.all(np.isfinite(np.sinh(sigma) ** 2))
        msg = "cosh/sinh overflow at large sigma" if big else "coincident sigma entries"
        raise DegenerateSpectrum(msg)


def entropy(sigma) -> float | np.ndarray:
    """S(sigma); float for a single coordinate vector, array for stacks."""
    sigma = _as_sigma(sigma)
    val = _entropy_raw(sigma)
    _validate(sigma, val)
    return float(val) if sigma.ndim == 1 else val


def _dyson_raw(lam: np.ndarray) -> np.ndarray:
    """Dyson drift sum_{l != k} 1 / (lambda_k - lambda_l) without error
    checking; nonfinite entries on collisions."""
    with np.errstate(divide="ignore"):
        return np.sum(1.0 / _pair_diff(lam, np.inf), axis=-1)


def _gradient_raw(sigma: np.ndarray) -> np.ndarray:
    """grad S = coth(sigma) + sinh(sigma) * D(cosh(sigma)), with D the Dyson
    drift, without error checking; nonfinite entries on collisions."""
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 / np.tanh(sigma)
        # a lone coordinate has no pairs, and sinh * 0 is nan once sinh overflows
        if sigma.shape[-1] > 1:
            g = g + np.sinh(sigma) * _dyson_raw(np.cosh(sigma))
    return g


def entropy_gradient(sigma) -> np.ndarray:
    """Componentwise coth(sigma_k) + sum_{l != k} sinh(sigma_k) / (cosh(sigma_k) - cosh(sigma_l))."""
    sigma = _as_sigma(sigma)
    g = _gradient_raw(sigma)
    _validate(sigma, g)
    return g


def entropy_laplacian(sigma) -> float | np.ndarray:
    """Sum of the unmixed second derivatives of S (the flat Laplacian):

        sum_k [ -1/sinh^2(sigma_k)
                + sum_{l != k} ( cosh(sigma_k) / d_kl - sinh^2(sigma_k) / d_kl^2 ) ]

    with d_kl = cosh(sigma_k) - cosh(sigma_l).
    """
    sigma = _as_sigma(sigma)
    c, s = np.cosh(sigma), np.sinh(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sum(-1.0 / s**2, axis=-1)
        # a lone coordinate has no pairs, and s^2 / inf^2 is nan once s^2 overflows
        if sigma.shape[-1] > 1:
            d = _pair_diff(c, np.inf)
            term = c[..., :, None] / d - (s**2)[..., :, None] / d**2
            val = val + np.sum(term, axis=(-2, -1))
    _validate(sigma, val)
    return float(val) if sigma.ndim == 1 else val


def log_cosh_norm(sigma) -> float | np.ndarray:
    """N(sigma) = log sum_k cosh(sigma_k), a smooth norm-like growth gauge."""
    sigma = _as_sigma(sigma)
    val = np.log(np.sum(np.cosh(sigma), axis=-1))
    return float(val) if sigma.ndim == 1 else val


def bump(x) -> float | np.ndarray:
    """Smooth plateau: 1 on x <= 1, 0 on x >= 2, and on (1, 2)

        q(2 - x) / (q(2 - x) + q(x - 1)),   q(t) = exp(-1/t),

    which is C^infinity with bump(1.5) = 1/2."""
    scalar = np.asarray(x).ndim == 0
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.ones_like(arr)
    out[arr >= 2.0] = 0.0
    out[np.isnan(arr)] = np.nan
    mid = (arr > 1.0) & (arr < 2.0)
    if np.any(mid):
        t = arr[mid]
        qa = np.exp(-1.0 / (2.0 - t))
        qb = np.exp(-1.0 / (t - 1.0))
        out[mid] = qa / (qa + qb)
    return float(out[0]) if scalar else out


def cutoff_eta(sigma, k: float, big_k: float) -> float | np.ndarray:
    """Smooth well-posedness cutoff eta = bump(-S/k) * bump(N/big_k).

    Equal to one on the plateau {S >= -k, N <= big_k}; vanishes once
    S <= -2k (near chamber walls, where S -> -inf) or N >= 2 big_k
    (far out).  Off-chamber states get eta = 0 rather than an error.
    """
    if k <= 0 or big_k <= 0:
        raise ValueError("cutoff scales must be positive")
    sigma = _as_sigma(sigma)
    s_val = _entropy_raw(sigma)
    n_val = np.log(np.sum(np.cosh(sigma), axis=-1))
    with np.errstate(invalid="ignore"):
        eta = np.asarray(bump(-s_val / k) * bump(n_val / big_k))
    eta = np.where(np.isfinite(eta), eta, 0.0)
    if np.any(sigma <= 0):
        eta = np.where(np.any(sigma <= 0, axis=-1), 0.0, eta)
    return float(eta) if sigma.ndim == 1 else eta
