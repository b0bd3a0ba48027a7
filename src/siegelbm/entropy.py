"""Orbit log-volume (entropy) field on the ordered radial chamber.

    S(sigma) = sum_k log sinh(sigma_k)
             + sum_{k<l} log |cosh(sigma_k) - cosh(sigma_l)|

S is permutation symmetric, so everything here accepts unordered (but
pairwise distinct, strictly positive) coordinate vectors, and works on
stacked inputs of shape (..., n).  A key identity, tested rather than
assumed: Delta S + |grad S|^2 = n (n+1) (2n+1) / 6 at every chamber point.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DegenerateSpectrum, OutOfChamber


def _as_sigma(sigma) -> np.ndarray:
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if sigma.shape[-1] == 0:
        raise OutOfChamber("sigma must have at least one entry")
    return sigma


def _sum_lead(t: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, adding the terms in the order numpy's
    pairwise sum adds one contiguous run of len(t) terms: one after another
    below 8 terms, in 8 running lanes joined as a tree up to 128, and as two
    halves cut at a multiple of 8 above.  A sum over coordinates held first
    is then bit-identical to np.sum(..., axis=-1) over the same coordinates
    held last, while each addition runs over all paths at once."""
    n = t.shape[0]
    if n < 8:
        return np.add.reduce(t, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum_lead(t[:half]) + _sum_lead(t[half:])
    r = t[:8]
    for i in range(8, n - n % 8, 8):
        r = r + t[i : i + 8]
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(n - n % 8, n):
        res = res + t[i]
    return res


@functools.lru_cache(maxsize=16)
def _upper_pairs(n: int):
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)  # shared by every caller
    return pairs


def _pair_diff(x: np.ndarray, f, odd: bool, diag: float) -> np.ndarray:
    """f(x_k - x_l) for every ordered pair (k, l) of the leading axis of x,
    as an (n, n, ...) table with the path axes innermost and diag on the
    diagonal.  f runs once per unordered pair k < l, and the pair (l, k)
    gets -f (odd) or f: x_l - x_k = -(x_k - x_l) exactly in IEEE
    arithmetic, and so are 1/(-d) = -(1/d) and |-d| = |d|.  Coincident
    entries leave exact zeros, which turn into nonfinite sums."""
    k, l = _upper_pairs(x.shape[0])
    v = f(x[k] - x[l])
    d = np.full(x.shape[:1] + x.shape, diag)
    d[k, l] = v
    d[l, k] = -v if odd else v
    return d


def _pair_sum(d: np.ndarray) -> np.ndarray:
    """Sum of an (n, n, ...) pair table over both pair axes, in row-major
    (k, l) order."""
    return _sum_lead(d.reshape(-1, *d.shape[2:]))


def _entropy_raw(sigma: np.ndarray) -> np.ndarray:
    """S(sigma) without error checking; -inf on collisions, nan off-domain."""
    x = np.moveaxis(sigma, -1, 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _sum_lead(np.log(np.sinh(x)))
        logd = _pair_diff(np.cosh(x), lambda d: np.log(np.abs(d)), False, 0.0)
        return val + 0.5 * _pair_sum(logd)


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
    """Dyson drift sum_{l != k} 1 / (lambda_k - lambda_l) over the last axis
    without error checking; nonfinite entries on collisions.  The work runs
    coordinate-first: a kernel that holds its state as (n, c) passes the
    (c, n) view state.T and gets one back."""
    with np.errstate(divide="ignore"):
        inv = _pair_diff(np.moveaxis(lam, -1, 0), lambda d: 1.0 / d, True, 0.0)
    return np.moveaxis(_sum_lead(inv.swapaxes(0, 1)), 0, -1)


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
    x = np.moveaxis(sigma, -1, 0)
    c, s = np.cosh(x), np.sinh(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = _sum_lead(-1.0 / s**2)
        # a lone coordinate has no pairs, and s^2 / inf^2 is nan once s^2 overflows
        if x.shape[0] > 1:
            d = _pair_diff(c, lambda d: d, True, np.inf)
            val = val + _pair_sum(c[:, None] / d - (s**2)[:, None] / d**2)
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
    n_val = np.log(_sum_lead(np.cosh(np.moveaxis(sigma, -1, 0))))
    with np.errstate(invalid="ignore"):
        eta = np.asarray(bump(-s_val / k) * bump(n_val / big_k))
    eta = np.where(np.isfinite(eta), eta, 0.0)
    if np.any(sigma <= 0):
        eta = np.where(np.any(sigma <= 0, axis=-1), 0.0, eta)
    return float(eta) if sigma.ndim == 1 else eta
