"""Orbit log-volume (entropy) field on the ordered radial chamber.

The positive roots of Sp(2n, R)/U(n) are 2 e_k and e_l -+ e_k (k < l), so

    S(sigma) = sum_alpha log sinh(alpha . sigma / 2) + n (n - 1) / 2 * log 2
             = sum_k log sinh(sigma_k) + sum_{k<l} log |cosh(sigma_k) - cosh(sigma_l)|.

S, grad S and Delta S all come from one table of the n^2 half-roots
alpha . sigma / 2 and stay finite at any sigma.  Everything here accepts
unordered (but pairwise distinct, strictly positive) coordinate vectors,
stacked as (..., n), which the work sees transposed, coordinates first.
A key identity, tested rather than assumed: Delta S + |grad S|^2 =
n (n+1) (2n+1) / 6 at every chamber point.
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateSpectrum, OutOfChamber


def _as_sigma(sigma) -> np.ndarray:
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if sigma.shape[-1] == 0:
        raise OutOfChamber("sigma must have at least one entry")
    return sigma


def _sum_lead(t: np.ndarray) -> np.ndarray:
    """Sum over the leading axis, one term after another.  Each path's sum
    is then the same however many paths share the call and however they
    are laid out, which numpy's own reduction does not promise."""
    acc = t[0]
    for i in range(1, len(t)):
        acc = acc + t[i]
    return acc


def _half_roots(x: np.ndarray) -> np.ndarray:
    """The half-roots of the coordinates x (n, ...) as one C-ordered (n, n, ...)
    table: x_j on the diagonal, (x_j - x_i) / 2 above it and (x_i + x_j) / 2
    below it, each rounded once (halving is exact), filled row by row."""
    h = np.multiply(0.5, x, order="C")
    t = np.empty((len(h),) + h.shape, h.dtype)
    for i, hi in enumerate(h):
        np.add(h[: i + 1], hi, out=t[i, : i + 1])
        np.subtract(h[i + 1 :], hi, out=t[i, i + 1 :])
    return t


def _pair_scatter(table: np.ndarray) -> np.ndarray:
    """Coordinate j of an (n, n, ...) pair table gets table[i, j] + table[j, i]
    from each partner i <= j and table[i, j] - table[j, i] from each i > j,
    summed in order of i: each root's term goes to its coordinates with its
    signs.  Row i's terms are formed in one (n, ...) buffer."""
    acc = table[0] + table[:, 0]
    row = np.empty_like(acc)
    for i in range(1, len(table)):
        np.subtract(table[i, :i], table[:i, i], out=row[:i])
        np.add(table[i, i:], table[i:, i], out=row[i:])
        acc += row
    return acc


def _entropy_raw(sigma: np.ndarray) -> np.ndarray:
    """S(sigma) without error checking; -inf on collisions.  With
    log sinh t = t - log 2 + log(1 - e^{-2t}) it is finite at any sigma."""
    x = sigma.T
    n = x.shape[0]
    t = np.abs(_half_roots(x))
    with np.errstate(divide="ignore"):
        terms = t + np.log(-np.expm1(-2.0 * t))
    return (_sum_lead(_sum_lead(terms)) - 0.5 * n * (n + 1) * np.log(2.0)).T


def _validate(sigma: np.ndarray, value: np.ndarray):
    if np.any(sigma <= 0):
        raise OutOfChamber("sigma entries must be strictly positive")
    if not np.all(np.isfinite(value)):
        raise DegenerateSpectrum("coincident sigma entries")


def entropy(sigma) -> float | np.ndarray:
    """S(sigma); float for a single coordinate vector, array for stacks."""
    sigma = _as_sigma(sigma)
    val = _entropy_raw(sigma)
    _validate(sigma, val)
    return float(val) if sigma.ndim == 1 else val


def _dyson_raw(lam: np.ndarray) -> np.ndarray:
    """Dyson drift sum_{l != k} 1 / (lambda_k - lambda_l) over the last axis
    without error checking; nonfinite entries on collisions."""
    x = lam.T
    k, l = np.triu_indices(x.shape[0], 1)
    table = np.zeros(x.shape[:1] + x.shape)
    with np.errstate(divide="ignore"):
        table[k, l] = 1.0 / (x[l] - x[k])
    return _pair_scatter(table).T


def _gradient_raw(sigma: np.ndarray) -> np.ndarray:
    """grad S = sum over the roots of coth(alpha . sigma / 2) alpha / 2,
    without error checking; nonfinite entries on collisions."""
    coth = _half_roots(sigma.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.tanh(coth, out=coth)
        np.divide(1.0, coth, out=coth)
        return (0.5 * _pair_scatter(coth)).T


def entropy_gradient(sigma) -> np.ndarray:
    """Componentwise coth(sigma_k) + sum_{l != k} sinh(sigma_k) / (cosh(sigma_k) - cosh(sigma_l))."""
    sigma = _as_sigma(sigma)
    g = _gradient_raw(sigma)
    _validate(sigma, g)
    return g


def entropy_laplacian(sigma) -> float | np.ndarray:
    """Sum of the unmixed second derivatives of S (the flat Laplacian),
    -sum_alpha |alpha/2|^2 / sinh^2(t) with |alpha/2|^2 = 1 on 2 e_k and 1/2
    on e_l -+ e_k, taken as 4 e^{-2t} / (1 - e^{-2t})^2 at t = |alpha . sigma / 2|."""
    sigma = _as_sigma(sigma)
    x = sigma.T
    t = -2.0 * np.abs(_half_roots(x))
    e = np.expm1(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.exp(t) / (e * e)
    diag = np.arange(x.shape[0])
    inv[diag, diag] *= 2.0
    val = (-2.0 * _sum_lead(_sum_lead(inv))).T
    _validate(sigma, val)
    return float(val) if sigma.ndim == 1 else val


def _log_cosh_norm_raw(sigma: np.ndarray) -> np.ndarray:
    """log sum_k cosh(sigma_k) over the last axis, without overflow, as
    m + log sum_k (e^{|sigma_k| - m} + e^{-|sigma_k| - m}) / 2, m = max |sigma_k|."""
    a = np.abs(sigma.T)
    top = np.max(a, axis=0)
    return (top + np.log(0.5 * _sum_lead(np.exp(a - top) + np.exp(-a - top)))).T


def log_cosh_norm(sigma) -> float | np.ndarray:
    """N(sigma) = log sum_k cosh(sigma_k), a smooth norm-like growth gauge."""
    sigma = _as_sigma(sigma)
    val = _log_cosh_norm_raw(sigma)
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
    n_val = _log_cosh_norm_raw(sigma)
    with np.errstate(invalid="ignore"):
        eta = np.asarray(bump(-s_val / k) * bump(n_val / big_k))
    eta = np.where(np.isfinite(eta), eta, 0.0)
    if np.any(sigma <= 0):
        eta = np.where(np.any(sigma <= 0, axis=-1), 0.0, eta)
    return float(eta) if sigma.ndim == 1 else eta
