"""Matrix-level flow in disk coordinates.

A step from R = Q diag(mu) Q^T, mu = tanh(sigma/2), is written in the frame
Q: the moved point is R' = Q A' Q^T, built from sigma and the draws, and at
finite beta sigma' = 2 artanh(mu') takes only the singular values mu' of A'.
The frame Q reaches no sigma, and the ensemble kernel holds sigma alone.
The single-state step keeps Q; it takes sigma' and the status as the
kernel does, then factorizes A' = V diag(mu') V^T and sets Q' = Q V.

The noise drives the n^2 orbit directions at unit rate and the n radial
directions at rate sqrt(2/beta).  In the Q-frame it is the complex
symmetric G = S X S, S = diag((1 + cosh sigma)^-1/2), with X built once per
step from the draws alone (_noise_matrix), so each increment is the
congruence (Q S) X (Q S)^T.

Finite beta: one Ito-Euler step,

  A' = diag(mu) + sqrt(h) S X S + h (1/2 - 1/beta) diag(mu S^2).

At beta = 2 the radial generator is 1/8 of the radial part of the
Laplace-Beltrami operator on Sp(2n, R)/U(n) (Helgason, Groups and Geometric
Analysis, ch. II), so the matrix process is Brownian motion on the Siegel
disk.  The disk is Kaehler, so in R that motion has no drift.  Another beta
adds (1/beta - 1/2) times the sum of the squared radial fields, whose drift
(1/4 - 1/(2 beta)) (R - R conj(R) R) is a polynomial in R; in the frame it
is the diagonal above, with mu (1 - mu^2) = 2 mu S^2 and no 1 - mu^2
cancellation, so the step needs no entropy gradient.  By Weyl's
inequality each singular value moves by at most |sqrt(h) S X S| + O(h),
whatever the gaps, and a singular value is never negative: a path that
meets a chamber wall is reflected by it.

beta = inf: the orbits O_lambda move by minus half their mean curvature, so
sigma is deterministic, d sigma = (1/2) grad S dt.  There X_kk = i xi_U is
purely imaginary, so S X S is tangent to the U(n)-orbit of diag(mu) and
cannot move sigma; the singular values of the Ito step would spread each
path like sqrt(h), since it cancels the orbit noise's radial part in the
mean only.  So sigma takes the mean-curvature step
sigma' = sigma + (h/2) grad S from the entropy gradient, with the
operations in ParticleKernel._step's order: the matrix ensemble's sigma is
the particle scheme's to the bit.  The kernel builds no A' there; it still
draws n^2 + n normals per step and does not read them, so the gaussian
layout and the noise streams are the same at every beta.  The single-state
step builds A' as above, with drift coefficient 1/2, for its frame only.

The singular values of A' (linalg._singular_values) are the closed form of
A' itself at n = 2, which keeps mu_1's relative accuracy at the chamber
wall, and above it the square roots of LAPACK's eigvalsh of A'^H A', with no
eigenvectors.  Stacked products go through linalg._matmul: a batched matmul
above n = 3, and at n <= 3 an elementwise sum over the inner index, which
skips numpy's per-matrix BLAS call.  A finite-beta step takes one, A'^H A'
at n >= 3, and a beta = inf step none.  A step is rejected when its moved
point leaves the disk (some singular value reaching one) or the ordered
chamber (sigma gap at or below the floor); at beta = inf both tests read
sigma'.

Layout: the state and every array of a step are path-last, sigma as
(n, paths) and matrices as (n, n, paths), and the draws are read transposed,
as in the radial kernels.  The state and the arrays a step allocates are
C-ordered at every n, so each elementwise numpy call of a step, a 2x2
product included, is one contiguous loop over the paths; path-major, numpy
would run it as one loop of length n per path, and per-call overhead, not
arithmetic, would bound the step.  matmul and eigvalsh take the stacks in
whatever order they come.

Gaussian layout per step (n^2 + n draws): first the n diagonal orbit
directions, then the two off-diagonal families in lexicographic (k, l)
order, and the final n draws drive the radial directions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ensemble as ens
from .config import SimConfig
from .entropy import _gradient_raw, entropy_gradient
from .errors import OutOfChamber
from .geometry import _DOMAIN_EDGE, SpectralCoord, _disk_sigma, in_chamber
from .linalg import (
    _ELEMENTWISE_MAX_N,
    TakagiFactors,
    _matmul,
    _singular_values,
    _takagi_batch,
    unitary_algebra_basis,
    unitary_exp,
)


@dataclass
class MatrixFlowState:
    """Disk point with cached factorization; sigma_cache ascending."""

    r: np.ndarray
    sigma_cache: np.ndarray
    q_cache: np.ndarray
    t: float = 0.0


def init_matrix_state(sigma0, q0=None, t: float = 0.0) -> MatrixFlowState:
    sigma0 = np.asarray(getattr(sigma0, "sigma", sigma0), dtype=float)
    if not in_chamber(sigma0, 0.0):
        raise OutOfChamber("sigma0 must be strictly positive and ascending")
    q = np.eye(sigma0.size, dtype=complex) if q0 is None else np.asarray(q0, dtype=complex)
    factors = TakagiFactors(q, np.tanh(0.5 * sigma0))  # q square, matching and unitary
    return MatrixFlowState(r=factors.reconstruct(), sigma_cache=sigma0, q_cache=q, t=t)


@lru_cache(maxsize=None)
def _noise_index(n: int) -> np.ndarray:
    """Read-only (n, n) map from each entry of X to its value's row in
    _noise_matrix: the n diagonal values, then the n(n-1)/2 upper ones in
    lexicographic (k, l) order, shared by (k, l) and (l, k)."""
    index = np.empty((n, n), dtype=np.intp)
    index[np.arange(n), np.arange(n)] = np.arange(n)
    ks, ls = np.triu_indices(n, 1)
    index[ks, ls] = index[ls, ks] = n + np.arange(ks.size)
    index.flags.writeable = False
    return index


def _noise_matrix(xi: np.ndarray, n: int, beta: float) -> np.ndarray:
    """The sigma-free factor X of the per-step noise G = S X S in the
    Q-frame, S = diag((1 + cosh sigma)^-1/2), path-last (n, n, paths) from
    one row of draws per path: complex symmetric with

        X_kk = sqrt(2/beta) xi_L_k + i xi_U_k
        X_kl = (xi_2 + i xi_1) / sqrt(2)

    so that sum_alpha c_alpha V_alpha xi_alpha = Q G Q^T = (Q S) X (Q S)^T.
    The draws are read transposed, one row per noise field, and the
    n + n(n-1)/2 distinct values are placed by one take (_noise_index)."""
    p = n * (n - 1) // 2
    xt = np.ascontiguousarray(xi.T)
    vals = np.empty((n + p, xi.shape[0]), complex)
    vals[:n] = ens._noise_coef(beta) * xt[n * n :] + 1j * xt[:n]
    vals[n:] = (xt[n + p : n + 2 * p] + 1j * xt[n : n + p]) / np.sqrt(2.0)
    return vals.take(_noise_index(n), 0)


# No step calls it; it goes when bench/child.py stops wrapping it by name.
def _congruence(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _matmul(_matmul(q, g), q.swapaxes(0, 1))


def _moved_point(sig: np.ndarray, h, xi: np.ndarray, beta: float) -> np.ndarray:
    """The moved point A' in the base frame, exactly symmetric, from
    path-last sigma (n, paths): the Ito-Euler step at every beta."""
    n = sig.shape[0]
    s2 = 1.0 / (1.0 + np.cosh(sig))
    s = np.sqrt(s2)
    mu = np.tanh(0.5 * sig)
    # sqrt(h) S X S in X's memory, the products s_k s_l formed first so
    # that a is symmetric to the bit, then diag(mu) and the drift
    # h (1/2 - 1/beta) diag(mu S^2)
    a = _noise_matrix(xi, n, beta)
    a *= np.sqrt(h) * (s[:, None] * s)
    a[np.arange(n), np.arange(n)] += mu + (h * (0.5 - 1.0 / beta)) * mu * s2
    return a


def _step(sig: np.ndarray, h, xi: np.ndarray, beta: float, floor: float, a=None):
    """sigma' and each path's status from path-last sigma (n, paths): at
    finite beta from the singular values of the moved point a (built here
    unless given), at beta = inf from the mean-curvature step, which reads
    neither a nor the draws."""
    if np.isinf(beta):
        # S X S cannot move sigma (module docstring): sig_new =
        # sig + (1/2) grad S * h, in ParticleKernel._step's order
        sig_new = _gradient_raw(sig.T).T
        sig_new *= 0.5
        sig_new *= h
        sig_new += sig
        top = np.tanh(0.5 * sig_new[-1])
    else:
        mu_new = _singular_values(_moved_point(sig, h, xi, beta) if a is None else a)
        top = mu_new[-1]
        sig_new = 2.0 * np.arctanh(np.clip(mu_new, 0.0, 1.0 - 1e-13))
    status = np.full(sig.shape[1], ens.OK, dtype=np.int64)
    status[~in_chamber(sig_new.T, floor)] = ens.REJECT_CHAMBER
    status[~(top < 1.0 - _DOMAIN_EDGE)] = ens.REJECT_DOMAIN
    return sig_new, status


class MatrixKernel(ens._Kernel):
    """Batched disk-coordinate stepping of sigma on the ensemble's kernel
    protocol.  The frame Q of R = Q diag(tanh(sigma/2)) Q^T reaches no
    sigma, so it is not held.  Above _ELEMENTWISE_MAX_N a finite-beta step's
    time is in LAPACK eigvalsh and BLAS matmul, which release the
    interpreter lock; up to it, in short path-last numpy calls that hold it.
    At beta = inf the step is the particle scheme's mean-curvature step."""

    def __init__(self, sigma0, beta: float, gap_floor: float):
        super().__init__(sigma0, beta, gap_floor)
        n = self.obs_dim
        self.beta = beta
        self.noise_dim = n * n + n
        self.releases_gil = n > _ELEMENTWISE_MAX_N

    def _step(self, sig, h, xi):
        return _step(sig, h, xi, self.beta, self.floor)


def step_matrix_flow(
    state: MatrixFlowState, beta: float, h: float, gaussians, gap_floor: float = 1e-6
) -> MatrixFlowState:
    """One step for a single state (module docstring).

    sigma' and the status come from the ensemble kernel's step; the frame
    then moves by the Takagi frame V of the moved point, Q' = Q V, at every
    beta, so R moves on its orbit at beta = inf too.
    gaussians must hold n^2 + n draws in the documented layout (ValueError
    otherwise).  Raises ChamberExit when sigma' violates ordering or the gap
    floor, DomainExit when tanh(sigma'_n / 2) reaches the disk boundary.
    """
    n = state.sigma_cache.size
    xi = ens.check_gaussians(gaussians, n * n + n)
    sig, xi = state.sigma_cache[:, None], xi[None]
    a = _moved_point(sig, h, xi, beta)
    sig_new, status = _step(sig, h, xi, beta, gap_floor, a)
    ens.raise_rejection(int(status[0]))
    v = _takagi_batch(a[..., 0])[0]
    return init_matrix_state(sig_new[:, 0], state.q_cache @ v, state.t + h)


def extract_sigma(state) -> SpectralCoord:
    """Radial coordinates of a state (or raw disk matrix) from the
    Hermitian spectrum of R conj(R); cross-checked against the cached
    sigma when one is present (1e-8)."""
    cached = isinstance(state, MatrixFlowState)
    sigma = _disk_sigma(state.r if cached else np.asarray(state, complex))
    if cached and np.max(np.abs(sigma - state.sigma_cache)) > 1e-8:
        raise ValueError("cached sigma inconsistent with spectrum")
    return SpectralCoord(sigma=sigma)


def simulate_matrix_paths(cfg: SimConfig, threads: int = 1) -> ens.PathEnsemble:
    if cfg.scheme != "matrix":
        raise ValueError(f"not a matrix-scheme config: {cfg.scheme}")
    kernel = MatrixKernel(cfg.sigma0, cfg.beta, cfg.gap_floor)
    return ens.run_ensemble(cfg, kernel, threads=threads)


def step_takagi_chart(sigma, q, beta: float, h: float, gaussians):
    """Cross-validation step in factorized coordinates (sigma, Q).

    sigma moves by Euler-Maruyama with the radial drift; Q moves by the
    exponential of the assembled anti-Hermitian rotation whose rates are
    set by the orbit-direction normalizations:

        1/(2 sinh sigma_k)            diagonal generators
        1/(2 sinh((sigma_k+sigma_l)/2))  symmetric off-diagonal
        1/(2 sinh((sigma_k-sigma_l)/2))  antisymmetric off-diagonal

    Uses the same gaussian layout as the disk stepper; the rotation part
    is first-order accurate, which leaves the radial law untouched.
    """
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    q = np.asarray(q, dtype=complex)
    n = sigma.size
    xi = ens.check_gaussians(gaussians, n * n + n)
    noise = ens._noise_coef(beta) * np.sqrt(h) * xi[n * n :]
    sig_new = sigma + 0.5 * h * entropy_gradient(sigma) + noise
    ks, ls = np.triu_indices(n, 1)
    rates = np.concatenate(
        [
            1.0 / (2.0 * np.sinh(sigma)),
            1.0 / (2.0 * np.sinh(0.5 * (sigma[ks] + sigma[ls]))),
            1.0 / (2.0 * np.sinh(0.5 * (sigma[ks] - sigma[ls]))),
        ]
    )
    basis = unitary_algebra_basis(n)
    a = np.sqrt(h) * np.einsum("i,iab->ab", xi[: n * n] * rates, np.stack(basis))
    return sig_new, q @ unitary_exp(a)
