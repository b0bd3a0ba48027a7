"""Matrix-level flow in disk coordinates.

A step from R = Q diag(mu) Q^T, mu = tanh(sigma/2), is written in the frame
Q: the moved point is R' = Q A' Q^T, so sigma' = 2 artanh(mu') takes only
the singular values mu' of A', which is built from sigma and the draws.
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
cancellation.  The step needs no entropy gradient, no predictor and no
second congruence.  By Weyl's inequality each singular value moves by at
most |sqrt(h) S X S| + O(h), whatever the gaps, and a singular value is
never negative: a path that meets a chamber wall is reflected by it.

beta = inf: sigma is deterministic there, and the Ito step would spread
each path like sqrt(h), since it cancels the orbit noise's radial part in
the mean only.  So the step is Stratonovich Heun for the orbit noise plus
the radial correction it produces, an explicit Euler term
h diag(S^2 grad S / 2) with grad S the entropy gradient.  The corrector
needs the predicted point's frame and sigma* only to first order, so they
come from a first-order Takagi perturbation of diag(mu) rather than a
second factorization (_predict).  With the predictor's move written in the
frame, E = sqrt(h) S X S (complex symmetric):

  mu*_k = mu_k + Re E_kk
  u     = diag(e^{i theta}) + K,   theta_k = Im E_kk / (2 mu_k),
          K_kl = Re E_kl / (mu_l - mu_k) + i Im E_kl / (mu_l + mu_k)  (k != l)

u lies on the identity's sign sheet by construction.  A row whose largest
off-diagonal |K_kl| reaches _FIRST_ORDER_MAX (a near-collision, where first
order breaks down) falls back to the full factorization of diag(mu) + E
and takes its frame as u, each column's sign set so that Re u_jj >= 0.
The corrected point in the frame is

  A' = diag(mu) + (sqrt(h)/2) (S X S + (u S*) X (u S*)^T) + h diag(S^2 grad S / 2),

with S* = diag((1 + cosh sigma*)^-1/2), symmetrized.

The singular values of A' (linalg._singular_values) are the closed form of
A' itself at n = 2, which keeps mu_1's relative accuracy at the chamber
wall, and above it the square roots of LAPACK's eigvalsh of A'^H A', with no
eigenvectors.  Stacked products go through linalg._matmul: a batched matmul
above n = 3, and at n <= 3 an elementwise sum over the inner index, which
skips numpy's per-matrix BLAS call.  At finite beta the only one is A'^H A'
at n >= 3; the Heun step adds the corrector's (u S*) X (u S*)^T.  A step
is rejected when its moved point leaves the disk (some singular value
reaching one) or the ordered chamber (sigma gap at or below the floor); the
Heun step also rejects a predicted point that leaves the disk.

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

# Largest off-diagonal predictor rotation |K_kl| taken from first order; rows
# at or past it are factorized exactly (see _predict).
_FIRST_ORDER_MAX = 0.25


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


def _congruence(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    return _matmul(_matmul(q, g), q.swapaxes(0, 1))


def _chart(mu: np.ndarray):
    """Whether each path's singular values (n, paths) stay clear of the disk
    edge, and sigma = 2 artanh(mu)."""
    return mu[-1] < 1.0 - _DOMAIN_EDGE, 2.0 * np.arctanh(np.clip(mu, 0.0, 1.0 - 1e-13))


def _predict(sig: np.ndarray, e: np.ndarray):
    """In-frame rotation u, disk-edge flag and sigma of the path-last stack
    of moved points diag(mu) + e, mu = tanh(sig/2) and e complex symmetric,
    from the first-order Takagi perturbation in the module docstring.  Paths
    whose off-diagonal rotation reaches _FIRST_ORDER_MAX factorize the moved
    point exactly instead and take its frame, each column's sign set so that
    Re u_jj >= 0; every u is on the identity's sign sheet."""
    n = sig.shape[0]
    diag = np.arange(n)
    off = ~np.eye(n, dtype=bool)[..., None]
    mu = np.tanh(0.5 * sig)
    ed = e.diagonal(axis1=0, axis2=1).T
    lo = mu - mu[:, None]  # mu_l - mu_k at [k, l]
    hi = mu + mu[:, None]
    # |K_kl| < _FIRST_ORDER_MAX, multiplied out so that equal mu fail it
    # instead of dividing by zero
    small = (e.real * hi) ** 2 + (e.imag * lo) ** 2 < (_FIRST_ORDER_MAX * lo * hi) ** 2
    first = np.all(small | ~off, axis=(0, 1))
    u = np.empty_like(e)
    np.divide(e.real, np.where(small & off, lo, 1.0), out=u.real)
    np.divide(e.imag, hi, out=u.imag)
    u[diag, diag] = np.exp(0.5j * ed.imag / mu)
    dom_ok, sig_star = _chart(mu + ed.real)
    far = np.flatnonzero(~first)
    if far.size:
        moved = e.take(far, -1)
        moved[diag, diag] += mu[:, far]
        v, mu_far = _takagi_batch(moved)  # column signs not fixed
        dom_ok[far], sig_star[:, far] = _chart(mu_far)
        u[..., far] = v * np.where(v.diagonal(axis1=0, axis2=1).T.real < 0, -1.0, 1.0)
    return u, dom_ok, sig_star


def _step(sig: np.ndarray, h, xi: np.ndarray, beta: float, floor: float):
    """The moved point A' in the base frame (exactly symmetric), sigma' from
    its singular values and each path's status, from path-last sigma
    (n, paths): the Ito-Euler step at finite beta, Heun at beta = inf."""
    n = sig.shape[0]
    x = _noise_matrix(xi, n, beta)
    s2 = 1.0 / (1.0 + np.cosh(sig))
    s = np.sqrt(s2)
    mu = np.tanh(0.5 * sig)
    if np.isinf(beta):
        a, dom_ok = _heun(sig, h, x, s, s2, mu)
    else:
        # sqrt(h) S X S in X's memory, the products s_k s_l formed first so
        # that a is symmetric to the bit, then diag(mu) and the drift
        # h (1/2 - 1/beta) diag(mu S^2)
        a = x
        a *= np.sqrt(h) * (s[:, None] * s)
        a[np.arange(n), np.arange(n)] += mu + (h * (0.5 - 1.0 / beta)) * mu * s2
        dom_ok = True
    dom_new, sig_new = _chart(_singular_values(a))
    status = np.full(sig.shape[1], ens.OK, dtype=np.int64)
    status[~in_chamber(sig_new.T, floor)] = ens.REJECT_CHAMBER
    status[~(dom_ok & dom_new)] = ens.REJECT_DOMAIN
    return a, sig_new, status


def _heun(sig, h, x, s, s2, mu):
    """The beta = inf step's moved point A' (symmetrized) and the
    predictor's disk-edge flag (module docstring)."""
    sq = np.sqrt(h)
    n = sig.shape[0]
    # the predictor's move in the frame, Q^H dR conj(Q) = sqrt(h) S X S
    e = sq * (s[:, None] * x * s)
    u, dom_ok, sig_star = _predict(sig, e)
    u /= np.sqrt(1.0 + np.cosh(sig_star))  # u S*, in u's memory order
    # the moved point in the frame, diag(mu) plus Heun's increment and
    # the drift h diag(S^2 grad S / 2)
    a = 0.5 * (e + sq * _congruence(u, x))
    diag = np.arange(n)
    a[diag, diag] += mu + (0.5 * h) * s2 * _gradient_raw(sig.T).T
    return 0.5 * (a + a.swapaxes(0, 1)), dom_ok


class MatrixKernel(ens._Kernel):
    """Batched disk-coordinate stepping of sigma on the ensemble's kernel
    protocol.  The frame Q of R = Q diag(tanh(sigma/2)) Q^T reaches no
    sigma, so it is not held.  Above _ELEMENTWISE_MAX_N a step's time is in
    LAPACK eigvalsh and BLAS matmul, which release the interpreter lock; up
    to it, in short path-last numpy calls that hold it."""

    def __init__(self, sigma0, beta: float, gap_floor: float):
        super().__init__(sigma0, beta, gap_floor)
        n = self.obs_dim
        self.beta = beta
        self.noise_dim = n * n + n
        self.releases_gil = n > _ELEMENTWISE_MAX_N

    def _step(self, sig, h, xi):
        return _step(sig, h, xi, self.beta, self.floor)[1:]


def step_matrix_flow(
    state: MatrixFlowState, beta: float, h: float, gaussians, gap_floor: float = 1e-6
) -> MatrixFlowState:
    """One step for a single state: Ito-Euler at finite beta, Heun at
    beta = inf (module docstring).

    sigma' and the status come from the ensemble kernel's step; the frame
    then moves by the Takagi frame V of the moved point, Q' = Q V.
    gaussians must hold n^2 + n draws in the documented layout (ValueError
    otherwise).  Raises ChamberExit when the re-factorized sigma violates
    ordering or the gap floor, DomainExit when a singular value reaches the
    disk boundary.
    """
    n = state.sigma_cache.size
    xi = ens.check_gaussians(gaussians, n * n + n)
    a, sig_new, status = _step(state.sigma_cache[:, None], h, xi[None], beta, gap_floor)
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
