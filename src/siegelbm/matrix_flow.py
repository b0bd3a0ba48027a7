"""Matrix-level flow in disk coordinates.

One step from R = Q diag(tanh(sigma/2)) Q^T:

  (i)  Stratonovich predictor-corrector (Heun) for all noise fields: the
       n^2 orbit directions at unit rate and the n radial directions at
       rate sqrt(2/beta).  In the Q-frame the assembled noise is a complex
       symmetric matrix G, so each increment is Q G Q^T and stays
       symmetric by construction.
  (ii) The radial correction produced by the orbit directions, an explicit
       Euler term h * sum_k d_k(sigma) L_k evaluated at the base point,
       with d the normal drift (half the entropy gradient).

After the move the state is re-symmetrized and re-factorized; steps whose
factorization leaves the disk (some singular value reaching one) or the
ordered chamber (sigma gap at or below the floor) are rejected.

Gaussian layout per step (n^2 + n draws): first the n diagonal orbit
directions, then the two off-diagonal families in lexicographic (k, l)
order, and the final n draws drive the radial directions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ensemble as ens
from .config import SimConfig
from .entropy import _gradient_raw, entropy_gradient
from .errors import ChamberExit, DomainExit, OutOfChamber
from .geometry import SpectralCoord, _disk_sigma, in_chamber
from .linalg import _takagi_batch, unitary_algebra_basis, unitary_exp
from .particle_flow import _noise_coef

_DOMAIN_EDGE = 1e-12


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
    n = sigma0.size
    q = np.eye(n, dtype=complex) if q0 is None else np.asarray(q0, dtype=complex)
    mu = np.tanh(0.5 * sigma0)
    r = (q * mu) @ q.T
    return MatrixFlowState(r=r, sigma_cache=sigma0, q_cache=q, t=t)


def _noise_matrix(sig: np.ndarray, xi: np.ndarray, beta: float) -> np.ndarray:
    """Assembled per-step noise in the Q-frame: complex symmetric G with

        G_kk = (sqrt(2/beta) xi_L_k + i xi_U_k) / (1 + cosh sigma_k)
        G_kl = (xi_2 + i xi_1) / (sqrt(2) sqrt((1+cosh sigma_k)(1+cosh sigma_l)))

    so that sum_alpha c_alpha V_alpha xi_alpha = Q G Q^T."""
    c, n = sig.shape
    ch2 = 1.0 + np.cosh(sig)
    g = np.zeros((c, n, n), dtype=complex)
    diag = (_noise_coef(beta) * xi[:, n * n :] + 1j * xi[:, :n]) / ch2
    g[:, np.arange(n), np.arange(n)] = diag
    ks, ls = np.triu_indices(n, 1)
    p = ks.size
    xi1 = xi[:, n : n + p]
    xi2 = xi[:, n + p : n + 2 * p]
    off = (xi2 + 1j * xi1) / (np.sqrt(2.0) * np.sqrt(ch2[:, ks] * ch2[:, ls]))
    g[:, ks, ls] = off
    g[:, ls, ks] = off
    return g


def _congruence(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.einsum("pab,pbc,pdc->pad", q, g, q)


def _refactor(r: np.ndarray):
    """Takagi frame of a stack of disk points, whether each stays clear of
    the disk edge, and its sigma = 2 artanh(mu)."""
    q, mu = _takagi_batch(r)
    return q, mu[:, -1] < 1.0 - _DOMAIN_EDGE, 2.0 * np.arctanh(np.clip(mu, 0.0, 1.0 - 1e-13))


def _stack(st: MatrixFlowState, c: int) -> dict:
    """Kernel state holding c copies of st."""
    return {
        "r": np.tile(st.r, (c, 1, 1)),
        "q": np.tile(st.q_cache, (c, 1, 1)),
        "sigma": np.tile(st.sigma_cache, (c, 1)),
    }


class MatrixKernel:
    """Batched disk-coordinate stepping over stacked path states."""

    releases_gil = True  # the step's time is in LAPACK eigh and BLAS matmul

    def __init__(self, sigma0, beta: float, gap_floor: float, q0=None):
        self.sigma0 = np.asarray(sigma0, dtype=float)
        self.q0 = q0
        self.beta = beta
        self.floor = gap_floor
        n = self.sigma0.size
        self.noise_dim = n * n + n
        self.obs_dim = n

    def init(self, c: int) -> dict:
        return _stack(init_matrix_state(self.sigma0, self.q0), c)

    def observe(self, state: dict) -> np.ndarray:
        return state["sigma"]

    def attempt(self, state: dict, idx, h: float, xi) -> np.ndarray:
        r = state["r"][idx]
        q = state["q"][idx]
        sig = state["sigma"][idx]
        sq = np.sqrt(h)

        g = _noise_matrix(sig, xi, self.beta)
        incr_pred = _congruence(q, g)
        q_star, dom_ok, sig_star = _refactor(r + sq * incr_pred)

        # keep the predictor frame on the same sign sheet as the base frame
        dots = np.einsum("paj,paj->pj", q.conj(), q_star)
        q_star = q_star * np.where(dots.real < 0, -1.0, 1.0)[:, None, :]

        g_star = _noise_matrix(sig_star, xi, self.beta)
        incr = 0.5 * sq * (incr_pred + _congruence(q_star, g_star))
        drift = 0.5 * _gradient_raw(sig) / (1.0 + np.cosh(sig))
        incr = incr + h * np.einsum("pab,pb,pcb->pac", q, drift, q)

        r_new = r + incr
        r_new = 0.5 * (r_new + np.swapaxes(r_new, -1, -2))
        q_new, dom_new, sig_new = _refactor(r_new)
        dom_ok = dom_ok & dom_new

        status = np.full(len(idx), ens.OK, dtype=np.int64)
        status[~in_chamber(sig_new, self.floor)] = ens.REJECT_CHAMBER
        status[~dom_ok] = ens.REJECT_DOMAIN
        ok = status == ens.OK
        acc = idx[ok]
        state["r"][acc] = r_new[ok]
        state["q"][acc] = q_new[ok]
        state["sigma"][acc] = sig_new[ok]
        return status


def step_matrix_flow(
    state: MatrixFlowState, beta: float, h: float, gaussians, gap_floor: float = 1e-6
) -> MatrixFlowState:
    """One predictor-corrector step for a single state.

    gaussians must hold n^2 + n draws in the documented layout.  Raises
    ChamberExit when the re-factorized sigma violates ordering or the gap
    floor, DomainExit when a singular value reaches the disk boundary.
    """
    n = state.sigma_cache.size
    xi = np.asarray(gaussians, dtype=float)
    if xi.shape != (n * n + n,):
        raise ValueError(f"expected {n * n + n} gaussians")
    kernel = MatrixKernel(state.sigma_cache, beta, gap_floor, state.q_cache)
    arrs = _stack(state, 1)
    status = int(kernel.attempt(arrs, np.array([0]), h, xi[None, :])[0])
    if status == ens.REJECT_DOMAIN:
        raise DomainExit("step left the disk domain")
    if status == ens.REJECT_CHAMBER:
        raise ChamberExit("step left the ordered chamber")
    return MatrixFlowState(
        r=arrs["r"][0],
        sigma_cache=arrs["sigma"][0],
        q_cache=arrs["q"][0],
        t=state.t + h,
    )


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
    kernel = MatrixKernel(cfg.sigma0, cfg.beta, cfg.gap_floor, cfg.q0)
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
    xi = np.asarray(gaussians, dtype=float)
    if xi.shape != (n * n + n,):
        raise ValueError(f"expected {n * n + n} gaussians")
    noise = _noise_coef(beta) * np.sqrt(h) * xi[n * n :]
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
