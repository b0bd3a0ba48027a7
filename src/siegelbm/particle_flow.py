"""Radial (spectral-level) stochastic flows and their flat-space cousins.

The core process is the interacting-particle equation on the ordered
chamber,

    d sigma_k = (1/2) dS/dsigma_k dt + sqrt(2/beta) dB_k,

whose drift is half the entropy gradient.  beta = inf removes the noise
and leaves the deterministic (mean-curvature) flow, integrated either by
Euler-Maruyama inside the common driver or by classical RK4 for accuracy
studies.  Companion models: the squared-radial flat analogue (dyson) and
the flat sphere toy model in point-cloud or scalar-radius form.

Each scheme is a kernel on ensemble._Kernel's protocol: its _step proposes
a move for the paths the base class gathered and returns the proposal with
each path's status, and the base class stores the accepted proposals.
"""
from __future__ import annotations

import numpy as np

from . import ensemble as ens
from .entropy import _dyson_raw, _gradient_raw, _sum_lead, cutoff_eta, entropy_gradient
from .errors import OutOfChamber
from .geometry import in_chamber
from .config import SimConfig


def siegel_drift(sigma) -> np.ndarray:
    """Drift of the radial flow: half the entropy gradient."""
    return 0.5 * entropy_gradient(sigma)


def dyson_drift(lam) -> np.ndarray:
    """Componentwise sum_{l != k} 1 / (lambda_k - lambda_l)."""
    lam = np.asarray(getattr(lam, "sigma", lam), dtype=float)
    if np.any(np.diff(np.sort(lam, axis=-1), axis=-1) == 0):
        raise OutOfChamber("coincident coordinates")
    return _dyson_raw(lam)


class ParticleKernel(ens._Kernel):
    """Euler-Maruyama step of the radial flow, optional entropy cutoff."""

    def __init__(self, sigma0, beta: float, gap_floor: float, cutoff=None):
        super().__init__(sigma0, beta, gap_floor)
        self.cutoff = cutoff

    def _step(self, sig, h, xi):
        # prop = sig + eta * ((1/2) grad S * h + (coef * sqrt(h)) * xi), in place
        prop = _euler_increment(sig, h, self._noise(h, xi))
        if self.cutoff is None:
            prop += sig
            return prop, self._accept(self._chamber_ok(prop))
        eta = np.asarray(cutoff_eta(sig.T, *self.cutoff))
        prop *= eta
        prop += sig
        return prop, self._accept(self._chamber_ok(prop), eta == 0.0)


class MeanCurvatureKernel(ens._Kernel):
    """Classical RK4 on sigma' = (1/2) grad S, built at beta = inf: no draws."""

    def _step(self, sig, h, xi):
        prop = _rk4_step(sig, h)
        return prop, self._accept(self._chamber_ok(prop))


class DysonKernel(ens._Kernel):
    """Euler-Maruyama for the flat squared-radial analogue on the real line."""

    def _step(self, lam, h, xi):
        prop = lam + _dyson_raw(lam.T).T * h + self._noise(h, xi)
        return prop, self._accept(self._chamber_ok(prop, positive=False))


class SpherePointKernel(ens._Kernel):
    """Ambient point-cloud step: tangential noise at unit rate, radial noise
    scaled by sqrt(2/beta).  Euler-Maruyama; no drift term.  sigma0 holds
    the initial radius."""

    def __init__(self, sigma0, beta: float, gap_floor: float, n: int):
        super().__init__(sigma0, beta, gap_floor)
        self.noise_dim, self.obs_dim = n, 1

    def init(self, c: int) -> np.ndarray:
        z = np.zeros((self.noise_dim, c))
        z[0] = self.sigma0[0]
        return z

    def observe(self, state: np.ndarray) -> np.ndarray:
        return _norm(state)[:, None]

    def _step(self, z, h, xi):
        zh = z / _norm(z)
        db = np.sqrt(h) * xi.T
        rad = _sum_lead(zh * db)
        prop = z + db - zh * rad + self.noise_coef * zh * rad
        return prop, self._accept(_norm(prop) > self.floor, reject=ens.REJECT_ORIGIN)


class SphereRadiusKernel(ens._Kernel):
    """Scalar radius equation dr = (n-1)/(2r) dt + sqrt(2/beta) dB."""

    def __init__(self, sigma0, beta: float, gap_floor: float, n: int):
        super().__init__(sigma0, beta, gap_floor)
        self.n = n

    def _step(self, r, h, xi):
        prop = r + (self.n - 1) / (2.0 * r) * h + self._noise(h, xi)
        return prop, self._accept(self._chamber_ok(prop), reject=ens.REJECT_ORIGIN)


def _norm(z: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of z (n, c)."""
    return np.sqrt(_sum_lead(z * z))


def _half_gradient(sig: np.ndarray) -> np.ndarray:
    """(1/2) grad S, the drift of both Euler steps and RK4, for sig (n, c)."""
    return 0.5 * _gradient_raw(sig.T).T


def _euler_increment(sig: np.ndarray, h, noise=0.0) -> np.ndarray:
    """(1/2) grad S * h + noise for sig (n, c): the particle scheme's Euler
    increment, and so to the bit the matrix scheme's at beta = inf."""
    inc = _half_gradient(sig)
    inc *= h
    inc += noise
    return inc


def _rk4_step(sig: np.ndarray, h: float) -> np.ndarray:
    """One RK4 step of sigma' = (1/2) grad S for the columns of sig (n, c)."""
    k1 = _half_gradient(sig)
    k2 = _half_gradient(sig + 0.5 * h * k1)
    k3 = _half_gradient(sig + 0.5 * h * k2)
    k4 = _half_gradient(sig + h * k3)
    return sig + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_mean_curvature(sigma0, t_final: float, h: float):
    """Deterministic radial flow by classical RK4.

    Returns (times, trajectory) with trajectory[j] the state at times[j];
    times is the uniform grid 0, h, ..., t_final.  Raises OutOfChamber when
    sigma0 or a step is off the open chamber 0 < sigma_1 < ... < sigma_n.
    """
    sigma0 = np.asarray(getattr(sigma0, "sigma", sigma0), dtype=float)
    h = ens.check_step(h)
    steps = int(round(t_final / h))
    if abs(steps * h - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer multiple of h")
    traj = np.empty((steps + 1, sigma0.size))
    sig = sigma0[:, None]
    for j in range(steps + 1):
        if j:
            sig = _rk4_step(sig, h)
        if not in_chamber(sig[:, 0], 0.0):
            raise OutOfChamber(f"flow off the open chamber at t = {j * h}")
        traj[j] = sig[:, 0]
    return np.arange(steps + 1) * h, traj


def step_particles(sigma, beta: float, h: float, gaussians, cutoff=None, gap_floor: float = 1e-6):
    """One Euler-Maruyama step of the radial flow for a single state.

    Returns the new sigma; with an active cutoff that has reached zero the
    state is returned unchanged (frozen).  Raises ChamberExit when the
    proposed step violates ordering or the gap floor, ValueError unless
    gaussians holds one draw per coordinate.
    """
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    kernel = ParticleKernel(sigma, beta, gap_floor, cutoff)
    state = kernel.init(1)
    ens.step_once(kernel, state, h, gaussians)
    return state[:, 0]


_KERNELS = {
    "particle": lambda c: ParticleKernel(c.sigma0, c.beta, c.gap_floor, c.cutoff),
    "mean-curvature": lambda c: MeanCurvatureKernel(c.sigma0, np.inf, c.gap_floor),
    "dyson": lambda c: DysonKernel(c.sigma0, c.beta, c.gap_floor),
    "sphere-point": lambda c: SpherePointKernel(c.sigma0, c.beta, c.gap_floor, c.n),
    "sphere-radius": lambda c: SphereRadiusKernel(c.sigma0, c.beta, c.gap_floor, c.n),
}


def step_sphere_point(z, beta: float, h: float, gaussians, floor: float = 1e-6) -> np.ndarray:
    """One point-cloud step; raises OriginHit when the move reaches the
    origin, ValueError unless gaussians holds one draw per coordinate of z."""
    z = np.asarray(z, dtype=float)
    state = z[:, None].copy()
    kernel = SpherePointKernel([np.linalg.norm(z)], beta, floor, z.size)
    ens.step_once(kernel, state, h, gaussians)
    return state[:, 0]


def simulate_particle_paths(cfg: SimConfig, threads: int = 1) -> ens.PathEnsemble:
    """Run an ensemble for any of the particle-type schemes."""
    if cfg.scheme not in _KERNELS:
        raise ValueError(f"not a particle-type scheme: {cfg.scheme}")
    kernel = _KERNELS[cfg.scheme](cfg)
    return ens.run_ensemble(cfg, kernel, threads=threads)
