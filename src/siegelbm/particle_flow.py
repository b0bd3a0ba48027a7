"""Radial (spectral-level) stochastic flows and their flat-space cousins.

The core process is the interacting-particle equation on the ordered
chamber,

    d sigma_k = (1/2) dS/dsigma_k dt + sqrt(2/beta) dB_k,

whose drift is half the entropy gradient.  beta = inf removes the noise
and leaves the deterministic (mean-curvature) flow, integrated either by
Euler-Maruyama inside the common driver or by classical RK4 for accuracy
studies.  Companion models: the squared-radial flat analogue (dyson) and
the flat sphere toy model in point-cloud or scalar-radius form.
"""
from __future__ import annotations

import numpy as np

from . import ensemble as ens
from .entropy import _dyson_raw, _gradient_raw, cutoff_eta, entropy_gradient
from .errors import ChamberExit, OriginHit, OutOfChamber
from .config import SimConfig
from .geometry import in_chamber


def siegel_drift(sigma) -> np.ndarray:
    """Drift of the radial flow: half the entropy gradient."""
    return 0.5 * entropy_gradient(sigma)


def dyson_drift(lam) -> np.ndarray:
    """Componentwise sum_{l != k} 1 / (lambda_k - lambda_l)."""
    lam = np.asarray(getattr(lam, "sigma", lam), dtype=float)
    if np.any(np.diff(np.sort(lam, axis=-1), axis=-1) == 0):
        raise OutOfChamber("coincident coordinates")
    return _dyson_raw(lam)


def _noise_coef(beta: float) -> float:
    """Rate sqrt(2/beta) of the radial noise; zero in the beta = inf limit."""
    return 0.0 if np.isinf(beta) else float(np.sqrt(2.0 / beta))


class _RadialKernel:
    """Kernel protocol shared by the particle-type schemes: the state holds
    one row of coordinates per path and is observed as is.  Subclasses
    propose a move in attempt() and settle it with _accept()."""

    releases_gil = False  # small numpy calls per step: the interpreter lock bounds it

    def __init__(self, sigma0, beta: float, gap_floor: float):
        self.sigma0 = np.asarray(sigma0, dtype=float)
        self.noise_coef = _noise_coef(beta)
        self.floor = gap_floor
        self.noise_dim = self.obs_dim = self.sigma0.size

    def init(self, c: int) -> np.ndarray:
        return np.tile(self.sigma0, (c, 1))

    def observe(self, state: np.ndarray) -> np.ndarray:
        return state

    def _chamber_ok(self, prop: np.ndarray, positive: bool = True) -> np.ndarray:
        return in_chamber(prop, self.floor, positive) & np.all(np.isfinite(prop), axis=-1)

    @staticmethod
    def _accept(state, idx, prop, ok, frozen=None) -> np.ndarray:
        """Store the proposals marked ok; the rest are chamber rejections
        unless frozen."""
        status = np.where(ok, ens.OK, ens.REJECT_CHAMBER)
        if frozen is not None:
            status[frozen] = ens.FREEZE
        state[idx[ok]] = prop[ok]
        return status


class ParticleKernel(_RadialKernel):
    """Euler-Maruyama step of the radial flow, optional entropy cutoff."""

    def __init__(self, sigma0, beta: float, gap_floor: float, cutoff=None):
        super().__init__(sigma0, beta, gap_floor)
        self.cutoff = cutoff

    def attempt(self, state, idx, h, xi):
        sig = state[idx]
        if self.cutoff is not None:
            eta = np.asarray(cutoff_eta(sig, *self.cutoff))
        else:
            eta = np.ones(len(idx))
        drift = 0.5 * _gradient_raw(sig)
        prop = sig + eta[:, None] * (drift * h + self.noise_coef * np.sqrt(h) * xi)
        frozen = eta == 0.0
        return self._accept(state, idx, prop, self._chamber_ok(prop) & ~frozen, frozen)


class MeanCurvatureKernel(_RadialKernel):
    """Classical RK4 on sigma' = (1/2) grad S; no noise."""

    def __init__(self, sigma0, beta: float, gap_floor: float):
        super().__init__(sigma0, beta, gap_floor)
        self.noise_dim = 0

    def attempt(self, state, idx, h, xi):
        prop = _rk4_step(state[idx], h)
        return self._accept(state, idx, prop, self._chamber_ok(prop))


class DysonKernel(_RadialKernel):
    """Euler-Maruyama for the flat squared-radial analogue on the real line."""

    def attempt(self, state, idx, h, xi):
        lam = state[idx]
        prop = lam + _dyson_raw(lam) * h + self.noise_coef * np.sqrt(h) * xi
        return self._accept(state, idx, prop, self._chamber_ok(prop, positive=False))


class SpherePointKernel(_RadialKernel):
    """Ambient point-cloud step: tangential noise at unit rate, radial noise
    scaled by sqrt(2/beta).  Euler-Maruyama; no drift term.  sigma0 holds
    the initial radius."""

    reject_reasons = {ens.REJECT_CHAMBER: "origin-hit"}

    def __init__(self, sigma0, beta: float, gap_floor: float, n: int):
        super().__init__(sigma0, beta, gap_floor)
        self.noise_dim, self.obs_dim = n, 1

    def init(self, c: int) -> np.ndarray:
        z = np.zeros((c, self.noise_dim))
        z[:, 0] = self.sigma0[0]
        return z

    def observe(self, state: np.ndarray) -> np.ndarray:
        return np.linalg.norm(state, axis=-1, keepdims=True)

    def attempt(self, state, idx, h, xi):
        z = state[idx]
        r = np.linalg.norm(z, axis=-1, keepdims=True)
        zh = z / r
        db = np.sqrt(h) * xi
        rad = np.sum(zh * db, axis=-1, keepdims=True)
        prop = z + db - zh * rad + self.noise_coef * zh * rad
        return self._accept(state, idx, prop, np.linalg.norm(prop, axis=-1) > self.floor)


class SphereRadiusKernel(_RadialKernel):
    """Scalar radius equation dr = (n-1)/(2r) dt + sqrt(2/beta) dB."""

    reject_reasons = {ens.REJECT_CHAMBER: "origin-hit"}

    def __init__(self, sigma0, beta: float, gap_floor: float, n: int):
        super().__init__(sigma0, beta, gap_floor)
        self.n = n

    def attempt(self, state, idx, h, xi):
        r = state[idx]
        prop = r + (self.n - 1) / (2.0 * r) * h + self.noise_coef * np.sqrt(h) * xi
        return self._accept(state, idx, prop, in_chamber(prop, self.floor))


def _rk4_step(sig: np.ndarray, h: float) -> np.ndarray:
    k1 = 0.5 * _gradient_raw(sig)
    k2 = 0.5 * _gradient_raw(sig + 0.5 * h * k1)
    k3 = 0.5 * _gradient_raw(sig + 0.5 * h * k2)
    k4 = 0.5 * _gradient_raw(sig + h * k3)
    return sig + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_mean_curvature(sigma0, t_final: float, h: float):
    """Deterministic radial flow by classical RK4.

    Returns (times, trajectory) with trajectory[j] the state at times[j];
    times is the uniform grid 0, h, ..., t_final.
    """
    sigma0 = np.asarray(getattr(sigma0, "sigma", sigma0), dtype=float)
    steps = int(round(t_final / h))
    if abs(steps * h - t_final) > 1e-9 * max(1.0, t_final):
        raise ValueError("t_final must be an integer multiple of h")
    traj = np.empty((steps + 1, sigma0.size))
    traj[0] = sigma0
    sig = sigma0[None, :].copy()
    for j in range(steps):
        sig = _rk4_step(sig, h)
        if not np.all(np.isfinite(sig)):
            raise OutOfChamber("flow left the chamber")
        traj[j + 1] = sig[0]
    return np.arange(steps + 1) * h, traj


def step_particles(sigma, beta: float, h: float, gaussians, cutoff=None, gap_floor: float = 1e-6):
    """One Euler-Maruyama step of the radial flow for a single state.

    Returns the new sigma; with an active cutoff that has reached zero the
    state is returned unchanged (frozen).  Raises ChamberExit when the
    proposed step violates ordering or the gap floor.
    """
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    xi = np.asarray(gaussians, dtype=float)
    if xi.shape != sigma.shape:
        raise ValueError("gaussians must match sigma in shape")
    kernel = ParticleKernel(sigma, beta, gap_floor, cutoff)
    state = kernel.init(1)
    status = kernel.attempt(state, np.array([0]), h, xi[None, :])
    if status[0] == ens.REJECT_CHAMBER:
        raise ChamberExit("step left the ordered chamber")
    return state[0]


_KERNELS = {
    "particle": lambda c: ParticleKernel(c.sigma0, c.beta, c.gap_floor, c.cutoff),
    "mean-curvature": lambda c: MeanCurvatureKernel(c.sigma0, c.beta, c.gap_floor),
    "dyson": lambda c: DysonKernel(c.sigma0, c.beta, c.gap_floor),
    "sphere-point": lambda c: SpherePointKernel(c.sigma0, c.beta, c.gap_floor, c.n),
    "sphere-radius": lambda c: SphereRadiusKernel(c.sigma0, c.beta, c.gap_floor, c.n),
}


def step_sphere_point(z, beta: float, h: float, gaussians, floor: float = 1e-6) -> np.ndarray:
    """One point-cloud step; raises OriginHit when the move reaches the origin."""
    z = np.asarray(z, dtype=float)
    state = z[None, :].copy()
    kernel = SpherePointKernel([np.linalg.norm(z)], beta, floor, z.size)
    status = kernel.attempt(state, np.array([0]), h, np.asarray(gaussians, float)[None, :])
    if status[0] != ens.OK:
        raise OriginHit("step reached the origin")
    return state[0]


def simulate_particle_paths(cfg: SimConfig, threads: int = 1) -> ens.PathEnsemble:
    """Run an ensemble for any of the particle-type schemes."""
    if cfg.scheme not in _KERNELS:
        raise ValueError(f"not a particle-type scheme: {cfg.scheme}")
    kernel = _KERNELS[cfg.scheme](cfg)
    return ens.run_ensemble(cfg, kernel, threads=threads)
