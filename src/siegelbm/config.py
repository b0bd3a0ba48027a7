"""Simulation configuration: parsing and validation of run descriptions.

Validation reports the first failing field by name.  Schemes:

  matrix          disk-model matrix integrator (Ito-Euler; Heun at beta = inf)
  particle        radial interacting-particle integrator (Euler-Maruyama)
  mean-curvature  deterministic radial flow (classical RK4)
  dyson           squared-radial flat-space analogue
  sphere-point    flat sphere toy model, ambient point cloud
  sphere-radius   flat sphere toy model, scalar radius equation
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import cutoff_eta
from .errors import ConfigInvalid
from .geometry import _DOMAIN_EDGE

SCHEMES = ("matrix", "particle", "mean-curvature", "dyson", "sphere-point", "sphere-radius")

_KNOWN_KEYS = {
    "n",
    "beta",
    "sigma0",
    "t_final",
    "dt",
    "n_paths",
    "seed",
    "scheme",
    "sample_times",
    "cutoff",
    "gap_floor",
}

_DEFAULT_CUTOFF = (50.0, 50.0)
# The matrix scheme's disk chart holds sigma below 2 artanh(1 - _DOMAIN_EDGE).
_MATRIX_SIGMA_CEILING = 2.0 * float(np.arctanh(1.0 - _DOMAIN_EDGE))


def _fail(fieldname: str, msg: str):
    raise ConfigInvalid(f"{fieldname}: {msg}")


@dataclass(frozen=True)
class SimConfig:
    n: int
    beta: float  # np.inf for the deterministic-noise limit
    sigma0: np.ndarray
    t_final: float
    dt: float
    n_paths: int
    seed: int
    scheme: str
    sample_times: tuple = ()
    cutoff: tuple | None = None  # resolved (k, K) or None
    gap_floor: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "sigma0", np.asarray(self.sigma0, dtype=float))
        for name in ("t_final", "dt"):
            if not math.isfinite(getattr(self, name)):
                _fail(name, "must be a finite number")
        if self.dt <= 0:
            _fail("dt", "must be a positive number")
        if self.n_paths < 1:
            _fail("n_paths", "must be a positive integer")
        if self.n_steps < 1 or abs(self.n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            _fail("dt", "t_final must be an integer multiple of dt")
        # sample times become the ascending distinct times of the dt grid
        idx = set()
        for t in self.sample_times:
            if not math.isfinite(t):
                _fail("sample_times", f"time {t!r} is not a finite number")
            j = round(float(t) / self.dt)
            if t < 0 or j > self.n_steps:
                _fail("sample_times", f"time {t!r} outside [0, t_final]")
            if abs(j * self.dt - t) > 1e-9 * max(1.0, self.t_final):
                _fail("sample_times", f"time {t!r} not on the dt grid")
            idx.add(j)
        object.__setattr__(self, "sample_times", tuple(float(j * self.dt) for j in sorted(idx)))

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))

    @property
    def sample_indices(self) -> np.ndarray:
        """Ascending step indices of sample_times on the dt grid; the two
        ends 0 and n_steps when no sample times are given."""
        idx = [round(t / self.dt) for t in self.sample_times] or [0, self.n_steps]
        return np.array(idx, dtype=np.int64)

    def to_meta(self) -> dict:
        return {
            "scheme": self.scheme,
            "n": self.n,
            "beta": float(self.beta),
            "sigma0": [float(v) for v in self.sigma0],
            "t_final": self.t_final,
            "dt": self.dt,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "gap_floor": self.gap_floor,
            "cutoff": list(self.cutoff) if self.cutoff else None,
        }


def _is_finite_number(v) -> bool:
    """A JSON number other than NaN or +-Infinity (json reads both, and
    reads a literal past the float range, such as 1e400, as infinity)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _validate_sigma0(scheme: str, n: int, raw) -> np.ndarray:
    if not isinstance(raw, (list, tuple)) or not all(_is_finite_number(v) for v in raw):
        _fail("sigma0", "must be a list of finite numbers")
    arr = np.asarray(raw, dtype=float)
    if scheme in ("sphere-point", "sphere-radius"):
        if arr.size != 1:
            _fail("sigma0", "sphere schemes take a single initial radius")
        if arr[0] <= 0:
            _fail("sigma0", "initial radius must be positive")
        return arr
    if arr.size != n:
        _fail("sigma0", f"expected {n} entries, got {arr.size}")
    if np.any(np.diff(arr) <= 0):
        _fail("sigma0", "entries must be strictly ascending")
    if scheme != "dyson" and arr[0] <= 0:
        _fail("sigma0", "entries must be strictly positive")
    if scheme == "matrix" and arr[-1] >= _MATRIX_SIGMA_CEILING:
        _fail("sigma0", f"the matrix scheme's disk chart holds sigma below {_MATRIX_SIGMA_CEILING:.2f}")
    return arr


def config_from_dict(raw: dict) -> SimConfig:
    """Build and validate a SimConfig, naming the first failing field."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config: must be a JSON object")
    for key in raw:
        if key not in _KNOWN_KEYS:
            _fail(key, "unknown field")

    n = raw.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 8:
        _fail("n", "must be an integer in [1, 8]")

    beta_raw = raw.get("beta")
    if beta_raw == "inf":
        beta = float("inf")
    elif isinstance(beta_raw, (int, float)) and not isinstance(beta_raw, bool) and beta_raw > 0:
        beta = float(beta_raw)
    else:
        _fail("beta", 'must be a positive number or "inf"')

    scheme = raw.get("scheme")
    if scheme not in SCHEMES:
        _fail("scheme", f"must be one of {', '.join(SCHEMES)}")

    sigma0 = _validate_sigma0(scheme, n, raw.get("sigma0"))

    t_final = raw.get("t_final")
    if not _is_finite_number(t_final) or t_final <= 0:
        _fail("t_final", "must be a finite positive number")
    dt = raw.get("dt")
    if not _is_finite_number(dt) or dt <= 0 or dt > t_final:
        _fail("dt", "must be a finite positive number no larger than t_final")
    n_steps = round(t_final / dt)  # SimConfig checks that t_final is a multiple of dt

    n_paths = raw.get("n_paths")
    if not isinstance(n_paths, int) or isinstance(n_paths, bool) or n_paths < 1:
        _fail("n_paths", "must be a positive integer")
    seed = raw.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**63:
        _fail("seed", "must be a nonnegative 63-bit integer")

    gap_floor = raw.get("gap_floor", 1e-6)
    if not _is_finite_number(gap_floor) or gap_floor <= 0:
        _fail("gap_floor", "must be a finite positive number")

    # SimConfig checks that the times lie on the dt grid within [0, t_final]
    sample_arg = raw.get("sample_times")
    if sample_arg is None:
        sample_times = (0.0, n_steps * dt)
    elif isinstance(sample_arg, int) and not isinstance(sample_arg, bool):
        if sample_arg < 1:
            _fail("sample_times", "stride must be a positive integer")
        sample_times = tuple(j * dt for j in (*range(0, n_steps + 1, sample_arg), n_steps))
    elif isinstance(sample_arg, (list, tuple)):
        for t in sample_arg:
            if not _is_finite_number(t):
                _fail("sample_times", f"time {t!r} is not a finite number")
        if not sample_arg:
            _fail("sample_times", "list must be nonempty")
        sample_times = tuple(sample_arg)
    else:
        _fail("sample_times", "must be a list of times or an integer stride")

    cutoff_raw = raw.get("cutoff")
    if cutoff_raw is None:
        cutoff = _DEFAULT_CUTOFF if (scheme == "particle" and beta < 2) else None
    elif cutoff_raw is False:
        cutoff = None
    elif isinstance(cutoff_raw, dict) and set(cutoff_raw) == {"k", "K"}:
        kk, bk = cutoff_raw["k"], cutoff_raw["K"]
        ok = all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in (kk, bk))
        if not ok:
            _fail("cutoff", "k and K must be positive numbers")
        cutoff = (float(kk), float(bk))
    else:
        _fail("cutoff", 'must be null, false, or {"k": ..., "K": ...}')
    if cutoff is not None and scheme != "particle":
        _fail("cutoff", "only the particle scheme supports the entropy cutoff")
    if cutoff is not None and cutoff_eta(sigma0, *cutoff) == 0:
        _fail("cutoff", "eta is 0 at sigma0, outside the cutoff's support, so no path would move")

    return SimConfig(
        n=n,
        beta=beta,
        sigma0=sigma0,
        t_final=float(t_final),
        dt=float(dt),
        n_paths=n_paths,
        seed=seed,
        scheme=scheme,
        sample_times=sample_times,
        cutoff=cutoff,
        gap_floor=float(gap_floor),
    )
