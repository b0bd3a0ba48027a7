"""Simulation configuration: the run description and its one validator.

`SimConfig` checks every field, built in code, by `dataclasses.replace` or
from JSON alike, and names the first failing one; `config_from_dict` only
reads the JSON forms.  Schemes:

  matrix          disk-model matrix integrator (Ito-Euler; Heun at beta = inf)
  particle        radial interacting-particle integrator (Euler-Maruyama)
  mean-curvature  deterministic radial flow (classical RK4)
  dyson           squared-radial flat-space analogue
  sphere-point    flat sphere toy model, ambient point cloud
  sphere-radius   flat sphere toy model, scalar radius equation
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .entropy import cutoff_eta
from .errors import ConfigInvalid
from .geometry import _DOMAIN_EDGE, in_chamber

SCHEMES = ("matrix", "particle", "mean-curvature", "dyson", "sphere-point", "sphere-radius")

_DEFAULT_CUTOFF = (50.0, 50.0)
# The matrix scheme's disk chart holds sigma below 2 artanh(1 - _DOMAIN_EDGE).
_MATRIX_SIGMA_CEILING = 2.0 * float(np.arctanh(1.0 - _DOMAIN_EDGE))


def _fail(fieldname: str, msg: str):
    raise ConfigInvalid(f"{fieldname}: {msg}")


def _is_integer(v) -> bool:
    """A Python or numpy integer, bools excluded."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> float | None:
    """A Python or numpy real other than a bool as a float, else None; an
    integer past the float range reads as infinity, as json reads 1e400."""
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return None
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _positive_finite(fieldname: str, v) -> float:
    x = _real(v)
    if x is None or not 0.0 < x < math.inf:
        _fail(fieldname, "must be a positive finite number")
    return x


@dataclass(frozen=True)
class SimConfig:
    """A run description, checked field by field on construction (and so
    by dataclasses.replace).  Python or numpy numbers are stored as int or
    float, sigma0 as a float array, and sample_times as the ascending
    distinct times of the dt grid."""

    n: int
    beta: float  # np.inf for the deterministic-noise limit
    sigma0: np.ndarray
    t_final: float
    dt: float
    n_paths: int
    seed: int
    scheme: str
    sample_times: tuple = ()
    cutoff: tuple | None = None  # (k, K) or None
    gap_floor: float = 1e-6

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        if not (_is_integer(self.n) and 1 <= self.n <= 8):
            _fail("n", "must be an integer in [1, 8]")
        put("n", int(self.n))
        beta = _real(self.beta)
        if beta is None or not beta > 0:
            _fail("beta", 'must be a positive number or "inf"')
        put("beta", beta)
        if not isinstance(self.scheme, str) or self.scheme not in SCHEMES:
            _fail("scheme", f"must be one of {', '.join(SCHEMES)}")
        put("sigma0", _validate_sigma0(self.scheme, self.n, self.sigma0))
        put("t_final", _positive_finite("t_final", self.t_final))
        put("dt", _positive_finite("dt", self.dt))
        if self.n_steps < 1 or abs(self.n_steps * self.dt - self.t_final) > 1e-9 * self.t_final:
            _fail("dt", "t_final must be an integer multiple of dt")
        if not (_is_integer(self.n_paths) and self.n_paths >= 1):
            _fail("n_paths", "must be a positive integer")
        put("n_paths", int(self.n_paths))
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**63):
            _fail("seed", "must be a nonnegative 63-bit integer")
        put("seed", int(self.seed))
        put("gap_floor", _positive_finite("gap_floor", self.gap_floor))
        put("sample_times", self._grid_times())
        put("cutoff", self._checked_cutoff())

    def _grid_times(self) -> tuple:
        times = self.sample_times
        if isinstance(times, np.ndarray):
            times = times.tolist()
        if not isinstance(times, (list, tuple)):
            _fail("sample_times", "must be a list of times")
        idx = set()
        for t in times:
            x = _real(t)
            if x is None or not math.isfinite(x):
                _fail("sample_times", f"time {t!r} is not a finite number")
            j = round(x / self.dt)
            if x < 0 or j > self.n_steps:
                _fail("sample_times", f"time {t!r} outside [0, t_final]")
            if abs(j * self.dt - x) > 1e-9 * max(1.0, self.t_final):
                _fail("sample_times", f"time {t!r} not on the dt grid")
            idx.add(j)
        return tuple(j * self.dt for j in sorted(idx))

    def _checked_cutoff(self) -> tuple | None:
        if self.cutoff is None:
            return None
        pair = [_real(v) for v in self.cutoff] if isinstance(self.cutoff, (list, tuple)) else []
        if len(pair) != 2 or not all(v is not None and v > 0 for v in pair):
            _fail("cutoff", "k and K must be positive numbers")
        if self.scheme != "particle":
            _fail("cutoff", "only the particle scheme supports the entropy cutoff")
        if cutoff_eta(self.sigma0, *pair) == 0:
            _fail("cutoff", "eta is 0 at sigma0, outside the cutoff's support, so no path would move")
        return tuple(pair)

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
            "beta": self.beta,
            "sigma0": self.sigma0.tolist(),
            "t_final": self.t_final,
            "dt": self.dt,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "gap_floor": self.gap_floor,
            "cutoff": list(self.cutoff) if self.cutoff else None,
        }


def _validate_sigma0(scheme: str, n: int, raw) -> np.ndarray:
    if isinstance(raw, np.ndarray):
        raw = raw.tolist()
    values = [_real(v) for v in raw] if isinstance(raw, (list, tuple)) else [None]
    if not all(v is not None and math.isfinite(v) for v in values):
        _fail("sigma0", "must be a list of finite numbers")
    arr = np.array(values, dtype=float)
    if scheme in ("sphere-point", "sphere-radius"):
        if arr.size != 1:
            _fail("sigma0", "sphere schemes take a single initial radius")
        if arr[0] <= 0:
            _fail("sigma0", "initial radius must be positive")
        return arr
    if arr.size != n:
        _fail("sigma0", f"expected {n} entries, got {arr.size}")
    if not in_chamber(arr, 0.0, positive=False):
        _fail("sigma0", "entries must be strictly ascending")
    if scheme != "dyson" and arr[0] <= 0:
        _fail("sigma0", "entries must be strictly positive")
    if scheme == "matrix" and arr[-1] >= _MATRIX_SIGMA_CEILING:
        _fail("sigma0", f"the matrix scheme's disk chart holds sigma below {_MATRIX_SIGMA_CEILING:.2f}")
    return arr


def config_from_dict(raw: dict) -> SimConfig:
    """A SimConfig from a parsed JSON object, which may spell beta "inf",
    give sample_times as an integer stride (absent: the two ends), and give
    cutoff as null (the default, (50, 50) for the particle scheme at
    beta < 2), false or {"k": ..., "K": ...}."""
    if not isinstance(raw, dict):
        raise ConfigInvalid("config: must be a JSON object")
    params = fields(SimConfig)
    names = {f.name for f in params}
    for key in raw:
        if key not in names:
            _fail(key, "unknown field")
    # an absent required field reads as null, which SimConfig refuses by name
    args = {**{f.name: None for f in params if f.default is MISSING}, **raw}
    if args["beta"] == "inf":
        args["beta"] = math.inf
    times = args.pop("sample_times", None)
    cutoff = args.pop("cutoff", None)
    cfg = SimConfig(**args, sample_times=() if times is None or _is_integer(times) else times)
    if times == []:
        _fail("sample_times", "list must be nonempty")
    if times is None:
        times = cfg.n_steps  # the stride that records the two ends
    if _is_integer(times):
        if times < 1:
            _fail("sample_times", "stride must be a positive integer")
        times = [j * cfg.dt for j in (*range(0, cfg.n_steps + 1, times), cfg.n_steps)]
    if cutoff is None:
        cutoff = _DEFAULT_CUTOFF if cfg.scheme == "particle" and cfg.beta < 2 else None
    elif cutoff is False:
        cutoff = None
    elif isinstance(cutoff, dict) and set(cutoff) == {"k", "K"}:
        cutoff = (cutoff["k"], cutoff["K"])
    else:
        _fail("cutoff", 'must be null, false, or {"k": ..., "K": ...}')
    return replace(cfg, sample_times=times, cutoff=cutoff)
