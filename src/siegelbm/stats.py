"""Two-sample tests and ensemble summaries.

The comparison harness checks whether two path ensembles (typically one
integrated at matrix level and one at spectral level) agree in law: a
Kolmogorov-Smirnov test per radial coordinate at the final common sample
time, plus one on the summed cosh functional, Bonferroni-corrected.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import PathEnsemble
from .errors import EmptySample, ShapeMismatch


@dataclass(frozen=True)
class KSResult:
    statistic: float
    threshold: float
    reject: bool
    alpha: float
    n_x: int
    n_y: int

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "reject": self.reject,
            "alpha": self.alpha,
            "n_x": self.n_x,
            "n_y": self.n_y,
        }


def ks_two_sample(x, y, alpha: float = 0.01) -> KSResult:
    """Two-sample Kolmogorov-Smirnov test at level alpha.

    Rejects when D = sup_v |F_x(v) - F_y(v)| exceeds
    c(alpha) sqrt((m+n)/(mn)) with c(alpha) = sqrt(-ln(alpha/2)/2).
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())
    y = np.sort(np.asarray(y, dtype=float).ravel())
    if x.size == 0 or y.size == 0:
        raise EmptySample("ks_two_sample needs nonempty samples")
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    d = float(np.max(np.abs(fx - fy)))
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    threshold = float(c * np.sqrt((x.size + y.size) / (x.size * y.size)))
    return KSResult(
        statistic=d,
        threshold=threshold,
        reject=d > threshold,
        alpha=alpha,
        n_x=x.size,
        n_y=y.size,
    )


def _mean_se(values: np.ndarray):
    m = values.shape[0]
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(m)) if m > 1 else 0.0
    return mean, se


def moment_report(ensemble: PathEnsemble) -> dict:
    """Per-sample-time summary of an ensemble.

    Each row reports, over paths still running at that time: means and
    standard errors of sum cosh(sigma) and sum sigma^2, per-coordinate
    means, and the worst-case chamber margins.  The top level adds a
    least-squares growth rate of log mean(sum cosh) against time and a
    tally of stop reasons.
    """
    times = ensemble.times
    rows = []
    log_pts = []
    for j, t in enumerate(times):
        alive = ensemble.alive_mask(j)
        n_live = int(np.sum(alive))
        row = {"t": float(t), "n_live": n_live, "n_stopped": int(ensemble.n_paths - n_live)}
        if n_live:
            sig = ensemble.samples[alive, j, :]
            sum_cosh = np.sum(np.cosh(sig), axis=-1)
            sum_sq = np.sum(sig * sig, axis=-1)
            row["sum_cosh_mean"], row["sum_cosh_se"] = _mean_se(sum_cosh)
            row["sum_sq_mean"], row["sum_sq_se"] = _mean_se(sum_sq)
            row["coord_mean"] = [float(v) for v in np.mean(sig, axis=0)]
            if n_live > 1:
                ses = np.std(sig, axis=0, ddof=1) / np.sqrt(n_live)
            else:
                ses = np.zeros(sig.shape[1])
            row["coord_se"] = [float(v) for v in ses]
            row["min_sigma1"] = float(np.min(sig[:, 0]))
            row["min_gap"] = (
                float(np.min(np.diff(sig, axis=-1))) if sig.shape[1] > 1 else None
            )
            if row["sum_cosh_mean"] > 0:
                log_pts.append((float(t), np.log(row["sum_cosh_mean"])))
        rows.append(row)
    report = {
        "n_paths": ensemble.n_paths,
        "rejections": int(np.sum(ensemble.rejections)),
        "stop_reasons": _stop_counts(ensemble),
        "rows": rows,
    }
    if len(log_pts) >= 2:
        ts, ys = np.array(log_pts).T
        slope, intercept = np.polyfit(ts, ys, 1)
        report["growth"] = {"rate": float(slope), "intercept": float(intercept)}
    return report


def _stop_counts(ensemble: PathEnsemble) -> dict:
    counts: dict = {}
    for reason, stop in zip(ensemble.stop_reason, ensemble.stopped_at):
        if np.isfinite(stop):
            counts[reason] = counts.get(reason, 0) + 1
    return counts


def time_index(times, t: float | None = None) -> int:
    """Index of sample time t in times (default: the final one), matched to
    a relative 1e-9; ShapeMismatch if t is not on the grid."""
    if t is None:
        return len(times) - 1
    hits = np.nonzero(np.abs(np.asarray(times) - t) <= 1e-9 * max(1.0, abs(t)))[0]
    if hits.size == 0:
        raise ShapeMismatch(f"t={t} is not on the sample grid")
    return int(hits[0])


def compare_ensembles(
    a: PathEnsemble, b: PathEnsemble, alpha: float = 0.01, t: float | None = None
) -> dict:
    """Law-agreement report between two ensembles on the same time grid.

    Requires equal dimension, beta, and sample times (ShapeMismatch
    otherwise).  At the requested sample time (default: the final one),
    runs one KS test per radial coordinate plus one on sum cosh(sigma),
    each at level alpha/(dim + 1); any single rejection flags overall
    disagreement.
    """
    dim = a.meta.get("dim")
    if dim != b.meta.get("dim"):
        raise ShapeMismatch("ensembles have different dimension")
    if a.times.shape != b.times.shape or not np.allclose(a.times, b.times):
        raise ShapeMismatch("ensembles sampled on different time grids")
    if a.meta.get("beta") != b.meta.get("beta"):
        raise ShapeMismatch("ensembles run at different beta")
    j = time_index(a.times, t)
    xa = a.samples[a.alive_mask(j), j, :]
    xb = b.samples[b.alive_mask(j), j, :]
    if xa.shape[0] == 0 or xb.shape[0] == 0:
        raise EmptySample(f"no surviving paths at sample time t={float(a.times[j])}")
    level = alpha / (dim + 1)
    tests = []
    for k in range(dim):
        res = ks_two_sample(xa[:, k], xb[:, k], alpha=level)
        tests.append({"name": f"sigma_{k + 1}", **res.to_dict()})
    res = ks_two_sample(
        np.sum(np.cosh(xa), axis=-1), np.sum(np.cosh(xb), axis=-1), alpha=level
    )
    tests.append({"name": "sum_cosh", **res.to_dict()})
    return {
        "t": float(a.times[j]),
        "alpha": alpha,
        "per_test_alpha": level,
        "n_a": int(xa.shape[0]),
        "n_b": int(xb.shape[0]),
        "tests": tests,
        "any_reject": any(t["reject"] for t in tests),
    }
