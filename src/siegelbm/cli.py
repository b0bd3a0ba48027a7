"""Command line driver: simulate, compare, check-identities, version.

Exit codes: 0 success, 1 config error, 2 assertion or identity or
comparison failure, 3 I/O error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import SimConfig, config_from_dict
from .ensemble import PathEnsemble, _meta_to_json, check_threads, write_jsonl
from .entropy import entropy, entropy_gradient, entropy_laplacian
from .errors import ConfigInvalid, ShapeMismatch, SiegelError
from .geometry import (
    cayley_to_disk,
    cross_ratio,
    disk_metric,
    frame_at,
    frame_gram,
    normal_drift,
    takagi_of_disk,
)
from .linalg import unitary_algebra_basis, unitary_exp
from .matrix_flow import simulate_matrix_paths
from .particle_flow import simulate_particle_paths
from .stats import compare_ensembles, moment_report, time_index

__version__ = "0.1.0"

_HIST_BINS = 32
_THREADS_HELP = (
    "worker threads for the matrix scheme's chunks of 512 paths at n >= 4 and finite beta"
    " (default 1); particle-type schemes and the other matrix runs always run inline"
)


def _load_json(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigInvalid("config: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config: invalid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalid("config: top level must be a JSON object")
    return raw


def _run_scheme(cfg: SimConfig, threads: int) -> PathEnsemble:
    if cfg.scheme == "matrix":
        return simulate_matrix_paths(cfg, threads=threads)
    return simulate_particle_paths(cfg, threads=threads)


def _write_artifacts(ens: PathEnsemble, outdir: Path) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    write_jsonl(ens, outdir / "trajectories.jsonl")
    summary = moment_report(ens)
    summary["config"] = _meta_to_json(ens.meta)
    summary["events"] = [
        {"path": i, "stopped_at": float(s), "reason": r}
        for i, (s, r) in enumerate(zip(ens.stopped_at, ens.stop_reason))
        if np.isfinite(s)
    ]
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    j = ens.times.size - 1
    alive = ens.alive_mask(j)
    if np.any(alive):
        finals = ens.samples[alive, j, :]
        for k in range(finals.shape[1]):
            counts, edges = np.histogram(finals[:, k], bins=_HIST_BINS)
            lines = ["bin_left,bin_right,count"]
            lines += [
                f"{edges[i]:.17g},{edges[i + 1]:.17g},{int(c)}"
                for i, c in enumerate(counts)
            ]
            (outdir / f"hist_sigma_{k + 1}.csv").write_text("\n".join(lines) + "\n")
    return summary


def _cmd_simulate(args) -> int:
    check_threads(args.threads)
    cfg = config_from_dict(_load_json(args.config))
    ens = _run_scheme(cfg, args.threads)
    outdir = Path(args.out)
    summary = _write_artifacts(ens, outdir)
    n_stopped = sum(1 for s in ens.stopped_at if np.isfinite(s))
    print(
        f"{cfg.scheme}: {ens.n_paths} paths to t={cfg.t_final}"
        f" ({n_stopped} stopped, {int(np.sum(ens.rejections))} step rejections)"
    )
    print(f"artifacts in {outdir}")
    if summary.get("growth"):
        print(f"log sum-cosh growth rate: {summary['growth']['rate']:.6f}")
    return 0


def _check_comparable(ca: SimConfig, cb: SimConfig) -> None:
    if {ca.scheme, cb.scheme} != {"matrix", "particle"}:
        raise ConfigInvalid("scheme: compare needs one matrix and one particle config")
    # every field but the scheme, the seed and the cutoff, in field order
    for f in fields(SimConfig):
        va, vb = getattr(ca, f.name), getattr(cb, f.name)
        if f.name == "sigma0":
            va, vb = tuple(va), tuple(vb)
        if f.name not in ("scheme", "seed", "cutoff") and va != vb:
            raise ConfigInvalid(f"{f.name}: configs must match (got {va} vs {vb})")


def _cmd_compare(args) -> int:
    check_threads(args.threads)
    if not 0.0 < args.alpha < 1.0:
        raise ConfigInvalid(f"alpha: must be in (0, 1), got {args.alpha}")
    ca = config_from_dict(_load_json(args.config_a))
    cb = config_from_dict(_load_json(args.config_b))
    _check_comparable(ca, cb)
    time_index(ca.sample_times, args.t)  # fail on a --t off the grid before either run
    outdir = Path(args.out)
    ens_a = _run_scheme(ca, args.threads)
    ens_b = _run_scheme(cb, args.threads)
    _write_artifacts(ens_a, outdir / "a")
    _write_artifacts(ens_b, outdir / "b")
    report = compare_ensembles(ens_a, ens_b, alpha=args.alpha, t=args.t)
    report["scheme_a"] = ca.scheme
    report["scheme_b"] = cb.scheme
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "comparison.json").write_text(json.dumps(report, indent=2) + "\n")
    for test in report["tests"]:
        verdict = "REJECT" if test["reject"] else "ok"
        print(
            f"{test['name']}: D={test['statistic']:.5f}"
            f" threshold={test['threshold']:.5f} {verdict}"
        )
    stops = report["stop_fraction"]
    print(
        f"stopped by t: a {report['stopped_a']}/{report['paths_a']}"
        f" b {report['stopped_b']}/{report['paths_b']}:"
        f" z={stops['statistic']:.3f} threshold={stops['threshold']:.3f}"
        f" {'REJECT' if stops['reject'] else 'ok'}"
    )
    if report["any_reject"]:
        print(f"laws differ at t={report['t']} (alpha={report['alpha']})")
        return 2
    print(f"no distinguishable difference at t={report['t']} (alpha={report['alpha']})")
    return 0


def _random_chamber(rng: np.random.Generator, n: int) -> np.ndarray:
    gaps = rng.uniform(0.15, 0.6, size=n)
    return np.cumsum(gaps) + rng.uniform(0.05, 0.3)


def _random_half_point(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal((n, n))
    a = rng.standard_normal((n, n))
    return 0.5 * (x + x.T) + 1j * (a @ a.T + 0.3 * np.eye(n))


def _random_disk_point(rng: np.random.Generator, n: int) -> np.ndarray:
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q = unitary_exp(0.5 * (w - w.conj().T))
    mu = np.tanh(0.5 * _random_chamber(rng, n))
    return (q * mu) @ q.T


def check_identities(n_max: int, seed: int = 2024) -> dict:
    """Randomized residual suite for the geometric identities.

    For each n up to n_max: the Laplacian identity
    lap S + |grad S|^2 = n(n+1)(2n+1)/6, gradient vs central differences,
    the drift route agreement, frame Gram orthonormality, the cross-ratio
    factorization with spectrum in [0, 1), and the orbit volume: for the
    n^2 orbit tangents X r + r X^T at r = q diag(tanh(sigma/2)) q^T, X over
    unitary_algebra_basis(n), the Gram determinant G under disk_metric
    satisfies 1/2 log det G - S(sigma) = n(n+1)/2 log 2.
    """
    if not (1 <= n_max <= 8):
        raise ConfigInvalid("n_max: must be between 1 and 8")
    if seed < 0:
        raise ConfigInvalid(f"seed: must be a nonnegative integer, got {seed}")
    rng = np.random.default_rng(seed)
    checks = []

    def add(name, n, points, worst, tol):
        checks.append(
            {
                "name": name,
                "n": n,
                "points": points,
                "worst": float(worst),
                "tol": tol,
                "pass": bool(worst <= tol),
            }
        )

    for n in range(1, n_max + 1):
        c_n = n * (n + 1) * (2 * n + 1) / 6.0
        sig = np.stack([_random_chamber(rng, n) for _ in range(200)])
        grad = entropy_gradient(sig)
        resid = np.abs(entropy_laplacian(sig) + np.sum(grad * grad, axis=-1) - c_n)
        add("laplacian_identity", n, 200, np.max(resid) / c_n, 1e-8)

        drift_dev = np.abs(normal_drift(sig) - 0.5 * grad)
        add("drift_gradient_agreement", n, 200, np.max(drift_dev), 1e-12)

        worst_fd = 0.0
        eps = 1e-6
        for s in sig[:40]:
            fd = np.zeros(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = eps
                fd[k] = (entropy(s + e) - entropy(s - e)) / (2 * eps)
            g = entropy_gradient(s)
            worst_fd = max(worst_fd, float(np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))))
        add("gradient_finite_difference", n, 40, worst_fd, 1e-5)

        worst_gram = 0.0
        for _ in range(50):
            r = _random_disk_point(rng, n)
            tf = takagi_of_disk(r)
            sig_t = 2.0 * np.arctanh(tf.mu)
            gram = frame_gram(r, frame_at(tf, sig_t))
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(n * n + n)))))
        add("frame_gram", n, 50, worst_gram, 1e-10)

        worst_cr = 0.0
        worst_eig = 0.0
        for _ in range(50):
            z = _random_half_point(rng, n)
            r = cayley_to_disk(z).r
            cr = cross_ratio(z, 1j * np.eye(n))
            rrbar = r @ r.conj()
            worst_cr = max(
                worst_cr,
                float(np.linalg.norm(cr - rrbar) / max(1.0, np.linalg.norm(cr))),
            )
            lam = np.linalg.eigvalsh(0.5 * (cr + cr.conj().T))
            worst_eig = max(worst_eig, float(max(-lam[0], lam[-1] - (1 - 1e-14), 0.0)))
        add("cross_ratio_factorization", n, 50, worst_cr, 1e-10)
        add("cross_ratio_spectrum_range", n, 50, worst_eig, 0.0)

        vol_const = 0.5 * n * (n + 1) * np.log(2.0)
        gens = np.stack(unitary_algebra_basis(n))
        vol_err = []
        for _ in range(10):
            r = _random_disk_point(rng, n)
            s = 2.0 * np.arctanh(takagi_of_disk(r).mu)
            tangents = gens @ r + r @ np.swapaxes(gens, -1, -2)
            sign, logdet = np.linalg.slogdet(disk_metric(r, tangents[:, None], tangents[None, :]))
            err = abs(0.5 * logdet - entropy(s) - vol_const) / vol_const
            vol_err.append(err if sign > 0 else np.inf)
        add("orbit_volume", n, 10, np.max(vol_err), 1e-10)

    return {
        "seed": seed,
        "n_max": n_max,
        "c_n": [n * (n + 1) * (2 * n + 1) // 6 for n in range(1, n_max + 1)],
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }


def _cmd_check_identities(args) -> int:
    report = check_identities(args.n_max, seed=args.seed)
    for c in report["checks"]:
        flag = "pass" if c["pass"] else "FAIL"
        print(f"{c['name']} n={c['n']}: worst={c['worst']:.3e} tol={c['tol']:.1e} {flag}")
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "identities.json").write_text(json.dumps(report, indent=2) + "\n")
    print("all identities hold" if report["all_pass"] else "identity check FAILED")
    return 0 if report["all_pass"] else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelbm", description="Matrix and particle flows on the Siegel domain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p_cmp = sub.add_parser("compare", help="law comparison of two configurations")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--t", type=float, default=None, help="sample time (default: final)")
    p_cmp.add_argument("--alpha", type=float, default=0.01)
    p_cmp.add_argument("--out", default="compare-out")
    p_cmp.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)

    p_chk = sub.add_parser("check-identities", help="randomized identity residuals")
    p_chk.add_argument("--n-max", type=int, default=3)
    p_chk.add_argument("--seed", type=int, default=2024)
    p_chk.add_argument("--out", default=None)

    sub.add_parser("version", help="print the package version")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "version":
        print(__version__)
        return 0
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_check_identities(args)
    except (ConfigInvalid, ShapeMismatch) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SiegelError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
