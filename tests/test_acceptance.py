"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every stochastic criterion is pinned to a fixed seed, so the
observed statistics are reproducible bit for bit.
"""
import time

import numpy as np

from siegelbm import (
    SimConfig,
    cayley_to_disk,
    compare_ensembles,
    cross_ratio,
    ensembles_equal,
    entropy,
    entropy_gradient,
    entropy_laplacian,
    frame_at,
    frame_gram,
    integrate_mean_curvature,
    ks_two_sample,
    normal_drift,
    siegel_drift,
    simulate_matrix_paths,
    simulate_particle_paths,
    takagi_of_disk,
    write_jsonl,
)
from siegelbm.cli import _random_chamber, _random_disk_point, _random_half_point
from siegelbm.stats import exact_sum_cosh_mean


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_laplacian_identity():
    # lap S + |grad S|^2 = n(n+1)(2n+1)/6, 200 points per n, n = 1..6
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        c_n = n * (n + 1) * (2 * n + 1) / 6.0
        sig = np.stack([_random_chamber(rng, n) for _ in range(200)])
        grad = entropy_gradient(sig)
        resid = np.abs(entropy_laplacian(sig) + np.sum(grad * grad, axis=-1) - c_n)
        worst = max(worst, float(np.max(resid)) / c_n)
    dt = time.perf_counter() - t0
    _report(1, worst <= 1e-8 and dt < 1.0, f"worst rel residual {worst:.2e}, {dt:.2f}s")


def test_criterion_02_drift_routes_agree():
    # matrix-level normal drift, particle drift, and half the entropy
    # gradient all coincide; gradient agrees with central differences
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_fd = 0.0
    eps = 1e-6
    for n in range(1, 7):
        sig = np.stack([_random_chamber(rng, n) for _ in range(200)])
        grad = entropy_gradient(sig)
        worst_eq = max(worst_eq, float(np.max(np.abs(normal_drift(sig) - 0.5 * grad))))
        worst_eq = max(worst_eq, float(np.max(np.abs(siegel_drift(sig) - 0.5 * grad))))
        for s in sig[:40]:
            fd = np.zeros(n)
            for k in range(n):
                e = np.zeros(n)
                e[k] = eps
                fd[k] = (entropy(s + e) - entropy(s - e)) / (2 * eps)
            g = entropy_gradient(s)
            rel = np.max(np.abs(g - fd) / np.maximum(1.0, np.abs(g)))
            worst_fd = max(worst_fd, float(rel))
    dt = time.perf_counter() - t0
    ok = worst_eq <= 1e-12 and worst_fd <= 1e-5 and dt < 1.0
    _report(2, ok, f"route dev {worst_eq:.2e}, FD dev {worst_fd:.2e}, {dt:.2f}s")


def test_criterion_03_frame_orthonormal():
    # the moving frame is orthonormal for the disk metric, 40 points per n
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        dim = n * n + n
        for _ in range(40):
            r = _random_disk_point(rng, n)
            tf = takagi_of_disk(r)
            sig = 2.0 * np.arctanh(tf.mu)
            gram = frame_gram(r, frame_at(tf, sig))
            worst = max(worst, float(np.max(np.abs(gram - np.eye(dim)))))
    dt = time.perf_counter() - t0
    _report(3, worst <= 1e-10 and dt < 5.0, f"worst gram dev {worst:.2e}, {dt:.2f}s")


def test_criterion_04_cross_ratio_factorization():
    # cross ratio against the center point factors through the disk image,
    # with spectrum inside [0, 1); 167 points per n, n = 1..6
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    worst_res = 0.0
    worst_eig = 0.0
    for n in range(1, 7):
        for _ in range(167):
            z = _random_half_point(rng, n)
            r = cayley_to_disk(z).r
            cr = cross_ratio(z, 1j * np.eye(n))
            rrbar = r @ r.conj()
            worst_res = max(
                worst_res,
                float(np.linalg.norm(cr - rrbar) / max(1.0, np.linalg.norm(cr))),
            )
            lam = np.linalg.eigvalsh(0.5 * (cr + cr.conj().T))
            worst_eig = max(worst_eig, float(max(-lam[0], lam[-1] - (1 - 1e-14), 0.0)))
    dt = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_eig <= 0.0 and dt < 5.0
    _report(4, ok, f"factorization dev {worst_res:.2e}, spectrum excess {worst_eig:.1e}, {dt:.2f}s")


def test_criterion_05_matrix_particle_law_agreement():
    # 5000 paths per integrator, n=2, beta=2, T=0.5: the radial marginals
    # and sum cosh agree under Bonferroni-corrected KS at alpha=0.01
    base = dict(
        n=2, beta=2.0, sigma0=np.array([1.0, 2.0]), t_final=0.5, dt=1e-3,
        n_paths=5000, seed=31415,
    )
    ens_m = simulate_matrix_paths(SimConfig(scheme="matrix", **base), threads=4)
    ens_p = simulate_particle_paths(SimConfig(scheme="particle", **base), threads=4)
    rep = compare_ensembles(ens_m, ens_p, alpha=0.01)
    detail = ", ".join(
        f"{r['name']} D={r['statistic']:.4f} (thr {r['threshold']:.4f})"
        for r in rep["tests"]
    )
    stops = int(np.sum(np.isfinite(ens_m.stopped_at))) + int(
        np.sum(np.isfinite(ens_p.stopped_at))
    )
    _report(5, not rep["any_reject"] and stops == 0, f"{detail}, {stops} stops")


def test_criterion_06_cosh_moment_growth():
    # E[sum cosh sigma_T] = (sum cosh sigma_0) e^{(n/2 + 1/beta) T} within
    # 3 SE over 10^4 paths; the deterministic limit is held to 10 h relative
    sig0 = {1: [1.0], 2: [1.0, 2.0], 3: [0.5, 1.0, 1.5]}
    t_final, h = 0.5, 1e-3
    fails = []
    details = []
    for n in (1, 2, 3):
        for beta in (2.0, 4.0, np.inf):
            cfg = SimConfig(
                n=n, beta=beta, sigma0=np.array(sig0[n]), t_final=t_final, dt=h,
                n_paths=10_000, seed=606, scheme="particle",
            )
            ens = simulate_particle_paths(cfg, threads=4)
            alive = ens.alive_mask(ens.times.size - 1)
            sc = np.sum(np.cosh(ens.samples[alive, -1, :]), axis=-1)
            target = exact_sum_cosh_mean(sig0[n], beta, t_final)
            if np.isinf(beta):
                rel = abs(float(np.mean(sc)) - target) / target
                details.append(f"n={n} b=inf rel={rel:.1e}")
                if rel > 10 * h:
                    fails.append(details[-1])
            else:
                se = float(np.std(sc, ddof=1) / np.sqrt(sc.size))
                z = (float(np.mean(sc)) - target) / se
                details.append(f"n={n} b={beta:g} z={z:+.2f}")
                if abs(z) > 3.0:
                    fails.append(details[-1])
    _report(6, not fails, "; ".join(details))


def test_criterion_07_radial_closed_form():
    # n=1: cosh sigma_t = cosh sigma_0 e^{t/2}.  RK4 hits it to 1e-10, the
    # matrix integrator in the deterministic limit to 10 h relative, and
    # RK4 refinement shows fourth-order error ratios
    closed_t1 = np.arccosh(np.cosh(1.0) * np.exp(0.5))
    _, traj = integrate_mean_curvature(np.array([1.0]), 1.0, 1e-3)
    rk4_err = abs(float(traj[-1, 0]) - closed_t1)

    h = 1e-3
    cfg = SimConfig(
        n=1, beta=np.inf, sigma0=np.array([1.0]), t_final=0.25, dt=h,
        n_paths=1, seed=5, scheme="matrix",
    )
    ens = simulate_matrix_paths(cfg)
    closed_t025 = np.arccosh(np.cosh(1.0) * np.exp(0.125))
    mat_rel = abs(float(ens.samples[0, -1, 0]) - closed_t025) / closed_t025

    errs = []
    for step in (2e-2, 1e-2, 5e-3):
        _, traj = integrate_mean_curvature(np.array([1.0]), 1.0, step)
        errs.append(abs(float(traj[-1, 0]) - closed_t1))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok = (
        rk4_err <= 1e-10
        and mat_rel <= 10 * h
        and all(12.0 <= r <= 20.0 for r in ratios)
    )
    _report(
        7, ok,
        f"RK4 err {rk4_err:.1e}, matrix rel {mat_rel:.1e},"
        f" ratios {ratios[0]:.1f}/{ratios[1]:.1f}",
    )


def test_criterion_08_no_collisions_at_beta_2():
    # beta=2, n=3, T=1, 10^4 paths: no path ever leaves the chamber
    cfg = SimConfig(
        n=3, beta=2.0, sigma0=np.array([0.5, 1.0, 1.5]), t_final=1.0, dt=1e-3,
        n_paths=10_000, seed=2028, scheme="particle",
    )
    ens = simulate_particle_paths(cfg, threads=4)
    stops = int(np.sum(np.isfinite(ens.stopped_at)))
    rej = int(np.sum(ens.rejections))
    _report(8, stops == 0, f"{stops} stopped paths, {rej} step rejections, 10000 paths")


def test_criterion_09_flat_sphere_model():
    # deterministic-noise point cloud pins |z_t|^2 = r0^2 + (n-1) t per
    # path; at finite beta the slope is n-1+2/beta; the ambient and scalar
    # radius integrators agree in law
    h = 1e-3
    cfg = SimConfig(
        n=3, beta=np.inf, sigma0=np.array([1.0]), t_final=2e-3, dt=h,
        n_paths=25, seed=62, scheme="sphere-point",
    )
    ens = simulate_particle_paths(cfg)
    dev = float(np.max(np.abs(ens.samples[:, -1, 0] ** 2 - (1.0 + 2 * 2e-3))))

    cfg = SimConfig(
        n=3, beta=2.0, sigma0=np.array([1.0]), t_final=0.5, dt=h,
        n_paths=4000, seed=78, scheme="sphere-point",
    )
    ens = simulate_particle_paths(cfg, threads=4)
    r2 = ens.samples[ens.alive_mask(-1), -1, 0] ** 2
    target = 1.0 + (3 - 1 + 2 / 2.0) * 0.5
    z = (float(np.mean(r2)) - target) / float(np.std(r2, ddof=1) / np.sqrt(r2.size))

    common = dict(n=3, beta=2.0, sigma0=np.array([1.0]), t_final=0.5, dt=h, n_paths=4000)
    ep = simulate_particle_paths(
        SimConfig(seed=79, scheme="sphere-point", **common), threads=4
    )
    er = simulate_particle_paths(
        SimConfig(seed=80, scheme="sphere-radius", **common), threads=4
    )
    ks = ks_two_sample(
        ep.samples[ep.alive_mask(-1), -1, 0],
        er.samples[er.alive_mask(-1), -1, 0],
        alpha=0.01,
    )
    ok = dev <= 10 * h and abs(z) <= 3.0 and not ks.reject
    _report(
        9, ok,
        f"pathwise dev {dev:.1e}, slope z={z:+.2f},"
        f" KS D={ks.statistic:.4f} (thr {ks.threshold:.4f})",
    )


def test_criterion_10_thread_count_invariance(tmp_path):
    # identical seeds give byte-identical trajectory files whatever the
    # thread count, for both integrators
    p_cfg = SimConfig(
        n=2, beta=2.0, sigma0=np.array([1.0, 2.0]), t_final=0.05, dt=1e-3,
        n_paths=600, seed=910, scheme="particle",
    )
    m_cfg = SimConfig(
        n=1, beta=2.0, sigma0=np.array([1.2]), t_final=0.02, dt=1e-3,
        n_paths=300, seed=911, scheme="matrix",
    )
    checks = []
    for label, cfg, run in (("particle", p_cfg, simulate_particle_paths),
                            ("matrix", m_cfg, simulate_matrix_paths)):
        files = []
        ensembles = []
        for threads in (1, 4):
            ens = run(cfg, threads=threads)
            path = tmp_path / f"{label}_{threads}.jsonl"
            write_jsonl(ens, path)
            files.append(path.read_bytes())
            ensembles.append(ens)
        checks.append(files[0] == files[1] and ensembles_equal(*ensembles))
    _report(10, all(checks), f"particle identical: {checks[0]}, matrix identical: {checks[1]}")
