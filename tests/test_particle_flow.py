"""Tests for the spectral-level flows and their flat companions."""
import numpy as np
import pytest

from siegelbm import (
    ChamberExit,
    OriginHit,
    OutOfChamber,
    SimConfig,
    dyson_drift,
    ensembles_equal,
    entropy_gradient,
    integrate_mean_curvature,
    siegel_drift,
    simulate_particle_paths,
    step_particles,
    step_sphere_point,
)
from siegelbm.stats import exact_sum_cosh_mean


def _closed_form_radial(sigma0: float, t: float) -> float:
    # n = 1 deterministic flow: cosh sigma grows exactly like e^{t/2}
    return float(np.arccosh(np.cosh(sigma0) * np.exp(0.5 * t)))


def test_siegel_drift_values():
    d = siegel_drift(np.array([1.0, 2.0]))
    np.testing.assert_allclose(d, [0.3917271375606304, 1.3358435620440652], atol=1e-12)
    np.testing.assert_allclose(
        siegel_drift(np.array([1.0, 2.0])),
        0.5 * entropy_gradient(np.array([1.0, 2.0])),
        atol=1e-15,
    )


def test_dyson_drift_values():
    np.testing.assert_allclose(dyson_drift(np.array([0.0, 1.0])), [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(dyson_drift(np.array([0.5])), [0.0], atol=1e-15)
    rng = np.random.default_rng(17)
    lam = np.sort(rng.standard_normal(5))
    assert abs(np.sum(dyson_drift(lam))) < 1e-12  # pair antisymmetry
    with pytest.raises(OutOfChamber):
        dyson_drift(np.array([1.0, 1.0]))


def test_step_particles_zero_h():
    sig = np.array([0.7, 1.4])
    out = step_particles(sig, beta=2.0, h=0.0, gaussians=np.zeros(2))
    np.testing.assert_array_equal(out, sig)


def test_step_particles_deterministic_limit():
    # beta = inf drops the noise: one Euler step of the drift
    sig = np.array([1.0, 2.0])
    h = 1e-3
    out = step_particles(sig, beta=np.inf, h=h, gaussians=np.zeros(2))
    np.testing.assert_allclose(out, sig + h * siegel_drift(sig), atol=1e-15)


def test_step_particles_noise_scale():
    sig = np.array([1.0, 2.0])
    h = 1e-4
    xi = np.array([0.3, -0.2])
    out = step_particles(sig, beta=2.0, h=h, gaussians=xi)
    expect = sig + h * siegel_drift(sig) + np.sqrt(h) * xi
    np.testing.assert_allclose(out, expect, atol=1e-15)


def test_step_particles_chamber_exit():
    with pytest.raises(ChamberExit):
        step_particles(
            np.array([1.0, 1.1]), beta=2.0, h=1e-2, gaussians=np.array([5.0, -5.0])
        )


def test_step_particles_cutoff_freeze():
    # log cosh norm of (1, 2) is ~1.67, so big_k = 0.5 puts the state past
    # the outer ramp: eta = 0 and the state must not move
    sig = np.array([1.0, 2.0])
    out = step_particles(
        sig, beta=2.0, h=1e-2, gaussians=np.array([1.0, 1.0]), cutoff=(50.0, 0.5)
    )
    np.testing.assert_array_equal(out, sig)


def test_mean_curvature_closed_form():
    t_final, h = 1.0, 1e-3
    times, traj = integrate_mean_curvature(np.array([1.0]), t_final, h)
    assert times.shape == (1001,) and traj.shape == (1001, 1)
    assert abs(traj[-1, 0] - _closed_form_radial(1.0, t_final)) < 1e-10


def test_mean_curvature_rk4_order():
    # global error of the classical scheme drops ~16x per halving
    sig0 = np.array([0.8, 1.6])
    ref = integrate_mean_curvature(sig0, 0.5, 5e-4)[1][-1]
    errs = []
    for h in (2e-2, 1e-2, 5e-3):
        end = integrate_mean_curvature(sig0, 0.5, h)[1][-1]
        errs.append(np.max(np.abs(end - ref)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert 12.0 < r1 < 20.0
    assert 12.0 < r2 < 20.0


def test_mean_curvature_gaps_spread():
    _, traj = integrate_mean_curvature(np.array([0.5, 1.0, 1.5]), 1.0, 1e-3)
    gaps0 = np.diff(traj[0])
    gaps1 = np.diff(traj[-1])
    assert np.all(gaps1 > gaps0)  # repulsive interaction widens the chamber


def test_mean_curvature_scheme_matches_integrator():
    cfg = SimConfig(scheme="mean-curvature", n=2, beta=np.inf, sigma0=(0.8, 1.6),
                    t_final=0.2, dt=1e-3, n_paths=1, seed=1, sample_times=(0.1, 0.2))
    ensm = simulate_particle_paths(cfg)
    times, traj = integrate_mean_curvature(np.array([0.8, 1.6]), 0.2, 1e-3)
    np.testing.assert_allclose(ensm.samples[0, 0], traj[100], atol=1e-12)
    np.testing.assert_allclose(ensm.samples[0, 1], traj[200], atol=1e-12)


def test_radial_moment_growth():
    # E[sum cosh sigma_T] = sum cosh sigma_0 * exp((n/2 + 1/beta) T)
    n, beta, t_final = 2, 2.0, 0.25
    sig0 = (0.8, 1.6)
    cfg = SimConfig(scheme="particle", n=n, beta=beta, sigma0=sig0,
                    t_final=t_final, dt=1e-3, n_paths=3000, seed=11,
                    sample_times=(t_final,))
    res = simulate_particle_paths(cfg, threads=2)
    live = np.isnan(res.stopped_at)
    sc = np.sum(np.cosh(res.samples[live, -1, :]), axis=1)
    target = exact_sum_cosh_mean(sig0, beta, t_final)
    z = (sc.mean() - target) / (sc.std(ddof=1) / np.sqrt(live.sum()))
    assert abs(z) < 4.0


def test_dyson_moment_growth():
    # E[sum lambda^2] grows linearly at rate n(n-1) + 2n/beta
    cfg = SimConfig(scheme="dyson", n=2, beta=2.0, sigma0=(0.0, 1.0),
                    t_final=0.5, dt=1e-3, n_paths=4000, seed=5,
                    sample_times=(0.5,))
    res = simulate_particle_paths(cfg, threads=2)
    live = np.isnan(res.stopped_at)
    s2 = np.sum(res.samples[live, -1, :] ** 2, axis=1)
    target = 1.0 + (2 * 1 + 2 * 2 / 2.0) * 0.5
    z = (s2.mean() - target) / (s2.std(ddof=1) / np.sqrt(live.sum()))
    assert abs(z) < 4.0


def test_sphere_point_step_geometry():
    # tangential noise passes through, radial noise is scaled by the model
    h = 1e-2
    z = np.array([1.0, 0.0, 0.0])
    xi = np.array([0.4, -0.3, 0.2])
    out = step_sphere_point(z, beta=np.inf, h=h, gaussians=xi)
    np.testing.assert_allclose(
        out, [1.0, np.sqrt(h) * -0.3, np.sqrt(h) * 0.2], atol=1e-15
    )
    out2 = step_sphere_point(z, beta=2.0, h=h, gaussians=xi)
    np.testing.assert_allclose(
        out2, [1.0 + np.sqrt(h) * 0.4, np.sqrt(h) * -0.3, np.sqrt(h) * 0.2], atol=1e-15
    )


def test_sphere_point_origin_hit():
    with pytest.raises(OriginHit):
        step_sphere_point(np.array([1e-7, 0.0]), beta=2.0, h=1e-3, gaussians=np.zeros(2))


def test_sphere_radius_drift():
    cfg = SimConfig(scheme="sphere-radius", n=3, beta=np.inf, sigma0=(1.0,),
                    t_final=0.1, dt=1e-3, n_paths=1, seed=1, sample_times=(0.1,))
    res = simulate_particle_paths(cfg)
    # deterministic limit solves r' = (n-1)/(2r): r(t) = sqrt(r0^2 + (n-1)t)
    expect = np.sqrt(1.0 + 2 * 0.1)
    assert abs(res.samples[0, -1, 0] - expect) < 1e-4


def test_sphere_radius_square_moment():
    cfg = SimConfig(scheme="sphere-point", n=3, beta=2.0, sigma0=(1.0,),
                    t_final=0.5, dt=1e-3, n_paths=3000, seed=23,
                    sample_times=(0.5,))
    res = simulate_particle_paths(cfg, threads=2)
    r2 = np.sum(res.samples[:, -1, :] ** 2, axis=1)
    target = 1.0 + (3 - 1 + 2 / 2.0) * 0.5
    z = (r2.mean() - target) / (r2.std(ddof=1) / np.sqrt(len(r2)))
    assert abs(z) < 4.0


def test_subcritical_beta_stops_paths():
    # below the critical noise level discrete paths do reach the walls
    cfg = SimConfig(scheme="particle", n=2, beta=0.5, sigma0=(0.9, 1.0),
                    t_final=1.0, dt=1e-3, n_paths=1000, seed=2024)
    res = simulate_particle_paths(cfg, threads=2)
    stopped = ~np.isnan(res.stopped_at)
    assert np.sum(stopped) > 0
    for p in np.nonzero(stopped)[0]:
        assert res.stop_reason[p] == "chamber-exit"
        # samples past the stop time are masked out
        assert np.all(np.isnan(res.samples[p, res.times >= res.stopped_at[p], :]))


def test_stop_times_on_refinement_grid():
    # stopping times live on the dyadic substep grid inside one interval
    cfg = SimConfig(scheme="particle", n=3, beta=0.5, sigma0=(0.3, 0.6, 0.9),
                    t_final=0.3, dt=1e-3, n_paths=400, seed=17)
    res = simulate_particle_paths(cfg)
    stopped = res.stopped_at[~np.isnan(res.stopped_at)]
    assert stopped.size > 0
    units = stopped / (1e-3 / 1024)
    np.testing.assert_allclose(units, np.round(units), atol=1e-6)


def test_ensemble_deterministic_across_threads():
    cfg = SimConfig(scheme="particle", n=2, beta=2.0, sigma0=(1.0, 2.0),
                    t_final=0.1, dt=1e-3, n_paths=600, seed=9,
                    sample_times=(0.05, 0.1))
    a = simulate_particle_paths(cfg, threads=1)
    b = simulate_particle_paths(cfg, threads=4)
    assert ensembles_equal(a, b)


def test_schemes_share_seed_independently():
    # the same master seed drives decorrelated streams per scheme
    kw = dict(n=1, beta=2.0, sigma0=(1.0,), t_final=0.01, dt=1e-3,
              n_paths=50, seed=77, sample_times=(0.01,))
    a = simulate_particle_paths(SimConfig(scheme="particle", **kw))
    b = simulate_particle_paths(SimConfig(scheme="sphere-radius", **kw))
    assert not np.allclose(
        a.samples[:, -1, 0] - 1.0, b.samples[:, -1, 0] - 1.0, atol=1e-4
    )
