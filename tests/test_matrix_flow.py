"""Tests for the disk-coordinate matrix flow and the factorized chart."""
from dataclasses import replace

import numpy as np
import pytest

from siegelbm import (
    ChamberExit,
    DomainExit,
    OutOfChamber,
    ShapeMismatch,
    SimConfig,
    ensembles_equal,
    extract_sigma,
    init_matrix_state,
    is_positive_definite,
    ks_two_sample,
    normal_drift,
    simulate_matrix_paths,
    simulate_particle_paths,
    step_matrix_flow,
    step_takagi_chart,
    unitary_exp,
)
from siegelbm import matrix_flow
from siegelbm.ensemble import OK
from siegelbm.matrix_flow import MatrixKernel, _noise_matrix
from siegelbm.stats import exact_sum_cosh_mean


def test_init_matrix_state():
    st = init_matrix_state(np.array([1.0, 2.0]))
    np.testing.assert_allclose(st.r, np.diag(np.tanh([0.5, 1.0])), atol=1e-15)
    np.testing.assert_array_equal(st.sigma_cache, [1.0, 2.0])
    assert st.t == 0.0
    with pytest.raises(OutOfChamber):
        init_matrix_state(np.array([2.0, 1.0]))


def test_init_matrix_state_refuses_a_frame_that_is_not_unitary_and_square():
    # diag(2, 1) used to give an r off the disk that kept stepping, a 3 x 3
    # frame for two sigma a raw numpy broadcast error, and a scalar frame a
    # raw IndexError
    with pytest.raises(ValueError, match="q is not unitary"):
        init_matrix_state((1.0, 2.0), np.diag([2.0, 1.0]))
    for q0 in (np.eye(3), 1.0):
        with pytest.raises(ShapeMismatch):
            init_matrix_state((1.0, 2.0), q0)


def test_step_zero_h():
    st = init_matrix_state(np.array([0.7, 1.9]))
    out = step_matrix_flow(st, beta=2.0, h=0.0, gaussians=np.zeros(6))
    np.testing.assert_allclose(out.r, st.r, atol=1e-14)
    np.testing.assert_allclose(out.sigma_cache, st.sigma_cache, atol=1e-12)


def test_step_requires_gaussian_layout():
    st = init_matrix_state(np.array([1.0]))
    with pytest.raises(ValueError):
        step_matrix_flow(st, beta=2.0, h=1e-3, gaussians=np.zeros(3))


def test_step_preserves_structure():
    # symmetry, disk membership and chamber ordering along a noisy run
    rng = np.random.default_rng(208)
    st = init_matrix_state(np.array([0.8, 1.6, 2.4]))
    for _ in range(200):
        st = step_matrix_flow(st, beta=2.0, h=1e-3, gaussians=rng.standard_normal(12))
        assert np.linalg.norm(st.r - st.r.T) < 1e-12
        assert is_positive_definite(np.eye(3) - st.r @ st.r.conj(), tol=0.0)
        sig = st.sigma_cache
        assert sig[0] > 0 and np.all(np.diff(sig) > 0)


def test_step_single_step_consistency():
    # beta = inf: sigma' is the mean-curvature step sigma + (h/2) grad S, to
    # roundoff against geometry.normal_drift's independent route, and no
    # draw moves it; the orbit draws move R on its orbit
    sig0 = 1.2
    drift = normal_drift(np.array([sig0]))[0]
    for h in (16e-3, 4e-3, 1e-3):
        st = init_matrix_state(np.array([sig0]))
        out = step_matrix_flow(st, np.inf, h, np.array([1.5, 0.3]))
        other = step_matrix_flow(st, np.inf, h, np.array([-0.7, -2.0]))
        np.testing.assert_array_equal(other.sigma_cache, out.sigma_cache)
        assert abs(out.sigma_cache[0] - sig0 - h * drift) <= 2.0 * np.spacing(sig0)
        assert np.max(np.abs(other.r - out.r)) > 1e-3


@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
@pytest.mark.parametrize("sig0", [0.3, 1.2])
def test_ito_step_weak_consistency(beta, sig0):
    # n = 1 at finite beta: the step's mean and variance over both draws,
    # by 20-node Gauss-Hermite quadrature in each, against the radial law's
    # drift (1/2) coth sigma and variance 2/beta.  Both errors shrink like
    # h^2 (measured ratio 12.7-19.7 per 4x refinement); at h = 16e-3 the
    # outer nodes leave the disk
    nodes, weights = np.polynomial.hermite_e.hermegauss(20)
    weights = np.outer(weights, weights).ravel() / np.sum(weights) ** 2
    xi = np.stack([np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)], axis=1)
    paths = np.arange(xi.shape[0])
    mean_err, var_err = [], []
    for h in (4e-3, 1e-3, 2.5e-4):
        kernel = MatrixKernel([sig0], beta, 1e-6)
        state = kernel.init(paths.size)
        status = kernel.attempt(state, paths, h, xi, np.ones(paths.size))
        assert np.all(status == OK)
        mean = weights @ state[0]
        mean_err.append(mean - sig0 - 0.5 * h / np.tanh(sig0))
        var_err.append(weights @ (state[0] - mean) ** 2 - 2.0 * h / beta)
    for err in (mean_err, var_err):
        assert 10.0 < err[0] / err[1] < 25.0
        assert 10.0 < err[1] / err[2] < 25.0


@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_finite_beta_step_needs_no_predictor_congruence_or_gradient(n, monkeypatch):
    # no kernel step factorizes or takes a congruence; only beta = inf, the
    # mean-curvature step, takes the entropy gradient
    def refuse(*args, **kwargs):
        raise AssertionError("called by a kernel step")

    gradient, calls = matrix_flow._gradient_raw, []
    for name in ("_takagi_batch", "_congruence", "_gradient_raw"):
        monkeypatch.setattr(matrix_flow, name, refuse)
    rng = np.random.default_rng(690 + n)
    sigma0 = np.linspace(0.5, 0.5 * n, n)
    xi = rng.standard_normal((16, n * n + n))
    for beta in (1.0, 2.0, 4.0, np.inf):
        if np.isinf(beta):
            monkeypatch.setattr(matrix_flow, "_gradient_raw", lambda s: calls.append(s) or gradient(s))
        kernel = MatrixKernel(sigma0, beta, 1e-6)
        state = kernel.init(16)
        status = kernel.attempt(state, np.arange(16), 1e-3, xi, np.ones(16))
        assert np.all(status == OK)
        assert np.all(state != sigma0[:, None])
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n, beta, sigma0, t_final, seed",
    [(3, 2.0, (0.1, 0.2, 0.3), 0.25, 2101), (2, 1.0, (0.1, 0.2), 0.5, 2102)],
    ids=["n3-beta2", "n2-beta1"],
)
def test_near_wall_cosh_moment(n, beta, sigma0, t_final, seed):
    # every coordinate starts near a chamber wall; E[sum cosh sigma_t] over
    # 10^4 paths at dt = 1e-3 against its exact value.  The Ito-Euler step
    # reads z = -0.60 and +1.44 here, the Heun step it replaced +5.15 and
    # +4.56; the singular values keep the walls, so no path stops
    cfg = SimConfig(scheme="matrix", n=n, beta=beta, sigma0=sigma0, t_final=t_final,
                    dt=1e-3, n_paths=10_000, seed=seed, sample_times=(t_final,))
    res = simulate_matrix_paths(cfg, threads=2)
    assert np.all(np.isnan(res.stopped_at))
    sc = np.sum(np.cosh(res.samples[:, -1, :]), axis=-1)
    z = (sc.mean() - exact_sum_cosh_mean(sigma0, beta, t_final)) / (sc.std(ddof=1) / np.sqrt(sc.size))
    assert abs(z) <= 4.0


# every path takes the same deterministic steps, so a few paths suffice;
# sigma stays below the disk-edge ceiling, which only the matrix scheme tests
@pytest.mark.parametrize(
    "sigma0, refines, stops",
    [((1.0,), False, False), ((1.0, 2.0), False, False), ((0.5, 1.0, 1.5), False, False),
     (tuple(0.5 * np.arange(1, 9)), False, False),
     ((0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 3.501), False, False),
     ((0.5, 0.5001), True, False), ((0.1, 0.100002), True, True)],
    ids=["n1", "n2", "n3", "n8", "n8-near-collision", "refines", "stops"],
)
def test_infinite_beta_matrix_ensemble_is_the_particle_ensemble(sigma0, refines, stops):
    # at beta = inf both schemes step sigma by sigma + (h/2) grad S, in the
    # same order, and neither reads its draws: the ensembles agree to the
    # bit.  Near a collision a full step overshoots the chamber wall, so
    # "refines" rejects and refines and "stops" ends every path at t = 0
    cfg = SimConfig(scheme="matrix", n=len(sigma0), beta=np.inf, sigma0=sigma0, t_final=0.02,
                    dt=1e-3, n_paths=6, seed=31, sample_times=(0.01, 0.02))
    a = simulate_matrix_paths(cfg, threads=2)
    b = simulate_particle_paths(replace(cfg, scheme="particle"))
    np.testing.assert_array_equal(a.samples, b.samples)
    np.testing.assert_array_equal(a.stopped_at, b.stopped_at)
    assert a.stop_reason == b.stop_reason
    np.testing.assert_array_equal(a.rejections, b.rejections)
    assert np.all(a.rejections > 0) == refines
    assert a.stop_reason == [("chamber-exit" if stops else None)] * cfg.n_paths


def test_step_domain_exit():
    st = init_matrix_state(np.array([25.0]))
    with pytest.raises(DomainExit):
        step_matrix_flow(st, beta=2.0, h=0.25, gaussians=np.array([0.0, 8.0]))


def test_step_chamber_exit():
    # widen the guard band so the post-step gap 1.0 falls below it while the
    # eigenvalues stay far inside the disk (domain check passes, chamber fails)
    st = init_matrix_state(np.array([1.0, 2.0]))
    with pytest.raises(ChamberExit):
        step_matrix_flow(st, beta=2.0, h=1e-3, gaussians=np.zeros(6), gap_floor=1.5)


def test_deterministic_limit_matches_closed_form():
    # beta = inf: the radial part follows cosh sigma_t = cosh sigma_0 e^{t/2}
    t_final, h = 0.25, 1e-3
    cfg = SimConfig(scheme="matrix", n=1, beta=np.inf, sigma0=(1.0,),
                    t_final=t_final, dt=h, n_paths=1, seed=5,
                    sample_times=(t_final,))
    res = simulate_matrix_paths(cfg)
    expect = np.cosh(1.0) * np.exp(0.5 * t_final)
    rel = abs(np.cosh(res.samples[0, -1, 0]) - expect) / expect
    assert rel <= 10 * h


def test_extract_sigma_diagonal():
    st = init_matrix_state(np.array([0.6, 1.8]))
    np.testing.assert_allclose(extract_sigma(st).sigma, [0.6, 1.8], atol=1e-12)
    # raw matrices work too
    np.testing.assert_allclose(
        extract_sigma(np.diag(np.tanh([0.3, 0.9])).astype(complex)).sigma,
        [0.6, 1.8],
        atol=1e-12,
    )


def test_extract_sigma_cache_consistency():
    st = init_matrix_state(np.array([0.6, 1.8]))
    st.sigma_cache = st.sigma_cache + 1e-3  # corrupt the cache
    with pytest.raises(ValueError):
        extract_sigma(st)


def test_extract_sigma_matches_cache_along_run():
    rng = np.random.default_rng(212)
    st = init_matrix_state(np.array([1.0, 2.0]))
    for _ in range(50):
        st = step_matrix_flow(st, beta=2.0, h=1e-3, gaussians=rng.standard_normal(6))
    np.testing.assert_allclose(extract_sigma(st).sigma, st.sigma_cache, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_sigma_does_not_depend_on_frame_column_signs(n):
    # the single-state step computes sigma from sigma and the draws alone,
    # so replacing the frame Q by any unitary, a change of column signs
    # among them, keeps every bit of sigma, while the disk point moves
    rng = np.random.default_rng(660 + n)
    st = init_matrix_state(np.linspace(0.5, 0.5 * n, n))
    for _ in range(3):  # away from the identity frame
        st = step_matrix_flow(st, 2.0, 1e-3, rng.standard_normal(n * n + n))
    for _ in range(4):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        turned = init_matrix_state(st.sigma_cache, np.linalg.qr(z)[0], st.t)
        xi = rng.standard_normal(n * n + n)
        moved, moved_turned = (step_matrix_flow(s, 2.0, 1e-3, xi) for s in (st, turned))
        np.testing.assert_array_equal(moved_turned.sigma_cache, moved.sigma_cache)
        assert np.max(np.abs(moved_turned.r - moved.r)) > 1e-3


def test_frame_stays_unitary_over_long_runs():
    # the single-state step's Q' = Q V accumulates one product per step with
    # no re-orthonormalization; after 10^4 steps Q is still unitary, and it
    # has moved
    n = 3
    rng = np.random.default_rng(680)
    st = init_matrix_state(np.array([0.5, 1.0, 1.5]))
    for _ in range(10_000):
        st = step_matrix_flow(st, 2.0, 1e-4, rng.standard_normal(n * n + n))
    q = st.q_cache
    assert np.max(np.abs(q.conj().T @ q - np.eye(n))) < 1e-12
    assert np.max(np.abs(np.abs(q) - np.eye(n))) > 1e-2


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_path_subset_steps_as_in_the_full_batch(n):
    # a step over some of the paths gathers them from, and stores them back
    # into, the path-last state; each path gets the bits it gets in a step
    # over every path.  The state and the noise matrix are C-ordered at
    # every n, on both sides of _ELEMENTWISE_MAX_N
    rng = np.random.default_rng(670 + n)
    c = 12
    kernel = MatrixKernel(np.linspace(0.5, 0.5 * n, n), 2.0, 1e-6)
    full = kernel.init(c)
    assert full.flags.c_contiguous
    kernel.attempt(full, np.arange(c), 1e-3, rng.standard_normal((c, n * n + n)), np.ones(c))
    part = full.copy()
    xi = rng.standard_normal((c, n * n + n))
    idx = np.array([1, 4, 5, 10])
    kernel.attempt(full, np.arange(c), 1e-3, xi, np.ones(c))
    kernel.attempt(part, idx, 1e-3, xi[idx], np.ones(idx.size))
    assert part.flags.c_contiguous and full.flags.c_contiguous
    assert _noise_matrix(xi[idx], n, 2.0).flags.c_contiguous
    np.testing.assert_array_equal(part[:, idx], full[:, idx])
    rest = np.setdiff1d(np.arange(c), idx)
    assert not np.any(part[:, rest] == full[:, rest])


def test_conjugation_invariance_of_radial_law():
    # sigma' is computed from sigma and the draws alone, so the starting
    # frame changes no bit of sigma: a single-state step from (sigma, Q0)
    # against one from (sigma, I) on the same draws
    rng = np.random.default_rng(123)
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q0 = unitary_exp(0.5 * (w - w.conj().T))
    st, st_q = init_matrix_state((1.0, 2.0)), init_matrix_state((1.0, 2.0), q0)
    for _ in range(20):
        xi = rng.standard_normal(6)
        st, st_q = step_matrix_flow(st, 2.0, 1e-3, xi), step_matrix_flow(st_q, 2.0, 1e-3, xi)
        np.testing.assert_array_equal(st_q.sigma_cache, st.sigma_cache)
    assert np.max(np.abs(st_q.r - st.r)) > 1e-3


def test_chart_stepper_matches_matrix_law():
    # factorized (sigma, Q) integration agrees with the disk stepper in law
    n, beta, t_final, h, n_paths = 2, 2.0, 0.1, 1e-3, 800
    steps = int(round(t_final / h))
    sig0 = np.array([1.5, 3.0])
    sig_chart = np.zeros((n_paths, n))
    for p in range(n_paths):
        # Philox keyed like ensemble.path_generator under an ID no scheme
        # has, so the chart's draws are independent of the matrix run's
        gen = np.random.Generator(np.random.Philox(key=[99, 7 << 48 | p]))
        sig, q = sig0.copy(), np.eye(n, dtype=complex)
        xi = gen.standard_normal((steps, n * n + n))
        for j in range(steps):
            sig, q = step_takagi_chart(sig, q, beta, h, xi[j])
        sig_chart[p] = sig
    cfg = SimConfig(scheme="matrix", n=n, beta=beta, sigma0=tuple(sig0),
                    t_final=t_final, dt=h, n_paths=n_paths, seed=99,
                    sample_times=(t_final,))
    ens = simulate_matrix_paths(cfg, threads=2)
    for k in range(n):
        res = ks_two_sample(sig_chart[:, k], ens.samples[:, -1, k], alpha=0.01)
        assert not res.reject


def test_chart_stepper_unitary_factor():
    # Q stays unitary and the radial part is untouched by orbit draws
    sig = np.array([1.0, 2.0])
    xi = np.zeros(6)
    xi[:4] = [0.7, -0.3, 0.4, 1.1]  # orbit draws only
    sig_new, q_new = step_takagi_chart(sig, np.eye(2, dtype=complex), 2.0, 1e-3, xi)
    np.testing.assert_allclose(
        sig_new, sig + 0.5e-3 * 2 * normal_drift(sig), atol=1e-15
    )
    np.testing.assert_allclose(q_new.conj().T @ q_new, np.eye(2), atol=1e-12)
    assert np.linalg.norm(q_new - np.eye(2)) > 1e-3  # the frame did move


def test_matrix_ensemble_deterministic_across_threads():
    cfg = SimConfig(scheme="matrix", n=2, beta=2.0, sigma0=(1.0, 2.0),
                    t_final=0.05, dt=1e-3, n_paths=300, seed=14,
                    sample_times=(0.05,))
    a = simulate_matrix_paths(cfg, threads=1)
    b = simulate_matrix_paths(cfg, threads=4)
    assert ensembles_equal(a, b)
