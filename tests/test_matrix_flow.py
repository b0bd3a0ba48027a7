"""Tests for the disk-coordinate matrix flow and the factorized chart."""
import numpy as np
import pytest

from siegelbm import (
    ChamberExit,
    DomainExit,
    OutOfChamber,
    SimConfig,
    ensembles_equal,
    extract_sigma,
    init_matrix_state,
    is_positive_definite,
    ks_two_sample,
    normal_drift,
    simulate_matrix_paths,
    step_matrix_flow,
    step_takagi_chart,
    unitary_exp,
)
from siegelbm import ensemble as ens
from siegelbm.ensemble import path_generator
from siegelbm.matrix_flow import MatrixKernel


def test_init_matrix_state():
    st = init_matrix_state(np.array([1.0, 2.0]))
    np.testing.assert_allclose(st.r, np.diag(np.tanh([0.5, 1.0])), atol=1e-15)
    np.testing.assert_array_equal(st.sigma_cache, [1.0, 2.0])
    assert st.t == 0.0
    with pytest.raises(OutOfChamber):
        init_matrix_state(np.array([2.0, 1.0]))


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
    # one radial-only step minus (drift + noise) leaves a remainder that
    # shrinks faster than h (measured ~h^1.5, ratio ~8 per 4x refinement)
    beta, sig0 = 2.0, 1.2
    for xi in (1.5, -0.7):
        res = []
        for h in (16e-3, 4e-3, 1e-3):
            st = init_matrix_state(np.array([sig0]))
            out = step_matrix_flow(st, beta, h, np.array([0.0, xi]))
            pred = (
                sig0
                + h * normal_drift(np.array([sig0]))[0]
                + np.sqrt(2.0 / beta) * np.sqrt(h) * xi
            )
            res.append(abs(out.sigma_cache[0] - pred))
        assert res[-1] < 2e-5
        assert 5.5 < res[0] / res[1] < 12.0
        assert 5.5 < res[1] / res[2] < 12.0


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


def _disk_points(state):
    q, mu = state["q"], np.tanh(0.5 * state["sigma"])
    return np.einsum("ij...,j...,kj...->ik...", q, mu, q)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_sigma_does_not_depend_on_frame_column_signs(n):
    # the step computes sigma from sigma and the draws alone, so replacing
    # the frame Q by any unitary, a change of column signs among them, keeps
    # every bit of sigma, while the disk point Q diag(mu) Q^T moves
    rng = np.random.default_rng(660 + n)
    c = 32
    kernel = MatrixKernel(np.linspace(0.5, 0.5 * n, n), 2.0, 1e-6)
    idx, frac = np.arange(c), np.ones(c)
    state = kernel.init(c)
    for _ in range(3):  # away from the identity frame
        kernel.attempt(state, idx, 1e-3, rng.standard_normal((c, n * n + n)), frac)
    turned = {key: val.copy(order="K") for key, val in state.items()}
    z = rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n))
    turned["q"][...] = np.moveaxis(np.linalg.qr(z)[0], 0, -1)
    xi = rng.standard_normal((c, n * n + n))
    for st in (state, turned):
        assert np.all(kernel.attempt(st, idx, 1e-3, xi, frac) == ens.OK)
    np.testing.assert_array_equal(turned["sigma"], state["sigma"])
    assert np.max(np.abs(_disk_points(turned) - _disk_points(state))) > 1e-3


def test_frame_stays_unitary_over_long_runs():
    # Q' = Q V accumulates one product per accepted step with no
    # re-orthonormalization; after 10^4 steps Q is still unitary
    n, c = 3, 4
    rng = np.random.default_rng(680)
    kernel = MatrixKernel(np.array([0.5, 1.0, 1.5]), 2.0, 1e-6)
    state = kernel.init(c)
    idx, frac = np.arange(c), np.ones(c)
    accepted = 0
    for _ in range(10_000):
        status = kernel.attempt(state, idx, 1e-4, rng.standard_normal((c, n * n + n)), frac)
        accepted += np.count_nonzero(status == ens.OK)
    assert accepted > 0.99 * 10_000 * c
    q = np.moveaxis(state["q"], -1, 0)
    assert np.max(np.abs(np.swapaxes(q.conj(), -1, -2) @ q - np.eye(n))) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 8])
def test_path_subset_steps_as_in_the_full_batch(n):
    # a step over some of the paths gathers them from, and stores them back
    # into, the path-last state in its memory order; each path gets the bits
    # it gets in a step over every path
    rng = np.random.default_rng(670 + n)
    c = 12
    kernel = MatrixKernel(np.linspace(0.5, 0.5 * n, n), 2.0, 1e-6)
    full = kernel.init(c)
    kernel.attempt(full, np.arange(c), 1e-3, rng.standard_normal((c, n * n + n)), np.ones(c))
    part = {key: val.copy(order="K") for key, val in full.items()}
    xi = rng.standard_normal((c, n * n + n))
    idx = np.array([1, 4, 5, 10])
    kernel.attempt(full, np.arange(c), 1e-3, xi, np.ones(c))
    kernel.attempt(part, idx, 1e-3, xi[idx], np.ones(idx.size))
    for key in full:
        assert part[key].strides == full[key].strides
        np.testing.assert_array_equal(part[key][..., idx], full[key][..., idx])
    rest = np.setdiff1d(np.arange(c), idx)
    assert not np.any(part["sigma"][:, rest] == full["sigma"][:, rest])


def test_conjugation_invariance_of_radial_law():
    # starting frame Q0 must not change the law of sigma
    rng = np.random.default_rng(123)
    w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q0 = unitary_exp(0.5 * (w - w.conj().T))
    kw = dict(n=2, beta=2.0, sigma0=(1.0, 2.0), t_final=0.2, dt=1e-3,
              n_paths=1500, sample_times=(0.2,))
    ens_i = simulate_matrix_paths(SimConfig(scheme="matrix", seed=400, **kw), threads=2)
    ens_q = simulate_matrix_paths(
        SimConfig(scheme="matrix", seed=401, q0=q0, **kw), threads=2
    )
    for k in range(2):
        res = ks_two_sample(
            ens_i.samples[:, -1, k], ens_q.samples[:, -1, k], alpha=0.005
        )
        assert not res.reject


def test_chart_stepper_matches_matrix_law():
    # factorized (sigma, Q) integration agrees with the disk stepper in law
    n, beta, t_final, h, n_paths = 2, 2.0, 0.1, 1e-3, 800
    steps = int(round(t_final / h))
    sig0 = np.array([1.5, 3.0])
    sig_chart = np.zeros((n_paths, n))
    for p in range(n_paths):
        gen = path_generator(99, "takagi-chart", p)
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
