"""The single-state step functions and the ensemble driver run one kernel."""
import numpy as np
import pytest

from siegelbm import (
    SimConfig,
    init_matrix_state,
    simulate_matrix_paths,
    simulate_particle_paths,
    step_matrix_flow,
    step_particles,
    step_sphere_point,
)
from siegelbm.ensemble import path_generator

_STEPS, _H, _PATHS = 20, 1e-3, 3


def _particle(cfg, xi):
    sig = cfg.sigma0
    for x in xi:
        sig = step_particles(sig, cfg.beta, _H, x, gap_floor=cfg.gap_floor)
    return sig


def _sphere_point(cfg, xi):
    z = np.zeros(cfg.n)
    z[0] = cfg.sigma0[0]
    for x in xi:
        z = step_sphere_point(z, cfg.beta, _H, x, floor=cfg.gap_floor)
    return np.linalg.norm(z, axis=-1, keepdims=True)


def _matrix(cfg, xi):
    st = init_matrix_state(cfg.sigma0)
    for x in xi:
        st = step_matrix_flow(st, cfg.beta, _H, x, gap_floor=cfg.gap_floor)
    return st.sigma_cache


@pytest.mark.parametrize(
    "scheme, n, sigma0, simulate, step",
    [
        ("particle", 3, (0.6, 1.2, 2.0), simulate_particle_paths, _particle),
        ("sphere-point", 3, (1.0,), simulate_particle_paths, _sphere_point),
        ("matrix", 2, (1.0, 2.0), simulate_matrix_paths, _matrix),
    ],
)
def test_single_step_api_matches_ensemble(scheme, n, sigma0, simulate, step):
    cfg = SimConfig(scheme=scheme, n=n, beta=2.0, sigma0=sigma0, t_final=_STEPS * _H,
                    dt=_H, n_paths=_PATHS, seed=606)
    ens = simulate(cfg)
    assert not np.any(ens.rejections)
    noise_dim = n * n + n if scheme == "matrix" else n
    for p in range(_PATHS):
        xi = path_generator(cfg.seed, scheme, p).standard_normal((_STEPS, noise_dim))
        np.testing.assert_array_equal(step(cfg, xi), ens.samples[p, -1])
