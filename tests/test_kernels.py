"""The single-state step functions and the ensemble driver run one kernel."""
import numpy as np
import pytest

from siegelbm import (
    ChamberExit,
    DomainExit,
    OriginHit,
    SimConfig,
    init_matrix_state,
    simulate_matrix_paths,
    simulate_particle_paths,
    step_matrix_flow,
    step_particles,
    step_sphere_point,
)
from siegelbm import ensemble
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


_WRONG_SIZED = {
    # one draw used to be broadcast over all three coordinates
    "sphere-point": (lambda g: step_sphere_point(np.array([1.0, 0.0, 0.0]), 2.0, 1e-2, g),
                     [np.array([0.5]), np.zeros(4)]),
    "particle": (lambda g: step_particles(np.array([1.0, 2.0]), 2.0, 1e-3, g),
                 [np.zeros(1), np.zeros((1, 2))]),
    "matrix": (lambda g: step_matrix_flow(init_matrix_state((1.0, 2.0)), 2.0, 1e-3, g),
               [np.zeros(5), np.zeros(2), np.zeros((1, 6))]),
}


@pytest.mark.parametrize("case", sorted(_WRONG_SIZED))
def test_single_state_steps_refuse_wrong_sized_gaussians(case):
    step, bad = _WRONG_SIZED[case]
    for g in bad:
        with pytest.raises(ValueError, match="gaussians"):
            step(g)


class _FixedStatus:
    """A kernel whose every attempt returns one status and moves nothing."""

    noise_dim = 2

    def __init__(self, status):
        self.status = status

    def attempt(self, state, idx, h, xi):
        return np.full(len(idx), self.status)


@pytest.mark.parametrize(
    "status, error, reason",
    [
        (ensemble.REJECT_CHAMBER, ChamberExit, "chamber-exit"),
        (ensemble.REJECT_DOMAIN, DomainExit, "domain-exit"),
        (ensemble.REJECT_ORIGIN, OriginHit, "origin-hit"),
    ],
)
def test_each_rejection_has_one_reason_and_one_error(status, error, reason):
    assert ensemble.REJECTIONS[status][0] == reason
    with pytest.raises(error):
        ensemble.step_once(_FixedStatus(status), None, 1e-3, np.zeros(2))


@pytest.mark.parametrize("status", [ensemble.OK, ensemble.FREEZE])
def test_step_once_passes_accepted_and_frozen_steps(status):
    assert status not in ensemble.REJECTIONS
    ensemble.step_once(_FixedStatus(status), None, 1e-3, np.zeros(2))
