"""The ensemble driver's scheduling: streamed noise blocks, which kernels
reach the thread pool, chunk independence, and the worker-count check."""
import numpy as np
import pytest

from siegelbm import (
    ConfigInvalid,
    SimConfig,
    ensembles_equal,
    simulate_matrix_paths,
    simulate_particle_paths,
)
from siegelbm import ensemble

_STEPS = 60  # not a multiple of the 7-step block

# (noise_dim, config) with one chunk each; the particle run starts at the
# walls so that rejections hand buffer rows to the refinement ladder
_STREAM_CASES = {
    "particle-walls": (3, dict(scheme="particle", n=3, sigma0=(0.05, 0.1, 0.15), n_paths=40)),
    "matrix-n2": (6, dict(scheme="matrix", n=2, sigma0=(0.5, 1.0), n_paths=12)),
    "mean-curvature": (0, dict(scheme="mean-curvature", n=2, sigma0=(1.0, 2.0), n_paths=5)),
    "sphere-point": (3, dict(scheme="sphere-point", n=3, sigma0=(0.05,), n_paths=30)),
}


def _config(scheme, n, sigma0, n_paths, seed=3):
    return SimConfig(scheme=scheme, n=n, beta=2.0, sigma0=sigma0, t_final=_STEPS * 1e-3,
                     dt=1e-3, n_paths=n_paths, seed=seed,
                     sample_times=tuple(0.01 * k for k in range(7)))


def _simulate(cfg, threads=1):
    run = simulate_matrix_paths if cfg.scheme == "matrix" else simulate_particle_paths
    return run(cfg, threads=threads)


class _RecordingGenerator:
    """Passes draws through and keeps every out= array handed to it."""

    def __init__(self, gen, outs):
        self._gen, self._outs = gen, outs

    def standard_normal(self, *args, **kwargs):
        if "out" in kwargs:
            self._outs.append(kwargs["out"])
        return self._gen.standard_normal(*args, **kwargs)


@pytest.mark.parametrize("case", sorted(_STREAM_CASES))
@pytest.mark.parametrize("block", [1, 7, _STEPS + 5])
def test_streamed_noise_blocks_match_default(monkeypatch, case, block):
    nd, kwargs = _STREAM_CASES[case]
    cfg = _config(**kwargs)
    reference = _simulate(cfg)
    if case == "particle-walls":
        assert reference.rejections.sum() > 0
    c = cfg.n_paths
    budget = block * 8 * c * max(nd, 1)
    monkeypatch.setattr(ensemble, "_NOISE_BYTES", budget)
    outs = []
    make = ensemble.path_generator
    monkeypatch.setattr(
        ensemble, "path_generator", lambda *a, **k: _RecordingGenerator(make(*a, **k), outs)
    )
    assert ensembles_equal(_simulate(cfg), reference)
    if nd == 0:
        assert outs == []
        return
    assert outs
    for out in outs:
        assert out.base.nbytes <= max(budget, 8 * c * nd)
        assert out.shape[0] <= min(block, _STEPS)


@pytest.mark.parametrize("threads", [0, -2])
@pytest.mark.parametrize("scheme", ["particle", "matrix"])
def test_rejects_threads_below_one(scheme, threads):
    cfg = _config(scheme, 2, (1.0, 2.0), 4)
    with pytest.raises(ConfigInvalid, match="threads: must be a positive integer"):
        _simulate(cfg, threads=threads)


class _PoolUsed(RuntimeError):
    pass


def _no_pool(*args, **kwargs):
    raise _PoolUsed


def test_particle_chunks_stay_off_the_pool(monkeypatch):
    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", _no_pool)
    cfg = SimConfig(scheme="particle", n=2, beta=2.0, sigma0=(1.0, 2.0), t_final=0.01,
                    dt=1e-3, n_paths=ensemble._CHUNK + 88, seed=4)
    ens = simulate_particle_paths(cfg, threads=4)
    assert ens.n_paths == cfg.n_paths
    assert not np.isnan(ens.samples[:, -1]).any()


def test_matrix_chunks_reach_the_pool(monkeypatch):
    monkeypatch.setattr(ensemble, "ThreadPoolExecutor", _no_pool)
    cfg = SimConfig(scheme="matrix", n=2, beta=2.0, sigma0=(1.0, 2.0), t_final=0.01,
                    dt=1e-3, n_paths=ensemble._CHUNK + 1, seed=4)
    with pytest.raises(_PoolUsed):
        simulate_matrix_paths(cfg, threads=2)


# matrix n=8 is where the step's contractions run as BLAS matmuls
@pytest.mark.parametrize(
    "scheme, sigma0",
    [("particle", (1.0, 2.0)), ("matrix", (1.0, 2.0)), ("matrix", tuple(0.4 * np.arange(1, 9)))],
    ids=["particle", "matrix", "matrix-n8"],
)
def test_chunking_does_not_change_paths(monkeypatch, scheme, sigma0):
    cfg = _config(scheme, len(sigma0), sigma0, 40, seed=9)
    reference = _simulate(cfg, threads=4)
    monkeypatch.setattr(ensemble, "_CHUNK", 7)
    assert ensembles_equal(_simulate(cfg, threads=4), reference)
