"""The ensemble driver's scheduling: streamed noise blocks, which kernels
reach the thread pool, chunk independence, and the worker-count check;
the sample grid it records and the stop reasons it names; and its batched
refinements against the sequential driver it replaced."""
import concurrent.futures
import json
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from siegelbm import (
    ConfigInvalid,
    SimConfig,
    ensembles_equal,
    simulate_matrix_paths,
    simulate_particle_paths,
)
from siegelbm import ensemble, matrix_flow
from siegelbm.config import SCHEMES
from siegelbm.matrix_flow import MatrixKernel
from siegelbm.particle_flow import _KERNELS, ParticleKernel
from test_kernels import _LAYOUT_CASES

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
    budget = block * 8 * c * max(nd, 1)  # bytes of block steps' draws for every path
    monkeypatch.setattr(ensemble, "_REFILL_DRAWS", block * max(nd, 1))
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


@pytest.mark.parametrize("threads", [True, 2.5, "2", None], ids=repr)
def test_rejects_threads_that_are_not_integers(threads):
    # 2.5 used to start a pool of 2.5 workers, None to raise a raw TypeError
    cfg = _config("matrix", 4, (0.5, 1.0, 1.5, 2.0), 4)
    with pytest.raises(ConfigInvalid, match="^threads: must be a positive integer"):
        simulate_matrix_paths(cfg, threads=threads)


class _PoolUsed(RuntimeError):
    pass


def _no_pool(*args, **kwargs):
    raise _PoolUsed


def test_particle_chunks_stay_off_the_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _no_pool)
    cfg = SimConfig(scheme="particle", n=2, beta=2.0, sigma0=(1.0, 2.0), t_final=0.01,
                    dt=1e-3, n_paths=ensemble._INLINE_CHUNK + 88, seed=4)
    ens = simulate_particle_paths(cfg, threads=4)
    assert ens.n_paths == cfg.n_paths
    assert not np.isnan(ens.samples[:, -1]).any()


def test_matrix_chunks_reach_the_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _no_pool)
    cfg = SimConfig(scheme="matrix", n=4, beta=2.0, sigma0=(0.5, 1.0, 1.5, 2.0), t_final=0.01,
                    dt=1e-3, n_paths=ensemble._CHUNK + 1, seed=4)
    with pytest.raises(_PoolUsed):
        simulate_matrix_paths(cfg, threads=2)


_POOL_IMPORT = """
import json, sys
from siegelbm import SimConfig, ensembles_equal, simulate_matrix_paths, simulate_particle_paths
from siegelbm.ensemble import _CHUNK, _INLINE_CHUNK

def pool_imported():
    return "concurrent.futures" in sys.modules

particle = SimConfig(scheme="particle", n=3, beta=2.0, sigma0=(0.5, 1.0, 1.5), t_final=0.003,
                     dt=1e-3, n_paths=_INLINE_CHUNK + 1, seed=4)
simulate_particle_paths(particle, threads=4)
seen = [pool_imported()]
matrix = SimConfig(scheme="matrix", n=4, beta=2.0, sigma0=(0.5, 1.0, 1.5, 2.0), t_final=0.003,
                   dt=1e-3, n_paths=_CHUNK + 1, seed=4)
inline = simulate_matrix_paths(matrix, threads=1)
seen.append(pool_imported())
pooled = simulate_matrix_paths(matrix, threads=2)
print(json.dumps(seen + [pool_imported(), ensembles_equal(pooled, inline)]))
"""


# the thread pool is imported by the run that starts one: a fresh
# interpreter running particle chunks at threads=4, and matrix chunks at
# threads=1, has not imported it; a pooled n = 4 matrix run has, and
# equals the inline run bit for bit
def test_only_a_pooled_run_imports_the_thread_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _POOL_IMPORT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, True, True]


# n = 8 at finite beta: the kernel releases the interpreter lock, so with
# threads > 1 its _CHUNK-path chunks run on the pool
def _pooled_matrix_config(steps, chunks=2):
    return SimConfig(scheme="matrix", n=8, beta=2.0, sigma0=tuple(0.5 * np.arange(1, 9)),
                     t_final=steps * 1e-3, dt=1e-3, n_paths=(chunks - 1) * ensemble._CHUNK + 88,
                     seed=13)


def test_pooled_eigvalsh_calls_take_turns(monkeypatch):
    # three workers on three chunks, more workers than a two-core machine
    # has cores, with a short switch interval
    cfg = _pooled_matrix_config(4, chunks=3)
    reference = simulate_matrix_paths(cfg, threads=1)
    eigvalsh = np.linalg.eigvalsh
    inside, most, callers = [0], [0], set()
    guard = threading.Lock()

    def counted(h):
        with guard:
            inside[0] += 1
            most[0] = max(most[0], inside[0])
            callers.add(threading.get_ident())
        try:
            time.sleep(1e-3)  # room for another worker to come in
            return eigvalsh(h)
        finally:
            with guard:
                inside[0] -= 1

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = simulate_matrix_paths(cfg, threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert ensembles_equal(pooled, reference)
    assert len(callers) > 1
    assert most[0] == 1


# a refill draws at most _REFILL_DRAWS normals a path, whatever the worker
# count, and each chunk spreads its steps evenly over the fewest refills
# that allows
def _noise_blocks(monkeypatch, steps, blocks):
    """Check a 15-step n = 8 run's blocks, inline and on two workers.

    The block map gives each block length's refills per path: every path
    of the 512-path chunk takes each of its blocks."""
    cfg = _pooled_matrix_config(15)
    make = ensemble.path_generator
    step_bytes = 8 * ensemble._CHUNK * 72  # 72 draws a step

    def run(threads):
        outs = []
        monkeypatch.setattr(
            ensemble, "path_generator", lambda *a, **k: _RecordingGenerator(make(*a, **k), outs)
        )
        ens = _simulate(cfg, threads)
        largest = max(out.base.nbytes for out in outs)
        assert all(out.size <= ensemble._REFILL_DRAWS for out in outs)
        return ens, largest, Counter(out.shape[0] for out in outs if out.base.nbytes == largest)

    inline, inline_bytes, inline_counts = run(1)
    pooled, pooled_bytes, pooled_counts = run(2)
    assert inline_bytes == pooled_bytes == steps * step_bytes
    assert inline_counts == pooled_counts == {k: v * ensemble._CHUNK for k, v in blocks.items()}
    assert ensembles_equal(pooled, inline)


def test_noise_budget_bounds_the_chunks_in_flight(monkeypatch):
    # the noise budget is _REFILL_DRAWS draws a path: 256 draws are 3 steps
    # of 72, five blocks of 3, inline and pooled
    _noise_blocks(monkeypatch, 3, {3: 5})


def test_noise_budget_alone_balances_the_blocks(monkeypatch):
    # a budget of 14 steps' draws a path refills twice, in blocks of 8 and
    # 7 steps, not 14 and 1, inline and pooled alike
    monkeypatch.setattr(ensemble, "_REFILL_DRAWS", 14 * 72)
    _noise_blocks(monkeypatch, 8, {8: 1, 7: 1})


def test_many_workers_draw_as_one(monkeypatch):
    # six chunks of up to 512 paths on six workers: every refill holds 3
    # steps, the most _REFILL_DRAWS allows, as inline (a byte budget shared
    # by the workers would allow 2), and the run is the inline one to the bit
    cfg = _pooled_matrix_config(15, chunks=6)
    reference = _simulate(cfg)
    outs, pools = [], []
    make = ensemble.path_generator
    monkeypatch.setattr(
        ensemble, "path_generator", lambda *a, **k: _RecordingGenerator(make(*a, **k), outs)
    )
    pool = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(
        concurrent.futures, "ThreadPoolExecutor", lambda max_workers: pools.append(max_workers) or pool(max_workers)
    )
    assert ensembles_equal(_simulate(cfg, threads=6), reference)
    assert pools == [6]
    assert len(outs) == cfg.n_paths * 5 and all(out.shape == (3, 72) for out in outs)


# matrix n=8 is where the step's contractions run as BLAS matmuls; at 8
# terms numpy's own sum over one path's coordinates would switch to pairwise
# order, so the particle-type sums over 8 coordinates must not depend on it.
# At beta = inf sigma_7 and sigma_8 start 1e-3 apart.
@pytest.mark.parametrize(
    "scheme, n, sigma0, beta",
    [
        ("particle", 2, (1.0, 2.0), 2.0),
        ("particle", 8, tuple(0.4 * np.arange(1, 9)), 2.0),
        ("sphere-point", 8, (0.5,), 2.0),
        ("matrix", 2, (1.0, 2.0), 2.0),
        ("matrix", 3, (0.5, 1.0, 1.5), 2.0),
        ("matrix", 8, tuple(0.4 * np.arange(1, 9)), 2.0),
        ("matrix", 8, tuple(0.4 * np.arange(1, 8)) + (2.8 + 1e-3,), np.inf),
    ],
    ids=["particle", "particle-n8", "sphere-point-n8", "matrix", "matrix-n3", "matrix-n8",
         "matrix-n8-inf"],
)
def test_chunking_does_not_change_paths(monkeypatch, scheme, n, sigma0, beta):
    cfg = replace(_config(scheme, n, sigma0, 40, seed=9), beta=beta)
    factorized = []
    takagi = matrix_flow._takagi_batch
    monkeypatch.setattr(matrix_flow, "_takagi_batch", lambda a: factorized.append(a) or takagi(a))
    reference = _simulate(cfg, threads=4)
    assert not factorized  # no kernel step factorizes, at any beta
    # the particle-type runs are inline, the finite-beta matrix runs are on
    # the pool;
    # 40 paths in chunks of 13 leave one path alone in the last chunk
    monkeypatch.setattr(ensemble, "_CHUNK", 13)
    monkeypatch.setattr(ensemble, "_INLINE_CHUNK", 13)
    assert ensembles_equal(_simulate(cfg, threads=4), reference)


class _CountInit:
    """Wraps a kernel and records the path count of every init call."""

    def __init__(self, kernel, calls):
        self._kernel, self._calls = kernel, calls

    def init(self, c):
        self._calls.append(c)
        return self._kernel.init(c)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


# a kernel that holds the interpreter lock runs inline at any thread count
# and takes up to _INLINE_CHUNK paths in one chunk
@pytest.mark.parametrize("threads", [1, 4])
def test_inline_run_takes_one_chunk(threads):
    cfg = SimConfig(scheme="particle", n=2, beta=2.0, sigma0=(1.0, 2.0), t_final=0.002,
                    dt=1e-3, n_paths=ensemble._INLINE_CHUNK, seed=4)
    calls = []
    kernel = _CountInit(ParticleKernel((1.0, 2.0), 2.0, 1e-6), calls)
    ens = ensemble.run_ensemble(cfg, kernel, threads=threads)
    assert calls == [ensemble._INLINE_CHUNK]
    assert not np.isnan(ens.samples[:, -1]).any()


# above linalg._ELEMENTWISE_MAX_N the matrix kernel keeps _CHUNK paths a
# chunk when its chunks run inline
def test_inline_matrix_run_keeps_pool_chunks():
    sigma0 = (0.5, 1.0, 1.5, 2.0)
    cfg = SimConfig(scheme="matrix", n=4, beta=2.0, sigma0=sigma0, t_final=0.002,
                    dt=1e-3, n_paths=2 * ensemble._CHUNK, seed=4)
    calls = []
    kernel = _CountInit(MatrixKernel(sigma0, 2.0, 1e-6), calls)
    ens = ensemble.run_ensemble(cfg, kernel, threads=1)
    assert calls == [ensemble._CHUNK, ensemble._CHUNK]
    assert not np.isnan(ens.samples[:, -1]).any()


# at n <= linalg._ELEMENTWISE_MAX_N the matrix step is short path-last numpy
# calls that hold the interpreter lock, so it runs inline in chunks of
# _INLINE_CHUNK paths at any thread count
@pytest.mark.parametrize("n", [2, 3])
def test_small_matrix_chunks_stay_off_the_pool(monkeypatch, n):
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _no_pool)
    sigma0 = tuple(0.5 * np.arange(1, n + 1))
    cfg = SimConfig(scheme="matrix", n=n, beta=2.0, sigma0=sigma0, t_final=0.002,
                    dt=1e-3, n_paths=ensemble._INLINE_CHUNK + 88, seed=4)
    calls = []
    kernel = _CountInit(MatrixKernel(sigma0, 2.0, 1e-6), calls)
    assert not kernel.releases_gil
    ens = ensemble.run_ensemble(cfg, kernel, threads=2)
    assert calls == [ensemble._INLINE_CHUNK, 88]
    assert not np.isnan(ens.samples[:, -1]).any()


# at beta = inf the matrix step is the particle scheme's mean-curvature
# step, short numpy calls that hold the interpreter lock, so at n = 8 too it
# runs inline in chunks of _INLINE_CHUNK paths at any thread count
def test_infinite_beta_matrix_chunks_stay_off_the_pool(monkeypatch):
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", _no_pool)
    sigma0 = tuple(0.4 * np.arange(1, 8)) + (2.8 + 1e-3,)
    cfg = SimConfig(scheme="matrix", n=8, beta=np.inf, sigma0=sigma0, t_final=0.002,
                    dt=1e-3, n_paths=ensemble._INLINE_CHUNK + 88, seed=4)
    calls = []
    kernel = _CountInit(MatrixKernel(sigma0, np.inf, 1e-6), calls)
    assert not kernel.releases_gil
    assert MatrixKernel(sigma0, 2.0, 1e-6).releases_gil
    ens = ensemble.run_ensemble(cfg, kernel, threads=2)
    assert calls == [ensemble._INLINE_CHUNK, 88]
    assert not np.isnan(ens.samples[:, -1]).any()


# beta = inf from a start whose first step leaves the chamber: every path
# rejects it once and refines, with zero-width draws
_INF_REFINE = dict(n=3, beta=np.inf, sigma0=(0.01, 0.02, 0.5), t_final=0.1, dt=0.01,
                   n_paths=50, seed=13, sample_times=(0.0, 0.05, 0.1))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_infinite_beta_runs_build_no_primary_stream(monkeypatch, scheme):
    # only the sphere point draws at beta = inf (its tangential noise); a
    # kernel that draws nothing builds no retry stream either, though every
    # matrix and particle path rejects
    made = []
    make = ensemble.path_generator
    monkeypatch.setattr(ensemble, "path_generator",
                        lambda *a, retry=False: made.append(retry) or make(*a, retry=retry))
    kwargs = dict(_INF_REFINE, scheme=scheme)
    if scheme.startswith("sphere"):
        kwargs["sigma0"] = (0.05,)
    ens = _simulate(SimConfig(**kwargs))
    draws = scheme == "sphere-point"
    assert made.count(False) == (ens.n_paths if draws else 0)
    assert made.count(True) == (np.count_nonzero(ens.rejections) if draws else 0)
    if scheme in ("matrix", "particle"):
        assert np.all(ens.rejections == 1)


def test_refining_infinite_beta_matrix_run_is_the_particle_run():
    cfg = SimConfig(scheme="particle", **_INF_REFINE)
    particle = _simulate(cfg)
    assert np.all(particle.rejections == 1) and np.all(np.isnan(particle.stopped_at))
    assert ensembles_equal(particle, reference_run_ensemble(cfg, _kernel(cfg)))
    matrix = _simulate(replace(cfg, scheme="matrix"), threads=2)
    matrix.meta["scheme"] = "particle"
    assert ensembles_equal(matrix, particle)


# One small case per stop reason, seed 11, beta 2, dt 1e-3 unless stated.
# Counts depend on the floating-point library, so only the reason and the
# stop-time grid are checked, never how many paths stop.
_STOP_CASES = {
    # eta is positive at sigma0 (S = -0.51 against a floor of -2k = -0.6), so
    # paths freeze once a step carries them out of the cutoff's support
    "cutoff-floor": dict(scheme="particle", n=2, sigma0=(0.6, 1.2), t_final=0.05,
                         n_paths=20, cutoff=(0.3, 2.0)),
    # at beta = 0.1 the kicks are large enough to jump past the cutoff's
    # support mid-run, some of them inside a refinement
    "cutoff-floor-refined": dict(scheme="particle", n=2, beta=0.1, sigma0=(0.5, 1.0),
                                 t_final=0.1, n_paths=50, cutoff=(2.0, 2.0)),
    "chamber-exit": dict(scheme="particle", n=3, sigma0=(0.01, 0.02, 0.03), t_final=0.05,
                         n_paths=100),
    "origin-hit": dict(scheme="sphere-radius", n=1, sigma0=(0.05,), t_final=0.5, n_paths=20),
    # sigma_n near the disk chart's ceiling of about 28.3
    "domain-exit": dict(scheme="matrix", n=2, sigma0=(20.0, 28.2), t_final=0.05, n_paths=40),
}


@pytest.mark.parametrize("case", sorted(_STOP_CASES))
def test_simulation_records_stop_reason(case):
    kwargs = {"beta": 2.0, **_STOP_CASES[case]}
    cfg = SimConfig(dt=1e-3, seed=11, **kwargs)
    ens = _simulate(cfg)
    reason = case.removesuffix("-refined")
    stopped = ~np.isnan(ens.stopped_at)
    assert stopped.any()
    assert {ens.stop_reason[p] for p in np.nonzero(stopped)[0]} == {reason}
    assert all(ens.stop_reason[p] is None for p in np.nonzero(~stopped)[0])
    units = ens.stopped_at[stopped] / (cfg.dt / ensemble._HALVING_UNITS)
    np.testing.assert_allclose(units, np.round(units), rtol=0, atol=1e-6)
    assert np.all((ens.stopped_at[stopped] > 0) & (ens.stopped_at[stopped] <= cfg.t_final))
    if case == "cutoff-floor-refined":
        # a freeze met by a substep of the refinement ladder, not at a full step
        assert np.any(np.round(units) % ensemble._HALVING_UNITS != 0)


def _philox_state(gen):
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


@pytest.mark.parametrize("retry", [False, True])
@pytest.mark.parametrize("path_index", [0, 2**48 - 1])
@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_path_generator_is_the_keyed_philox(seed, path_index, retry):
    # keyed through a seed sequence that seeds nothing from the operating
    # system: the state and the draws of Philox(key=[seed, tag])
    tag = (int(retry) << 60) | (ensemble.SCHEME_IDS["particle"] << 48) | path_index
    want = np.random.Generator(np.random.Philox(key=np.array([seed, tag], dtype=np.uint64)))
    got = ensemble.path_generator(seed, "particle", path_index, retry)
    assert _philox_state(got) == _philox_state(want)
    np.testing.assert_array_equal(got.standard_normal(10_000), want.standard_normal(10_000))
    assert _philox_state(got) == _philox_state(want)


def test_every_scheme_has_its_noise_stream_id():
    # one ID per scheme SimConfig accepts and no other; each keys a scheme's
    # noise streams, so none may change
    assert set(ensemble.SCHEME_IDS) == set(SCHEMES)
    assert ensemble.SCHEME_IDS == {"matrix": 1, "particle": 2, "mean-curvature": 3, "dyson": 4,
                                   "sphere-point": 5, "sphere-radius": 6}


def test_sample_times_are_checked_on_construction():
    # a time past t_final or off the dt grid is refused however the config
    # is built, directly or through dataclasses.replace
    kwargs = dict(n=1, beta=2.0, sigma0=[1.0], t_final=0.01, dt=1e-3, n_paths=2, seed=1,
                  scheme="particle")
    for times, msg in (((0.0, 0.02), "outside"), ((0.0, 0.0104), "dt grid"), ((-0.001,), "outside")):
        with pytest.raises(ConfigInvalid, match=f"sample_times: .*{msg}"):
            SimConfig(**kwargs, sample_times=times)
    cfg = SimConfig(**kwargs, sample_times=(0.0, 0.005, 0.01))
    with pytest.raises(ConfigInvalid, match="sample_times: .*outside"):
        replace(cfg, t_final=0.005)
    with pytest.raises(ConfigInvalid, match="sample_times: .*dt grid"):
        replace(cfg, dt=2e-3)
    assert cfg.sample_times == (0.0, 0.005, 0.01)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["t_final", "dt", "sample_times"])
def test_non_finite_times_are_refused_on_construction(field, value):
    # round() used to raise a raw ValueError (NaN) or OverflowError (inf)
    kwargs = dict(n=2, beta=2.0, sigma0=[0.8, 1.6], t_final=0.05, dt=0.01, n_paths=4, seed=1,
                  scheme="particle")
    new = {field: (0.0, value) if field == "sample_times" else value}
    with pytest.raises(ConfigInvalid, match=f"^{field}: "):
        SimConfig(**{**kwargs, **new})
    with pytest.raises(ConfigInvalid, match=f"^{field}: "):
        replace(SimConfig(**kwargs), **new)


def test_numpy_scalars_write_the_same_trajectories(tmp_path):
    # numpy integers used to run the whole ensemble and then fail in
    # write_jsonl with a raw TypeError; SimConfig stores Python numbers
    kwargs = dict(n=2, beta=2.0, sigma0=[0.8, 1.6], scheme="particle", sample_times=(0.0, 0.01))
    plain = SimConfig(**kwargs, t_final=0.02, dt=1e-3, n_paths=6, seed=5)
    scalars = SimConfig(**kwargs, t_final=np.float64(0.02), dt=np.float64(1e-3),
                        n_paths=np.int64(6), seed=np.int64(5))
    assert [type(scalars.n_paths), type(scalars.seed), type(scalars.dt)] == [int, int, float]
    for name, cfg in (("plain", plain), ("scalars", scalars)):
        ensemble.write_jsonl(simulate_particle_paths(cfg), tmp_path / f"{name}.jsonl")
    assert (tmp_path / "plain.jsonl").read_bytes() == (tmp_path / "scalars.jsonl").read_bytes()


@pytest.mark.parametrize("field, value", [("dt", 0.0), ("dt", -1e-3), ("n_paths", 0), ("n_paths", -1)])
def test_zero_step_and_empty_ensemble_are_refused_on_construction(field, value):
    # dt = 0 used to raise a raw ZeroDivisionError from n_steps, n_paths = -1
    # a raw ValueError from np.full, and n_paths = 0 ran an empty ensemble
    kwargs = dict(n=2, beta=2.0, sigma0=[0.8, 1.6], t_final=0.05, dt=0.01, n_paths=4, seed=1,
                  scheme="particle")
    with pytest.raises(ConfigInvalid, match=f"^{field}: must be a positive"):
        SimConfig(**{**kwargs, field: value})
    with pytest.raises(ConfigInvalid, match=f"^{field}: must be a positive"):
        replace(SimConfig(**kwargs), **{field: value})


def test_t_final_off_the_dt_grid_is_refused_on_construction():
    # 10.5 steps used to run 10 and record [0, 0.01] without a word
    kwargs = dict(n=1, beta=2.0, sigma0=[1.0], dt=1e-3, n_paths=2, seed=1, scheme="particle")
    for t_final in (0.0105, 4e-4):
        with pytest.raises(ConfigInvalid, match="dt: t_final must be an integer multiple of dt"):
            SimConfig(**kwargs, t_final=t_final)


def test_t_final_off_the_dt_grid_is_refused_by_replace():
    cfg = SimConfig(n=1, beta=2.0, sigma0=[1.0], t_final=0.01, dt=1e-3, n_paths=2, seed=1,
                    scheme="particle")
    with pytest.raises(ConfigInvalid, match="dt: t_final must be an integer multiple of dt"):
        replace(cfg, t_final=0.0105)
    with pytest.raises(ConfigInvalid, match="dt: t_final must be an integer multiple of dt"):
        replace(cfg, dt=3e-3)


def test_sample_grid_follows_replaced_fields():
    cfg = SimConfig(n=1, beta=2.0, sigma0=[1.0], t_final=0.01, dt=1e-3, n_paths=2, seed=1,
                    scheme="particle")
    cases = [
        (replace(cfg, t_final=0.02), [0, 20], [0.0, 0.02]),
        (replace(cfg, dt=5e-4), [0, 20], [0.0, 0.01]),
        (replace(cfg, sample_times=(0.0, 0.005)), [0, 5], [0.0, 0.005]),
    ]
    for new, indices, times in cases:
        np.testing.assert_array_equal(new.sample_indices, indices)
        np.testing.assert_allclose(simulate_particle_paths(new).times, times, rtol=0, atol=1e-15)
    with pytest.raises(TypeError):
        replace(cfg, sample_indices=np.array([0, 3]))


# ---------------------------------------------------------------------------
# The sequential driver that run_ensemble replaced, kept as the reference.
#
# It steps every live path of a chunk through step j together and settles a
# rejected path's whole refinement ladder with single-path attempts before
# the next path.  run_ensemble instead batches each path's next substep with
# the other paths' full steps; every path must come out bit for bit the same.


def reference_run_ensemble(cfg, kernel):
    n_paths, steps, h = cfg.n_paths, cfg.n_steps, cfg.dt
    units_full = ensemble._HALVING_UNITS
    sample_idx = cfg.sample_indices
    samples = np.full((n_paths, sample_idx.size, kernel.obs_dim), np.nan)
    stopped_at = np.full(n_paths, np.nan)
    reasons = [None] * n_paths
    rejections = np.zeros(n_paths, dtype=np.int64)
    sample_pos = {int(j): pos for pos, j in enumerate(sample_idx)}

    def do_chunk(lo, hi):
        c = hi - lo
        state = kernel.init(c)
        nd = kernel.noise_dim
        width = max(nd, 1)
        most = max(1, ensemble._REFILL_DRAWS // width)
        block = -(-steps // -(-steps // most))  # as few refills, of even length
        noise = np.empty((c, block, nd))
        gens = [ensemble.path_generator(cfg.seed, cfg.scheme, p) for p in range(lo, hi)]
        alive = np.ones(c, dtype=bool)
        retry_gens = {}

        def settle(i, j, st, xi):
            units, du = units_full, units_full
            idx = np.array([i])
            while True:
                if st == ensemble.OK:
                    units -= du
                    if units == 0:
                        return
                    xi = gen.standard_normal(nd)
                    du = min(2 * du, units_full // 2, units)
                elif st == ensemble.FREEZE:
                    reason = "cutoff-floor"
                    break
                else:
                    rejections[lo + i] += 1
                    reason = ensemble.REJECTIONS[st][0]
                    if i not in retry_gens:
                        retry_gens[i] = ensemble.path_generator(cfg.seed, cfg.scheme, lo + i, retry=True)
                    gen = retry_gens[i]
                    xi = (xi + gen.standard_normal(nd)) / np.sqrt(2.0)
                    du //= 2
                    if du == 0:
                        break
                st = int(kernel.attempt(state, idx, h, xi[None, :], np.array([du / units_full]))[0])
            stopped_at[lo + i] = (j + (units_full - units) / units_full) * h
            reasons[lo + i] = reason
            alive[i] = False

        if 0 in sample_pos:
            samples[lo:hi, sample_pos[0]] = kernel.observe(state)
        for j in range(steps):
            act = np.nonzero(alive)[0]
            jb = j % block
            if jb == 0 and nd:
                for i in act:
                    gens[i].standard_normal(out=noise[i, : min(block, steps - j)])
            if act.size:
                status = kernel.attempt(state, act, h, noise[act, jb], np.ones(act.size))
                for i in np.nonzero(status != ensemble.OK)[0]:
                    settle(int(act[i]), j, int(status[i]), noise[act[i], jb])
            if (j + 1) in sample_pos:
                live = np.nonzero(alive)[0]
                if live.size:
                    samples[lo + live, sample_pos[j + 1]] = kernel.observe(state)[live]

    size = ensemble._CHUNK if kernel.releases_gil else ensemble._INLINE_CHUNK
    for lo in range(0, n_paths, size):
        do_chunk(lo, min(lo + size, n_paths))
    meta = cfg.to_meta()
    meta["dim"] = kernel.obs_dim
    return ensemble.PathEnsemble(meta=meta, times=sample_idx * h, samples=samples,
                                 stopped_at=stopped_at, stop_reason=reasons, rejections=rejections)


def _kernel(cfg):
    if cfg.scheme == "matrix":
        return MatrixKernel(cfg.sigma0, cfg.beta, cfg.gap_floor)
    return _KERNELS[cfg.scheme](cfg)


_ORACLE_CASES = {
    **{f"stop-{name}": dict(seed=11, **kw) for name, kw in _STOP_CASES.items()},
    **{f"layout-{name}": dict(seed=11, **kw) for name, (kw, _) in _LAYOUT_CASES.items()},
    # a wall start recorded at every step: samples fall due while paths refine
    "dense-walls": dict(scheme="particle", n=3, sigma0=(0.05, 0.1, 0.15), t_final=0.06,
                        n_paths=60, seed=5, sample_times=tuple(k * 1e-3 for k in range(61))),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
def test_batched_driver_matches_sequential_ladder(case, threads):
    cfg = SimConfig(dt=1e-3, **{"beta": 2.0, **_ORACLE_CASES[case]})
    reference = reference_run_ensemble(cfg, _kernel(cfg))
    assert ensembles_equal(_simulate(cfg, threads=threads), reference)
    if case == "dense-walls":
        assert reference.rejections.sum() > 0


class _RecordingKernel:
    """Wraps a kernel and records the paths of every attempt call."""

    def __init__(self, kernel, calls):
        self._kernel, self._calls = kernel, calls

    def attempt(self, state, idx, *args):
        self._calls.append(np.array(idx))
        return self._kernel.attempt(state, idx, *args)

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def test_refinements_ride_in_the_batch():
    cfg = SimConfig(scheme="particle", n=3, beta=2.0, sigma0=(0.5, 1.0, 1.5), t_final=0.2,
                    dt=1e-3, n_paths=256, seed=8)
    calls = []
    ens = ensemble.run_ensemble(cfg, _RecordingKernel(_KERNELS["particle"](cfg), calls))
    assert ens.rejections.sum() > 0
    per_path = np.bincount(np.concatenate(calls), minlength=cfg.n_paths)
    # one call per iteration, however many substeps the slowest path takes
    assert len(calls) == per_path.max() > cfg.n_steps
    # every call covers every live path: a path leaves the batch only once
    # it has finished or stopped, so no call steps one path while others wait
    assert calls[0].size == cfg.n_paths
    for before, after in zip(calls, calls[1:]):
        assert np.isin(after, before).all()
    assert ensembles_equal(ens, reference_run_ensemble(cfg, _KERNELS["particle"](cfg)))
