"""Path ensembles, deterministic per-path noise streams, and the shared
integrator driver with reject-and-halve step control.

Every path owns a counter-based generator keyed by (master seed, scheme,
purpose, path index), so results are independent of chunking and thread
count, and different schemes run from the same master seed stay
decorrelated.  Retries during step halving draw from a separate purpose
stream so the primary per-step blocks stay aligned.  The primary draws are
streamed in time blocks (drawing a stream in blocks gives the same numbers
as drawing it at once), so noise memory does not grow with the step count.
"""
from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ChamberExit, ConfigInvalid, DomainExit, OriginHit

_CHUNK = 512  # paths per chunk for a kernel that releases the interpreter lock
_INLINE_CHUNK = 1024  # paths per chunk for a kernel that holds it
_NOISE_BYTES = 1 << 22  # bound on one chunk's primary noise buffer
_HALVING_UNITS = 1024  # step-halving floor is h / 2**10
_WRITE_BLOCK = 64  # paths formatted per json.dumps call in write_jsonl
_READ_BYTES = 1 << 18  # size hint for one batch of lines in read_jsonl

SCHEME_IDS = {
    "matrix": 1,
    "particle": 2,
    "mean-curvature": 3,
    "dyson": 4,
    "sphere-point": 5,
    "sphere-radius": 6,
    "takagi-chart": 7,
}

# attempt() status codes
OK = 0
REJECT_CHAMBER = 1
REJECT_DOMAIN = 2
FREEZE = 3  # the entropy cutoff reached zero: the path stops where it is
REJECT_ORIGIN = 4

# each rejection status: the stop reason of a path that cannot get past it,
# and the error a single-state step raises on it
REJECTIONS = {
    REJECT_CHAMBER: ("chamber-exit", ChamberExit, "step left the ordered chamber"),
    REJECT_DOMAIN: ("domain-exit", DomainExit, "step left the disk domain"),
    REJECT_ORIGIN: ("origin-hit", OriginHit, "step reached the origin"),
}


def check_threads(threads: int) -> None:
    """Refuse a worker count below one."""
    if threads < 1:
        raise ConfigInvalid(f"threads: must be a positive integer, got {threads}")


def check_gaussians(gaussians, dim: int) -> np.ndarray:
    """The draws of one single-state step as a float vector; ValueError
    unless there are exactly dim of them."""
    xi = np.asarray(gaussians, dtype=float)
    if xi.shape != (dim,):
        raise ValueError(f"expected {dim} gaussians, got shape {xi.shape}")
    return xi


def step_once(kernel, state, h: float, xi) -> None:
    """Attempt one step of size h for the single path held in state, in
    place, and raise the error its rejection names; a frozen path stays."""
    xi = check_gaussians(xi, kernel.noise_dim)
    raise_rejection(int(kernel.attempt(state, np.array([0]), h, xi[None, :], np.ones(1))[0]))


def raise_rejection(status: int) -> None:
    """Raise the error REJECTIONS names for a single-state step's status."""
    if status in REJECTIONS:
        _, error, message = REJECTIONS[status]
        raise error(message)


def take(a: np.ndarray, index: np.ndarray, axis: int) -> np.ndarray:
    """a.take(index, axis) of a path-last array, axis 0 or the paths (-1),
    in a's memory order: over path-major memory it is taken from the
    contiguous path-first view, since take copies any other input to C
    order first."""
    if a.flags.c_contiguous:
        return a.take(index, axis)
    return np.moveaxis(np.moveaxis(a, -1, 0).take(index, 0 if axis == -1 else axis + 1), 0, -1)


def gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Paths idx (ascending) of a path-last array; a itself when idx holds
    every path, so a kernel steps a full batch without a copy."""
    return a if idx.size == a.shape[-1] else take(a, idx, -1)


def store(state: np.ndarray, idx: np.ndarray, vals: np.ndarray, ok: np.ndarray) -> None:
    """state[..., idx[ok]] = vals[..., ok] for ascending idx, the kernels'
    store of accepted proposals: one masked copy when idx holds every path."""
    if idx.size == state.shape[-1]:
        np.copyto(state, vals, where=ok)
    else:
        state[..., idx[ok]] = take(vals, np.flatnonzero(ok), -1)


def path_generator(seed: int, scheme: str, path_index: int, retry: bool = False):
    """Generator for one path's noise stream (Philox, explicitly keyed)."""
    tag = (int(retry) << 60) | (SCHEME_IDS[scheme] << 48) | path_index
    key = np.array([seed, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class PathEnsemble:
    """Sampled trajectories of one simulation run.

    samples has shape (n_paths, n_times, dim) and holds NaN at times past a
    path's stopping time.  stopped_at is NaN for paths that never stopped.
    """

    meta: dict
    times: np.ndarray
    samples: np.ndarray
    stopped_at: np.ndarray
    stop_reason: list
    rejections: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.samples.shape[0]

    def alive_mask(self, time_index: int) -> np.ndarray:
        """Paths with a valid sample at the given time index."""
        return ~np.isnan(self.samples[:, time_index, 0])


def ensembles_equal(a: PathEnsemble, b: PathEnsemble) -> bool:
    return (
        a.meta == b.meta
        and np.array_equal(a.times, b.times)
        and np.array_equal(a.samples, b.samples, equal_nan=True)
        and np.array_equal(a.stopped_at, b.stopped_at, equal_nan=True)
        and a.stop_reason == b.stop_reason
        and np.array_equal(a.rejections, b.rejections)
    )


def _meta_to_json(meta: dict) -> dict:
    out = dict(meta)
    beta = out.get("beta")
    if beta is not None and np.isinf(beta):
        out["beta"] = "inf"
    return out


def _meta_from_json(obj: dict) -> dict:
    out = dict(obj)
    if out.get("beta") == "inf":
        out["beta"] = float("inf")
    return out


def write_jsonl(ens: PathEnsemble, path: str):
    """One header line with metadata, then one record per path per sample
    time in path-major order.  A record is stopped once t >= stopped_at,
    and a record whose sample holds a NaN carries an empty sigma list;
    byte content is a pure function of the ensemble.

    Records are formatted and written in blocks of paths: one json.dumps
    call formats every sample row of a block (the same float repr as a
    per-record dumps), so memory is bounded by one block.
    """
    header = {
        "meta": _meta_to_json(ens.meta),
        "times": [float(t) for t in ens.times],
        "stopped_at": [None if np.isnan(t) else float(t) for t in ens.stopped_at],
        "stop_reason": list(ens.stop_reason),
        "rejections": [int(r) for r in ens.rejections],
    }
    dim = ens.samples.shape[2]
    t_str = [json.dumps(float(t)) for t in ens.times]
    # comparisons with a NaN stop time are False: a path that never stopped
    flag = np.where(ens.times[None, :] >= ens.stopped_at[:, None], "true", "false")
    empty = np.isnan(ens.samples).any(axis=2)
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for lo in range(0, ens.n_paths, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, ens.n_paths)
            # rows holding a NaN are formatted too, then replaced by []
            rows = json.dumps(ens.samples[lo:hi].reshape(-1, dim).tolist())[2:-2].split("], [")
            blank = empty[lo:hi].ravel().tolist()
            flags = flag[lo:hi].ravel().tolist()
            keys = [(p, t) for p in range(lo, hi) for t in t_str]
            fh.write("".join(
                f'{{"path": {p}, "t": {t}, "sigma": [{"" if e else r}], "stopped": {f}}}\n'
                for (p, t), r, e, f in zip(keys, rows, blank, flags)
            ))


def read_jsonl(path: str) -> PathEnsemble:
    """Inverse of write_jsonl.  Lines are parsed in bounded batches, one
    json.loads call per batch, so memory does not grow with the file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        meta = _meta_from_json(header["meta"])
        times = np.asarray(header["times"], dtype=float)
        stopped_at = np.asarray(
            [np.nan if t is None else t for t in header["stopped_at"]], dtype=float
        )
        reasons = list(header["stop_reason"])
        rejections = np.asarray(header["rejections"], dtype=np.int64)
        n_paths = len(reasons)
        dim = int(meta["dim"])
        samples = np.full((n_paths, times.size, dim), np.nan)
        t_index = {float(t): j for j, t in enumerate(times)}
        while lines := fh.readlines(_READ_BYTES):
            recs = [r for r in json.loads("[" + ",".join(lines) + "]") if r["sigma"]]
            if recs:
                samples[
                    [r["path"] for r in recs], [t_index[r["t"]] for r in recs]
                ] = [r["sigma"] for r in recs]
    return PathEnsemble(
        meta=meta,
        times=times,
        samples=samples,
        stopped_at=stopped_at,
        stop_reason=reasons,
        rejections=rejections,
    )


def run_ensemble(cfg, kernel, threads: int = 1) -> PathEnsemble:
    """Integrate an ensemble of paths with per-interval reject-and-halve.

    Each path takes its full steps of size h.  A rejected step is refined
    on a dyadic grid: the path retries the same draw over successively
    halved substeps, an accepted substep takes fresh draws and lets the
    substep size grow back, so the h / 2**10 floor is only reached through
    ten consecutive rejections.  A path at the floor stops at its current
    time, named by its last rejection.  A FREEZE status (cutoff reached
    zero) stops the path where it is.

    Each loop iteration makes one kernel.attempt call over every live path
    of a chunk: a path at a step boundary takes its full step, a path
    inside a refinement its next substep (the frac array passed with h
    gives each path's step as a fraction of h: one at a step boundary, a
    power of two below one inside a refinement).  A path that refines falls
    behind the others by its extra attempts; it samples, refills its noise
    and retires when it reaches those step counts itself.  Every path sees
    the same arithmetic and draws, in the same order, as if it ran alone.

    A kernel that declares `releases_gil` takes chunks of _CHUNK paths,
    run on `threads` workers when threads > 1 and inline otherwise.  A
    kernel whose step holds the interpreter lock gains nothing from
    threads: its chunks always run inline and hold _INLINE_CHUNK paths, so
    each numpy call of a step covers more paths.
    """
    check_threads(threads)
    n_paths = cfg.n_paths
    steps = cfg.n_steps
    h = cfg.dt
    sample_idx = cfg.sample_indices
    times = sample_idx * h
    samples = np.full((n_paths, times.size, kernel.obs_dim), np.nan)
    stopped_at = np.full(n_paths, np.nan)
    reasons: list = [None] * n_paths
    rejections = np.zeros(n_paths, dtype=np.int64)

    def do_chunk(lo: int, hi: int):
        c = hi - lo
        state = kernel.init(c)
        nd = kernel.noise_dim
        # path i's primary draws for steps [s0, s0 + block) sit in rows
        # i * block + (s mod block) of one reused buffer, refilled from
        # its persistent stream when it reaches step s0
        block = max(1, min(steps, _NOISE_BYTES // (8 * c * max(nd, 1))))
        noise = np.empty((c * block, nd))
        gens = [path_generator(cfg.seed, cfg.scheme, p) for p in range(lo, hi)] if nd else None
        # step counts at which a path samples, refills or retires
        event = np.zeros(steps + 1, dtype=bool)
        event[sample_idx] = True
        event[::block] = True
        event[steps] = True
        step = np.zeros(c, dtype=np.int64)  # full steps taken
        row = np.arange(c) * block  # noise row of the current (sub)step
        alive = np.ones(c, dtype=bool)
        # each path's current (sub)step as a fraction of h, below one
        # exactly while the path is inside a refinement; ladder holds the
        # units of the step still to go for the paths that are
        frac = np.ones(c)
        ladder: dict = {}
        retry_gens: dict = {}

        def settle(i: int, st: int) -> bool:
            # status st of path i at the start of, or inside, a refinement;
            # True once its full step is done.  A rejected substep is
            # refined, not redrawn: the increment over its first half is
            # the conditional (bridge) draw (xi + eta) / sqrt(2), so an
            # adverse draw decays by 1/sqrt(2) per level instead of being
            # forgotten.  Accepted substeps take fresh draws from the path's
            # retry stream and the substep size grows back, so only a run
            # of ten straight rejections (a path cornered at the boundary at
            # every scale) reaches the floor.  The substep's draw lives in
            # the path's current noise row.
            units = ladder.pop(i, _HALVING_UNITS)
            du = int(frac[i] * _HALVING_UNITS)  # exact: a power of two
            r = row[i]
            if st == OK:
                units -= du
                if units == 0:
                    frac[i] = 1.0
                    return True
                noise[r] = retry_gens[i].standard_normal(nd)
                du = min(2 * du, units)
            elif st != FREEZE:
                rejections[lo + i] += 1
                if i not in retry_gens:
                    retry_gens[i] = path_generator(cfg.seed, cfg.scheme, lo + i, retry=True)
                noise[r] = (noise[r] + retry_gens[i].standard_normal(nd)) / np.sqrt(2.0)
                du //= 2
            if st == FREEZE or du == 0:
                stopped_at[lo + i] = (int(step[i]) + (_HALVING_UNITS - units) / _HALVING_UNITS) * h
                reasons[lo + i] = "cutoff-floor" if st == FREEZE else REJECTIONS[st][0]
                alive[i] = False
            else:
                ladder[i] = units
                frac[i] = du / _HALVING_UNITS
            return False

        def arrive(paths: np.ndarray) -> bool:
            # paths has just reached an event's step count; True if any
            # of them retired
            s = step[paths]
            pos = np.searchsorted(sample_idx, s)
            hit = sample_idx.take(pos, mode="clip") == s
            if hit.any():
                samples[lo + paths[hit], pos[hit]] = kernel.observe(state)[paths[hit]]
            end = s == steps
            alive[paths[end]] = False
            start = (s % block == 0) & ~end
            if start.any():
                first = paths[start]
                row[first] = first * block
                if gens:
                    for i, si in zip(first, s[start]):
                        r = i * block
                        gens[i].standard_normal(out=noise[r : r + min(block, steps - si)])
            return end.any()

        arrive(np.arange(c))
        act = np.arange(c)
        while act.size:
            # while every path is live, act is arange(c) and gather copies nothing
            xi = noise.take(gather(row, act), axis=0)
            sub = gather(frac, act)
            status = kernel.attempt(state, act, h, xi, sub)
            off = np.flatnonzero((status != OK) | (sub < 1.0))
            stay = off
            if off.size:
                ended = [settle(i, st) for i, st in zip(act[off].tolist(), status[off].tolist())]
                stay = off[np.logical_not(ended)]
            # every path's counters move on; a path still refining, or
            # stopped, is taken back and reaches no event
            step += 1
            row += 1
            reached = event.take(gather(step, act))
            left = False
            if stay.size:
                back = act[stay]
                step[back] -= 1
                row[back] -= 1
                reached[stay] = False
                left = not alive.take(back).all()
            if reached.any():
                left = arrive(act[reached]) or left
            if left:
                act = np.flatnonzero(alive)

    pooled = threads > 1 and kernel.releases_gil
    size = _CHUNK if kernel.releases_gil else _INLINE_CHUNK
    chunks = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]
    if pooled and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda c: do_chunk(*c), chunks))
    else:
        for lo, hi in chunks:
            do_chunk(lo, hi)

    meta = cfg.to_meta()
    meta["dim"] = kernel.obs_dim
    return PathEnsemble(
        meta=meta,
        times=times,
        samples=samples,
        stopped_at=stopped_at,
        stop_reason=reasons,
        rejections=rejections,
    )
