"""Path ensembles, deterministic per-path noise streams, the kernel protocol
every scheme subclasses (_Kernel) and the shared integrator driver with
reject-and-halve step control.  A kernel's _step only proposes; the
protocol's attempt() alone gathers a chunk's paths and stores what it
accepts.

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
from dataclasses import dataclass
from functools import cache
from itertools import chain, cycle, repeat

import numpy as np

from .config import _is_integer, _positive_finite
from .errors import ChamberExit, ConfigInvalid, DomainExit, OriginHit, RecordInvalid
from .geometry import in_chamber

_CHUNK = 512  # paths per chunk for a kernel that releases the interpreter lock
_INLINE_CHUNK = 1024  # paths per chunk for a kernel that holds it
# a refill draws at most _REFILL_DRAWS normals per path (at least one
# step's); a chunk spreads its steps evenly over the fewest refills that
# allows, so its last block is not left nearly empty (15 steps as 8 + 7,
# not 14 + 1)
_REFILL_DRAWS = 256
_HALVING_UNITS = 1024  # step-halving floor is h / 2**10
_WRITE_VALUES = 4096  # sigma values or header list entries per write_jsonl block, at least one record's
_READ_BYTES = 1 << 16  # size hint for one batch of lines in read_jsonl
_JSON_TEXTS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}  # where json.dumps differs from repr
_STOPPED = ('], "stopped": false}\n', '], "stopped": true}\n')
# read_jsonl splits a batch at both brackets of every sigma list
_BRACKETS = str.maketrans("[]", "\x1e\x1e")
# what is left of a sigma list's text once its numbers go: the separators
_DROP_NUMBERS = str.maketrans("", "", "0123456789.eE+-Infinity")
# the lists of write_jsonl's header, after meta
_HEADER_LISTS = ("times", "stopped_at", "stop_reason", "rejections")

SCHEME_IDS = {
    "matrix": 1,
    "particle": 2,
    "mean-curvature": 3,
    "dyson": 4,
    "sphere-point": 5,
    "sphere-radius": 6,
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
    """Refuse a worker count that is not an integer of at least one."""
    if not (_is_integer(threads) and threads >= 1):
        raise ConfigInvalid(f"threads: must be a positive integer, got {threads}")


def check_gaussians(gaussians, dim: int) -> np.ndarray:
    """The draws of one single-state step as a float vector; ValueError
    unless there are exactly dim of them."""
    xi = np.asarray(gaussians, dtype=float)
    if xi.shape != (dim,):
        raise ValueError(f"expected {dim} gaussians, got shape {xi.shape}")
    return xi


def check_step(h) -> float:
    """The step size of a single-state step as a float; ValueError naming h
    unless it is a positive finite number, SimConfig's rule for dt."""
    return _positive_finite("h", h, ValueError)


def step_once(kernel, state, h: float, xi) -> None:
    """Attempt one step of size h for the single path held in state, in
    place, and raise the error its rejection names; a frozen path stays.
    A kernel that draws nothing still takes one draw per coordinate, unread."""
    h = check_step(h)
    xi = check_gaussians(xi, kernel.noise_dim or kernel.obs_dim)[: kernel.noise_dim]
    raise_rejection(int(kernel.attempt(state, np.array([0]), h, xi[None, :], np.ones(1))[0]))


def raise_rejection(status: int) -> None:
    """Raise the error REJECTIONS names for a single-state step's status."""
    if status in REJECTIONS:
        _, error, message = REJECTIONS[status]
        raise error(message)


def gather(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Paths idx (ascending) of a path-last array; a itself when idx holds
    every path, so a kernel steps a full batch without a copy."""
    return a if idx.size == a.shape[-1] else a.take(idx, -1)


def store(state: np.ndarray, idx: np.ndarray, vals: np.ndarray, ok: np.ndarray) -> None:
    """state[..., idx[ok]] = vals[..., ok] for ascending idx, _Kernel.attempt's
    store of accepted proposals: one masked copy when idx holds every path."""
    if idx.size == state.shape[-1]:
        np.copyto(state, vals, where=ok)
    else:
        state[..., idx[ok]] = vals.take(np.flatnonzero(ok), -1)


def _noise_coef(beta: float) -> float:
    """Rate sqrt(2/beta) of the radial noise; zero in the beta = inf limit."""
    return 0.0 if np.isinf(beta) else float(np.sqrt(2.0 / beta))


class _Kernel:
    """Kernel protocol shared by every scheme: the state is a C-ordered
    array with one column of coordinates per path, (n, c), so every
    operation of a step is one contiguous loop over paths, and is observed
    transposed, one row per path.  A subclass proposes a move in
    _step(x, h, xi), with x the gathered paths' state, h their step sizes
    and xi their noise_dim draws, and returns (proposal, status) without
    writing x; attempt() stores the proposals whose status is OK."""

    releases_gil = False  # small numpy calls per step: the interpreter lock bounds it

    def __init__(self, sigma0, beta: float, gap_floor: float):
        self.sigma0 = np.asarray(sigma0, dtype=float)
        self.noise_coef = _noise_coef(beta)
        self.floor = gap_floor
        self.obs_dim = self.sigma0.size
        self.noise_dim = self.obs_dim if self.noise_coef else 0

    def init(self, c: int) -> np.ndarray:
        return np.tile(self.sigma0[:, None], (1, c))

    def observe(self, state: np.ndarray) -> np.ndarray:
        return state.T

    def attempt(self, state, idx, h, xi, frac):
        # a (c,) step size broadcasts against the (n, c) state
        prop, status = self._step(gather(state, idx), h * frac, xi)
        store(state, idx, prop, status == OK)
        return status

    def _noise(self, h, xi):
        """sqrt(2/beta) sqrt(h) xi in the state's layout; 0.0 at beta = inf."""
        return self.noise_coef * np.sqrt(h) * xi.T if self.noise_coef else 0.0

    def _chamber_ok(self, prop: np.ndarray, positive: bool = True) -> np.ndarray:
        return in_chamber(prop.T, self.floor, positive)

    @staticmethod
    def _accept(ok, frozen=None, reject=REJECT_CHAMBER) -> np.ndarray:
        """Status OK where ok, reject elsewhere and FREEZE where frozen."""
        status = np.where(ok, OK, reject)
        if frozen is not None:
            status[frozen] = FREEZE
        return status


@cache
def _philox_key_type():
    """A seed sequence whose state is the Philox key it holds.  Philox
    built from it has the state and draws of Philox(key=key) without first
    seeding a SeedSequence from operating-system entropy it then throws
    away.  Made on first use, so numpy.random is imported on first use."""

    class PhiloxKey(np.random.bit_generator.ISeedSequence):
        def __init__(self, key: tuple):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            # Philox asks for its key as two 64-bit words
            return np.array(self.key, dtype=np.uint64)

    return PhiloxKey


def path_generator(seed: int, scheme: str, path_index: int, retry: bool = False):
    """Generator for one path's noise stream (Philox, explicitly keyed)."""
    tag = (int(retry) << 60) | (SCHEME_IDS[scheme] << 48) | path_index
    return np.random.Generator(np.random.Philox(_philox_key_type()((seed, tag))))


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


def _json_texts(values: np.ndarray) -> list:
    """The text json.dumps writes for each float of values."""
    texts = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[i] = _JSON_TEXTS[texts[i]]
    return texts


def _records(first: int, rows, times, stopped_at) -> str:
    """Records first, first + 1, ... of trajectories.jsonl, one line per
    sigma row text in rows: record k is path k // n_times at time
    k % n_times, stopped once t >= stopped_at.  write_jsonl writes these
    lines and read_jsonl checks every batch it reads against them."""
    p, j = np.divmod(np.arange(first, first + len(rows)), times.size)
    # each path's start repeats once a record, and the heads of the first
    # n_times records repeat with period n_times
    starts = map(repeat, [f'{{"path": {q}' for q in range(p[0], p[-1] + 1)], np.bincount(p - p[0]).tolist())
    heads = [f', "t": {t}, "sigma": [' for t in _json_texts(times[j[: times.size]])]
    # comparisons with a NaN stop time are False: a path that never stopped
    ends = map(_STOPPED.__getitem__, (times[j] >= stopped_at[p]).tolist())
    pieces = zip(chain.from_iterable(starts), cycle(heads), rows, ends)
    return "".join(chain.from_iterable(pieces))


def _header(ens: PathEnsemble):
    """The header line of trajectories.jsonl in pieces, its lists in blocks
    of at most _WRITE_VALUES entries: write_jsonl writes them, and read_jsonl
    accepts a header line only if it is these pieces for the values it reads."""
    yield '{"meta": ' + json.dumps(_meta_to_json(ens.meta))
    for key in _HEADER_LISTS:
        entries = getattr(ens, key)
        yield f', "{key}": ['
        for lo in range(0, len(entries), _WRITE_VALUES):
            block = np.asarray(entries[lo : lo + _WRITE_VALUES]).tolist()
            if key == "stopped_at":
                block = [None if t != t else t for t in block]  # NaN: never stopped
            yield (", " if lo else "") + json.dumps(block)[1:-1]
        yield "]"
    yield "}\n"


def write_jsonl(ens: PathEnsemble, path: str):
    """One header line with metadata, then one record per path per sample
    time in path-major order, each on its own line in the fixed layout

        {"path": 3, "t": 0.25, "sigma": [0.81, 1.6], "stopped": false}

    A record is stopped once t >= stopped_at, and a record whose sample
    holds a NaN carries an empty sigma list.  Every float is written as
    json.dumps writes it (its repr, and Infinity or -Infinity), so byte
    content is a pure function of the ensemble.

    The header's lists are written in blocks of at most _WRITE_VALUES
    entries, and the records in blocks of at most _WRITE_VALUES sigma
    values, at least one record, so memory beyond the ensemble is bounded
    by one block: the text of its values, the rows joined from them, the
    heads of the times it touches and the block's text.
    """
    n_times, dim = ens.samples.shape[1:]
    rows_of = ens.samples.reshape(ens.n_paths * n_times, dim)  # record k's row is rows_of[k]
    per_block = max(1, _WRITE_VALUES // max(1, dim))
    with open(path, "w") as fh:
        fh.writelines(_header(ens))
        for lo in range(0, len(rows_of), per_block):
            block = rows_of[lo : lo + per_block]
            vals = _json_texts(block.ravel())
            rows = vals if dim == 1 else list(map(", ".join, zip(*[iter(vals)] * dim)))
            # rows holding a NaN are formatted too, then emptied
            for i in np.flatnonzero(np.isnan(block).any(axis=1)).tolist():
                rows[i] = ""
            fh.write(_records(lo, rows, ens.times, ens.stopped_at))


def read_jsonl(path: str) -> PathEnsemble:
    """Inverse of write_jsonl.  The header line must be what write_jsonl
    writes for the values json reads from it, taken as the types the
    ensemble holds, with meta.dim >= 1 and one stop time, reason and count
    per path.  The records are read in batches of whole lines near
    _READ_BYTES long, so memory beyond the returned ensemble does not grow
    with the file, and each batch must be in write_jsonl's layout.

    Records are read by position: record k (line k + 2) is path
    k // n_times at time k % n_times, so every record must be there, in
    write_jsonl's order.  One pass over a batch pulls out the sigma text of
    every record, the batch must equal the records rebuilt from those
    texts at their positions (t as json.dumps writes the header's time,
    with the stopped flag the header's stop times give), and every sigma
    list holds dim numbers or none.  The numbers of a batch are read by
    one json.loads, so an entry is a JSON number, Infinity or -Infinity
    and reads back exactly.  A line that breaks any of this, and a file
    that ends before its last record, raises RecordInvalid, which names
    the line.
    """
    with open(path) as fh:
        try:
            text = fh.readline()
            head = json.loads(text)
            meta = dict(head["meta"])
            if meta.get("beta") == "inf":
                meta["beta"] = float("inf")
            dim = meta["dim"] = int(meta["dim"])
            ens = PathEnsemble(
                meta=meta,
                times=np.fromiter(head["times"], float),
                samples=None,  # allocated once the header is accepted
                stopped_at=np.fromiter(head["stopped_at"], float),  # null reads as NaN
                stop_reason=[None if r is None else str(r) for r in head["stop_reason"]],
                rejections=np.fromiter(head["rejections"], np.int64),
            )
            del head
            if dim < 1 or not len(ens.stopped_at) == len(ens.stop_reason) == len(ens.rejections):
                raise ValueError("meta.dim is below one, or stop times, reasons and counts differ in number")
            # only the last piece ends a line, so text is the pieces or is off
            pos = 0
            for piece in _header(ens):
                if not text.startswith(piece, pos):
                    raise ValueError(f"it is not what write_jsonl writes for its values after column {pos}")
                pos += len(piece)
            del text
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise RecordInvalid(f"{path}, line 1: not a header in write_jsonl's form: {exc}") from None
        ens.samples = np.full((len(ens.stop_reason), ens.times.size, dim), np.nan)
        total = ens.n_paths * ens.times.size
        rows_of = ens.samples.reshape(total, dim)  # a view: record k's row is rows_of[k]

        def parse(text: str, first: int):
            # (records, nonempty sigma lists, their rows) of text, which
            # holds records first, first + 1, ...; ValueError off the layout
            parts = text.translate(_BRACKETS).split("\x1e")
            n = len(parts) // 2
            if n == 0 or first + n > total:
                raise ValueError("no record at this position")
            sigma = parts[1::2]
            rebuilt = _records(first, sigma, ens.times, ens.stopped_at)
            # the last line of a file may lack its newline
            if rebuilt != text and rebuilt[:-1] != text:
                raise ValueError("not in the layout")
            rows = list(filter(None, sigma))
            full = np.fromiter(map(bool, sigma), bool, n)
            vals = np.empty((0, dim))
            if rows:
                if set(map(str.count, rows, repeat(", "))) != {dim - 1}:
                    raise ValueError(f"a sigma list without {dim} entries")
                joined = ", ".join(rows)
                if joined.translate(_DROP_NUMBERS) != ", " * (dim * len(rows) - 1):
                    raise ValueError("a sigma entry that is not a number")
                # json takes a JSON number, Infinity or -Infinity and
                # nothing else, each read as float() reads it
                vals = np.array(json.loads(f"[{joined}]", parse_int=float)).reshape(-1, dim)
            return n, full, vals

        line = 2  # of the first record in the batch
        while text := fh.read(_READ_BYTES):
            text += fh.readline()
            try:
                n, full, vals = parse(text, line - 2)
            except ValueError:
                # every check holds line by line, so some line fails alone
                lines = text.split("\n")
                for k, bad in enumerate(lines[:-1] if text.endswith("\n") else lines):
                    try:
                        parse(bad + "\n", line - 2 + k)
                    except ValueError:
                        break
                raise RecordInvalid(
                    f"{path}, line {line + k}: not a record in write_jsonl's layout: {bad[:200]!r}"
                ) from None
            rows_of[line - 2 : line - 2 + n][full] = vals
            line += n
        if line - 2 < total:
            raise RecordInvalid(
                f"{path}, line {line}: missing: the file ends after {line - 2} of the "
                f"{total} records of {ens.n_paths} paths at {ens.times.size} times"
            )
    return ens


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
    the same arithmetic and draws, in the same order, as if it ran alone;
    a kernel with noise_dim = 0 (beta = inf) builds no noise stream, primary
    or retry.

    A kernel that declares `releases_gil` takes chunks of _CHUNK paths,
    run on min(threads, chunks) workers when that is above one and inline
    otherwise.  A kernel whose step holds the interpreter lock gains
    nothing from threads: its chunks always run inline and hold
    _INLINE_CHUNK paths, so each numpy call of a step covers more paths.
    A refill draws at most _REFILL_DRAWS normals per path, at least one
    step's, whatever the worker count.
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

    size = _CHUNK if kernel.releases_gil else _INLINE_CHUNK
    chunks = [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]

    def do_chunk(lo: int, hi: int):
        c = hi - lo
        state = kernel.init(c)
        nd = kernel.noise_dim
        # path i's primary draws for steps [s0, s0 + block) sit in rows
        # i * block + (s mod block) of one reused buffer, its slab, refilled
        # from its persistent stream when it reaches step s0; a refill
        # draws at most _REFILL_DRAWS normals a path, and the steps spread
        # evenly over the fewest refills that allows
        most = max(1, _REFILL_DRAWS // max(nd, 1))
        block = -(-steps // -(-steps // most))
        noise = np.empty((c * block, nd))
        fills = slabs = None
        if nd:
            fills = [path_generator(cfg.seed, cfg.scheme, p).standard_normal for p in range(lo, hi)]
            slabs = [noise[r : r + block] for r in range(0, c * block, block)]
        # step counts at which a path samples, refills or retires
        event = np.zeros(steps + 1, dtype=bool)
        event[sample_idx] = True
        event[::block] = True
        event[steps] = True
        step = np.zeros(c, dtype=np.int64)  # full steps taken
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
            r = i * block + step[i] % block
            if st == OK:
                units -= du
                if units == 0:
                    frac[i] = 1.0
                    return True
                if nd:
                    noise[r] = retry_gens[i].standard_normal(nd)
                du = min(2 * du, units)
            elif st != FREEZE:
                rejections[lo + i] += 1
                if nd:
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
            if fills and start.any():
                for i, si in zip(paths[start].tolist(), s[start].tolist()):
                    slab = slabs[i]
                    fills[i](out=slab if si + block <= steps else slab[: steps - si])
            return end.any()

        arrive(np.arange(c))
        act = np.arange(c)
        while act.size:
            # while every path is live, act is arange(c) and gather copies nothing
            xi = noise.take(gather(step, act) % block + act * block, axis=0)
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
            reached = event.take(gather(step, act))
            left = False
            if stay.size:
                back = act[stay]
                step[back] -= 1
                reached[stay] = False
                left = not alive.take(back).all()
            if reached.any():
                left = arrive(act[reached]) or left
            if left:
                act = np.flatnonzero(alive)

    workers = min(threads, len(chunks)) if kernel.releases_gil else 1
    if workers > 1:
        # imported here, so a run that starts no pool imports neither it
        # nor the logging it brings
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
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
