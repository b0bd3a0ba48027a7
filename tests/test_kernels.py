"""The single-state step functions and the ensemble driver run one kernel,
the coordinate-major particle-type kernels step exactly as the row-major
ones they replaced, and no kernel's step writes its input."""
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
from siegelbm import cutoff_eta, ensemble
from siegelbm.config import SCHEMES
from siegelbm.ensemble import ensembles_equal, path_generator, run_ensemble
from siegelbm.entropy import _dyson_raw, _entropy_raw, _gradient_raw
from siegelbm import matrix_flow
from siegelbm.geometry import in_chamber
from siegelbm.matrix_flow import MatrixKernel
from siegelbm.particle_flow import (
    _KERNELS,
    DysonKernel,
    MeanCurvatureKernel,
    ParticleKernel,
    SpherePointKernel,
    SphereRadiusKernel,
)
from test_pair_table import _chamber, _expected, reference_dyson_raw

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
        ("matrix", 3, (0.5, 1.0, 1.5), simulate_matrix_paths, _matrix),
        ("matrix", 8, tuple(0.4 * np.arange(1, 9)), simulate_matrix_paths, _matrix),
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
    # at beta = inf the kernels draw nothing, but the single-state steps keep
    # their contracts: n draws for the particle step, n^2 + n for the matrix
    # step, which moves its frame with them
    "particle-inf": (lambda g: step_particles(np.array([1.0, 2.0]), np.inf, 1e-3, g),
                     [np.zeros(0), np.zeros(1), np.zeros(3), np.zeros((1, 2))]),
    "matrix-inf": (lambda g: step_matrix_flow(init_matrix_state((1.0, 2.0)), np.inf, 1e-3, g),
                   [np.zeros(0), np.zeros(2), np.zeros(5), np.zeros((1, 6))]),
}


@pytest.mark.parametrize("case", sorted(_WRONG_SIZED))
def test_single_state_steps_refuse_wrong_sized_gaussians(case):
    step, bad = _WRONG_SIZED[case]
    for g in bad:
        with pytest.raises(ValueError, match="gaussians"):
            step(g)


# the noise is gone at beta = inf, so no kernel draws there but the sphere
# point's, whose tangential noise runs at unit rate at every beta; the
# mean-curvature kernel ignores beta and never draws
@pytest.mark.parametrize("beta", [2.0, np.inf])
def test_only_the_sphere_point_kernel_draws_at_infinite_beta(beta):
    draws = {}
    for scheme in SCHEMES:
        sigma0 = (0.05,) if scheme.startswith("sphere") else (0.5, 1.0, 1.5)
        cfg = SimConfig(scheme=scheme, n=3, beta=beta, sigma0=sigma0, t_final=1e-3, dt=1e-3,
                        n_paths=1, seed=0)
        kernel = MatrixKernel(sigma0, beta, 1e-6) if scheme == "matrix" else _KERNELS[scheme](cfg)
        draws[scheme] = kernel.noise_dim
    if np.isinf(beta):
        assert draws == {scheme: 3 if scheme == "sphere-point" else 0 for scheme in SCHEMES}
    else:
        assert draws == {"matrix": 12, "particle": 3, "mean-curvature": 0, "dyson": 3,
                         "sphere-point": 3, "sphere-radius": 1}


def test_single_state_steps_do_not_read_their_draws_at_infinite_beta():
    # sigma moves by the mean-curvature step whatever the draws; the matrix
    # step's frame still moves with them
    sigma, h = np.array([0.5, 1.0, 1.5]), 1e-2
    g1, g2 = np.random.default_rng(31).standard_normal((2, 12))
    moved = step_particles(sigma, np.inf, h, g1[:3])
    assert _same_bits(step_particles(sigma, np.inf, h, g2[:3]), moved)
    a = step_matrix_flow(init_matrix_state(sigma), np.inf, h, g1)
    b = step_matrix_flow(init_matrix_state(sigma), np.inf, h, g2)
    assert _same_bits(a.sigma_cache, moved) and _same_bits(b.sigma_cache, moved)
    assert not np.allclose(a.q_cache, b.q_cache)


class _FixedStatus:
    """A kernel whose every attempt returns one status and moves nothing."""

    noise_dim = 2

    def __init__(self, status):
        self.status = status

    def attempt(self, state, idx, h, xi, frac):
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


# ---------------------------------------------------------------------------
# Coordinate-major particle state against the row-major kernels it replaced.
#
# The five particle-type kernels hold their state as (n, c), one column per
# path.  The classes below keep the earlier row-major step bodies, one row
# per path, as references.  They call the entropy helpers on rows, as the
# matrix kernel does, add the sphere-point sums one coordinate after
# another along each row, and take a per-path step size as a column.
# Every trajectory must come out bit for bit the same, so the layout of the
# state changes no path.


def _row_sum(a):
    """Sum over the last axis, one coordinate after another."""
    acc = a[..., 0]
    for k in range(1, a.shape[-1]):
        acc = acc + a[..., k]
    return acc


def _row_norm(z):
    return np.sqrt(_row_sum(z * z))[:, None]


def _reference_rk4(sig, h):
    k1 = 0.5 * _gradient_raw(sig)
    k2 = 0.5 * _gradient_raw(sig + 0.5 * h * k1)
    k3 = 0.5 * _gradient_raw(sig + 0.5 * h * k2)
    k4 = 0.5 * _gradient_raw(sig + h * k3)
    return sig + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class _RowMajor:
    """The row-major state layout: one row of coordinates per path, gathered
    and stored by rows, with a per-path step size as a column."""

    def init(self, c):
        return np.tile(self.sigma0, (c, 1))

    def observe(self, state):
        return state

    def attempt(self, state, idx, h, xi, frac):
        prop, status = self._step(state[idx], (h * frac)[:, None], xi)
        ok = status == ensemble.OK
        state[idx[ok]] = prop[ok]
        return status

    def _chamber_ok(self, prop, positive=True):
        return in_chamber(prop, self.floor, positive) & np.all(np.isfinite(prop), axis=-1)


class _RowParticle(_RowMajor, ParticleKernel):
    def _step(self, sig, h, xi):
        if self.cutoff is not None:
            eta = cutoff_eta(sig, *self.cutoff)
        else:
            eta = np.ones(len(sig))
        drift = 0.5 * _gradient_raw(sig)
        prop = sig + eta[:, None] * (drift * h + self.noise_coef * np.sqrt(h) * xi)
        frozen = eta == 0.0
        return prop, self._accept(self._chamber_ok(prop) & ~frozen, frozen)


class _RowMeanCurvature(_RowMajor, MeanCurvatureKernel):
    def _step(self, sig, h, xi):
        prop = _reference_rk4(sig, h)
        return prop, self._accept(self._chamber_ok(prop))


class _RowDyson(_RowMajor, DysonKernel):
    def _step(self, lam, h, xi):
        prop = lam + _dyson_raw(lam) * h + self.noise_coef * np.sqrt(h) * xi
        return prop, self._accept(self._chamber_ok(prop, positive=False))


class _RowSpherePoint(_RowMajor, SpherePointKernel):
    def init(self, c):
        z = np.zeros((c, self.noise_dim))
        z[:, 0] = self.sigma0[0]
        return z

    def observe(self, state):
        return _row_norm(state)

    def _step(self, z, h, xi):
        zh = z / _row_norm(z)
        db = np.sqrt(h) * xi
        rad = _row_sum(zh * db)[:, None]
        prop = z + db - zh * rad + self.noise_coef * zh * rad
        ok = _row_norm(prop)[:, 0] > self.floor
        return prop, self._accept(ok, reject=ensemble.REJECT_ORIGIN)


class _RowSphereRadius(_RowMajor, SphereRadiusKernel):
    def _step(self, r, h, xi):
        prop = r + (self.n - 1) / (2.0 * r) * h + self.noise_coef * np.sqrt(h) * xi
        ok = in_chamber(prop, self.floor)
        return prop, self._accept(ok, reject=ensemble.REJECT_ORIGIN)


_ROW_MAJOR = {
    "particle": _RowParticle,
    "mean-curvature": _RowMeanCurvature,
    "dyson": _RowDyson,
    "sphere-point": _RowSpherePoint,
    "sphere-radius": _RowSphereRadius,
}


def _row_major_kernel(cfg):
    """The reference twin of the kernel the scheme's factory builds."""
    kernel = _KERNELS[cfg.scheme](cfg)
    twin = object.__new__(_ROW_MAJOR[cfg.scheme])
    twin.__dict__.update(kernel.__dict__)
    return kernel, twin


_EIGHT = tuple(0.4 * np.arange(1, 9))

# (config, what the reference run must show); dt 1e-3, beta 2, seed 11
_LAYOUT_CASES = {
    # walls: refinements and a chamber-exit stop
    "particle-walls": (dict(scheme="particle", n=3, sigma0=(0.01, 0.02, 0.03), t_final=0.05,
                            n_paths=100), "chamber-exit"),
    # beta 0.1: the cutoff freezes paths, some of them inside a refinement
    "particle-cutoff": (dict(scheme="particle", n=2, beta=0.1, sigma0=(0.5, 1.0), t_final=0.1,
                             n_paths=50, cutoff=(2.0, 2.0)), "cutoff-floor"),
    "particle-n1": (dict(scheme="particle", n=1, sigma0=(0.05,), t_final=0.05, n_paths=60),
                    "rejections"),
    "particle-n8": (dict(scheme="particle", n=8, sigma0=_EIGHT, t_final=0.03, n_paths=40),
                    "rejections"),
    # log sum cosh / K lies in (1, 2), where eta depends on every bit of the sum
    "particle-n8-cutoff": (dict(scheme="particle", n=8, sigma0=_EIGHT, t_final=0.02, n_paths=30,
                                cutoff=(100.0, 2.5)), None),
    "mean-curvature": (dict(scheme="mean-curvature", n=3, beta=float("inf"),
                            sigma0=(0.5, 1.0, 1.5), t_final=0.05, n_paths=4), None),
    "dyson-n8": (dict(scheme="dyson", n=8, sigma0=tuple(np.arange(-3.5, 4.0)), t_final=0.05,
                      n_paths=30), None),
    "sphere-point-n3": (dict(scheme="sphere-point", n=3, sigma0=(0.05,), t_final=0.05,
                             n_paths=30), None),
    "sphere-point-n8": (dict(scheme="sphere-point", n=8, sigma0=(0.05,), t_final=0.05,
                             n_paths=30), None),
    "sphere-radius": (dict(scheme="sphere-radius", n=1, sigma0=(0.05,), t_final=0.5,
                           n_paths=20), "origin-hit"),
}


@pytest.mark.parametrize("case", sorted(_LAYOUT_CASES))
def test_coordinate_major_kernels_match_row_major(case):
    kwargs, shows = _LAYOUT_CASES[case]
    cfg = SimConfig(dt=1e-3, seed=11, **{"beta": 2.0, **kwargs})
    kernel, twin = _row_major_kernel(cfg)
    reference = run_ensemble(cfg, twin)
    if shows == "rejections":
        assert reference.rejections.sum() > 0
    elif shows is not None:
        assert shows in reference.stop_reason
    assert ensembles_equal(run_ensemble(cfg, kernel), reference)


def _outcome(step, *args):
    """The new state of a single-state step, or the name of its error."""
    try:
        return np.asarray(step(*args)).tobytes()
    except (ChamberExit, OriginHit) as exc:
        return type(exc).__name__


def _row_major_step(twin, state, h, g):
    ensemble.step_once(twin, state, h, g)
    return state[0]


def test_single_state_steps_match_row_major():
    rng = np.random.default_rng(12)
    seen = set()
    # near the walls, a frozen start (S far below -2k), and n = 8
    for sigma, cutoff in [((0.02, 0.04, 0.5), None), ((0.3, 0.6), (0.3, 2.0)), (_EIGHT, None)]:
        sigma = np.array(sigma)
        twin = _RowParticle(sigma, 2.0, 1e-6, cutoff)
        for _ in range(40):
            g = rng.standard_normal(sigma.size)
            ref = _outcome(_row_major_step, twin, sigma[None, :].copy(), 1e-2, g)
            assert _outcome(step_particles, sigma, 2.0, 1e-2, g, cutoff) == ref
            seen.add("frozen" if ref == sigma.tobytes() else ref if isinstance(ref, str) else "moved")
    for n in (3, 8):
        z = np.zeros(n)
        z[0] = 0.1
        twin = _RowSpherePoint([0.1], 2.0, 0.08, n)
        for _ in range(40):
            g = rng.standard_normal(n)
            ref = _outcome(_row_major_step, twin, z[None, :].copy(), 1e-2, g)
            assert _outcome(step_sphere_point, z, 2.0, 1e-2, g, 0.08) == ref
            seen.add(ref if isinstance(ref, str) else "moved")
    assert seen == {"moved", "frozen", "ChamberExit", "OriginHit"}


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# the particle kernels call each helper on the (c, n) view of their (n, c)
# state, the matrix kernel on rows: both give the same bits, and the values
# of the references of tests/test_pair_table.py
@pytest.mark.parametrize("rows", [1, 2, 512])
@pytest.mark.parametrize("n", range(1, 9))
def test_coordinate_leading_helpers_match_the_references(n, rows):
    rng = np.random.default_rng(500 + 10 * n + rows)
    sig = np.concatenate([_chamber(rng, n, rows, top) for top in (3.0, 30.0)])
    lead = np.ascontiguousarray(sig.T)  # (n, rows), as a kernel holds its state
    for f in (_entropy_raw, _gradient_raw):
        assert _same_bits(f(lead.T), f(sig))
    for new, expected, _ in _expected(sig)[:2]:
        np.testing.assert_allclose(new, expected, rtol=1e-10)
    assert _same_bits(_dyson_raw(np.cosh(lead).T), _dyson_raw(np.cosh(sig)))
    np.testing.assert_allclose(_dyson_raw(np.cosh(sig)), reference_dyson_raw(np.cosh(sig)), rtol=1e-10)


def _columns(rng, kind, n, c):
    """Start states (n, c) that put some paths next to a wall or the origin."""
    if kind == "sphere-point":
        z = rng.standard_normal((n, c))
        return z * rng.uniform(0.26, 0.4, size=c) / np.linalg.norm(z, axis=0)
    if kind == "sphere-radius":
        return rng.uniform(0.01, 0.3, size=(1, c))
    sig = np.ascontiguousarray(_chamber(rng, n, c, 3.0, -8.0).T)
    return sig - 1.0 if kind == "dyson" else sig


_BATCH_KERNELS = {
    "particle": (lambda s: ParticleKernel(s, 2.0, 1e-6), {ensemble.REJECT_CHAMBER}),
    "particle-cutoff": (lambda s: ParticleKernel(s, 0.5, 1e-6, (5.0, 5.0)),
                        {ensemble.REJECT_CHAMBER, ensemble.FREEZE}),
    "mean-curvature": (lambda s: MeanCurvatureKernel(s, np.inf, 1e-6), {ensemble.REJECT_CHAMBER}),
    "dyson": (lambda s: DysonKernel(s, 2.0, 1e-6), {ensemble.REJECT_CHAMBER}),
    "sphere-point": (lambda s: SpherePointKernel([0.3], 2.0, 0.25, 3), {ensemble.REJECT_ORIGIN}),
    "sphere-radius": (lambda s: SphereRadiusKernel([0.1], 2.0, 1e-6, 3), {ensemble.REJECT_ORIGIN}),
}


# an attempt over every path of a chunk takes no gather and stores with one
# masked copy; over a subset it gathers and scatters: the same draws give
# the same bits and statuses on the shared paths, and leave the rest alone
@pytest.mark.parametrize("kind", sorted(_BATCH_KERNELS))
def test_full_batch_store_matches_a_gathered_subset(kind):
    make, rejects = _BATCH_KERNELS[kind]
    rng = np.random.default_rng(700)
    n, c = 3, 64
    start = _columns(rng, kind, n, c)
    kernel = make(start[:, 0])
    xi = 3.0 * rng.standard_normal((c, kernel.noise_dim))
    frac = rng.choice([1.0, 0.5, 0.125], size=c)
    full = start.copy()
    status = kernel.attempt(full, np.arange(c), 1e-2, xi, frac)
    sub = np.flatnonzero(rng.random(c) < 0.6)
    part = start.copy()
    status_sub = kernel.attempt(part, sub, 1e-2, xi[sub], frac[sub])
    np.testing.assert_array_equal(status_sub, status[sub])
    assert _same_bits(part[:, sub], full[:, sub])
    rest = np.setdiff1d(np.arange(c), sub)
    assert _same_bits(part[:, rest], start[:, rest])
    assert _same_bits(full[:, status != ensemble.OK], start[:, status != ensemble.OK])
    assert not _same_bits(full[:, status == ensemble.OK], start[:, status == ensemble.OK])
    assert set(status_sub.tolist()) == {ensemble.OK} | rejects


# (n, beta) of each matrix kernel
_MATRIX_KERNELS = {
    f"matrix-n{n}{suffix}": (n, beta)
    for n in (2, 3, 8)
    for beta, suffix in ((2.0, ""), (np.inf, "-inf"))
}


# a kernel's _step only proposes: it reads the gathered paths and the draws
# and writes neither, so attempt() is the one writer of a chunk's state
@pytest.mark.parametrize("kind", sorted(_BATCH_KERNELS) + sorted(_MATRIX_KERNELS))
def test_step_does_not_write_its_input(monkeypatch, kind):
    rng = np.random.default_rng(710)
    if kind in _MATRIX_KERNELS:
        n, beta = _MATRIX_KERNELS[kind]
        start = _columns(rng, "matrix", n, 64)
        start[-1] = start[-2] + 1e-3  # a near-collision
        kernel = MatrixKernel(start[:, 0], beta, 1e-6)
    else:
        start = _columns(rng, kind, 3, 64)
        kernel = _BATCH_KERNELS[kind][0](start[:, 0])
    c = start.shape[1]
    x, xi = start.copy(), 3.0 * rng.standard_normal((c, kernel.noise_dim))
    x.flags.writeable = xi.flags.writeable = False
    draws = xi.copy()
    factorized = []
    takagi = matrix_flow._takagi_batch
    monkeypatch.setattr(matrix_flow, "_takagi_batch", lambda a: factorized.append(a) or takagi(a))
    prop, status = kernel._step(x, 1e-2 * rng.choice([1.0, 0.5, 0.125], size=c), xi)
    assert _same_bits(x, start) and _same_bits(xi, draws)
    assert prop.shape == start.shape and status.shape == (c,)
    assert not factorized  # no kernel step factorizes, at any beta
