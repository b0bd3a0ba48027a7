"""The matrix step's contractions as batched matmul, and the factored step
as a whole, against the three-operand einsum forms they replace.

The reference functions below are the earlier formulations, kept verbatim:
the per-sigma noise assembly G, the congruence Q G Q^T and the drift lift
Q diag(d) Q^T, each a three-operand einsum.  _ref_takagi_batch is an
independent oracle that factorizes one matrix at a time through LAPACK's
SVD.  _ref_ito_attempt, the Ito-Euler step, moves the disk point R itself,
and _ref_mean_curvature_attempt, the beta = inf step, moves sigma by
geometry.normal_drift and R on its orbit by the frame of the same Ito-Euler
step; the kernel holds sigma alone, so the frame is taken from
single-state steps.  The references hold one path per leading index; the
step holds the paths last, so its inputs and outputs pass through _pl and
_pf.
"""
import numpy as np
import pytest

from siegelbm import ChamberExit, DomainExit, init_matrix_state, normal_drift, step_matrix_flow
from siegelbm import ensemble as ens
from siegelbm.entropy import _gradient_raw
from siegelbm.geometry import in_chamber
from siegelbm.linalg import _canonical_column_signs, _takagi_batch
from siegelbm.matrix_flow import MatrixKernel, _congruence, _noise_index, _noise_matrix
from siegelbm.ensemble import _noise_coef

_NS = range(1, 9)
_C = 64  # stack depth


def _pl(a):
    """A path-first stack (paths, ...) as the step's path-last view."""
    return np.moveaxis(a, 0, -1)


def _pf(a):
    return np.moveaxis(a, -1, 0)


def _ref_noise_matrix(sig, xi, beta):
    c, n = sig.shape
    ch2 = 1.0 + np.cosh(sig)
    g = np.zeros((c, n, n), dtype=complex)
    diag = (_noise_coef(beta) * xi[:, n * n :] + 1j * xi[:, :n]) / ch2
    g[:, np.arange(n), np.arange(n)] = diag
    ks, ls = np.triu_indices(n, 1)
    p = ks.size
    xi1 = xi[:, n : n + p]
    xi2 = xi[:, n + p : n + 2 * p]
    off = (xi2 + 1j * xi1) / (np.sqrt(2.0) * np.sqrt(ch2[:, ks] * ch2[:, ls]))
    g[:, ks, ls] = off
    g[:, ls, ks] = off
    return g


def _ref_noise_x(xi, n, beta):
    """The sigma-free noise factor X assembled by fancy indexing."""
    x = np.empty((xi.shape[0], n, n), dtype=complex)
    x[:, np.arange(n), np.arange(n)] = _noise_coef(beta) * xi[:, n * n :] + 1j * xi[:, :n]
    ks, ls = np.triu_indices(n, 1)
    p = ks.size
    off = (xi[:, n + p : n + 2 * p] + 1j * xi[:, n : n + p]) / np.sqrt(2.0)
    x[:, ks, ls] = off
    x[:, ls, ks] = off
    return x


def _ref_congruence(q, g):
    return np.einsum("pab,pbc,pdc->pad", q, g, q)


def _ref_lift(q, d):
    return np.einsum("pab,pb,pcb->pac", q, d, q)


def _ref_takagi_batch(a):
    """Takagi factorization one matrix at a time from LAPACK's SVD
    a = U diag(s) V^H, signs canonical, mu ascending.  A complex symmetric a
    with distinct nonzero singular values has conj(V) = U D, D diagonal and
    unitary, so a = (U D^1/2) diag(s) (U D^1/2)^T."""
    q, mu = np.empty_like(a), np.empty(a.shape[:-1])
    for i, m in enumerate(a):
        u, s, vh = np.linalg.svd(m)
        d = np.einsum("rj,jr->j", u.conj(), vh)
        q[i], mu[i] = (u * np.sqrt(d))[:, ::-1], s[::-1]
    return _canonical_column_signs(q), mu


def _ref_refactor(m):
    qq, mu = _ref_takagi_batch(m)
    return qq, mu[:, -1] < 1.0 - 1e-12, 2.0 * np.arctanh(np.clip(mu, 0.0, 1.0 - 1e-13))


def _ref_ito_attempt(kernel, state, idx, h, xi):
    """MatrixKernel.attempt at finite beta, frame-free and one path at a
    time: R' = R + sqrt(h) Q G Q^T + h (1/4 - 1/(2 beta)) (R - R conj(R) R),
    factorized exactly."""
    beta = kernel.beta
    r_new = np.empty_like(state["r"][idx])
    for p, (r, q, sig, x) in enumerate(zip(state["r"][idx], state["q"][idx], state["sigma"][idx], xi)):
        g = _ref_noise_matrix(sig[None], x[None], beta)[0]
        r_new[p] = r + np.sqrt(h) * q @ g @ q.T + h * (0.25 - 0.5 / beta) * (r - r @ r.conj() @ r)
    q_new, dom_new, sig_new = _ref_refactor(r_new)
    status = np.full(len(idx), ens.OK, dtype=np.int64)
    status[~in_chamber(sig_new, kernel.floor)] = ens.REJECT_CHAMBER
    status[~dom_new] = ens.REJECT_DOMAIN
    return status, r_new, q_new, sig_new


def _ref_mean_curvature_attempt(kernel, state, idx, h, xi):
    """MatrixKernel.attempt at beta = inf: sigma' = sigma + h normal_drift,
    the geometry module's route to (1/2) grad S, and R' = Q' diag(tanh(sigma'/2))
    Q'^T with Q' the frame of the frame-free Ito-Euler step, whose drift
    coefficient 1/4 - 1/(2 beta) is 1/4."""
    q_new = _ref_ito_attempt(kernel, state, idx, h, xi)[2]
    sig_new = np.array([sig + h * normal_drift(sig) for sig in state["sigma"][idx]])
    r_new = np.einsum("pab,pb,pcb->pac", q_new, np.tanh(0.5 * sig_new), q_new)
    status = np.full(len(idx), ens.OK, dtype=np.int64)
    status[~in_chamber(sig_new, kernel.floor)] = ens.REJECT_CHAMBER
    status[~(np.tanh(0.5 * sig_new[:, -1]) < 1.0 - 1e-12)] = ens.REJECT_DOMAIN
    return status, r_new, q_new, sig_new


def _unitary(rng, c, n):
    z = rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n))
    return np.linalg.qr(z)[0]


def _sigma(rng, c, n):
    return np.cumsum(rng.uniform(0.2, 0.8, (c, n)), axis=-1)


def _close(actual, desired):
    # rtol 1e-12 entrywise, with an absolute floor at the stack's scale for
    # entries that cancel to near zero
    np.testing.assert_allclose(actual, desired, rtol=1e-12, atol=1e-12 * np.max(np.abs(desired)))


@pytest.mark.parametrize("n", _NS)
def test_congruence_matches_three_operand_einsum(n):
    rng = np.random.default_rng(600 + n)
    q = rng.standard_normal((_C, n, n)) + 1j * rng.standard_normal((_C, n, n))
    g = rng.standard_normal((_C, n, n)) + 1j * rng.standard_normal((_C, n, n))
    g = g + np.swapaxes(g, -1, -2)
    _close(_pf(_congruence(_pl(q), _pl(g))), _ref_congruence(q, g))


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("beta", [1.0, 2.0, np.inf])
def test_noise_increment_is_scaled_frame_congruence(n, beta):
    # Q G Q^T with G assembled per sigma equals (Q S) X (Q S)^T with the
    # sigma-free X built once
    rng = np.random.default_rng(610 + n)
    q, sig = _unitary(rng, _C, n), _sigma(rng, _C, n)
    xi = rng.standard_normal((_C, n * n + n))
    qs = q / np.sqrt(1.0 + np.cosh(sig))[:, None, :]
    _close(_pf(_congruence(_pl(qs), _noise_matrix(xi, n, beta))),
           _ref_congruence(q, _ref_noise_matrix(sig, xi, beta)))


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("beta", [1.0, 2.0, np.inf])
def test_noise_matrix_take_matches_fancy_index_assembly(n, beta):
    rng = np.random.default_rng(615 + n)
    xi = rng.standard_normal((_C, n * n + n))
    np.testing.assert_array_equal(_pf(_noise_matrix(xi, n, beta)), _ref_noise_x(xi, n, beta))
    index = _noise_index(n)
    assert index is _noise_index(n) and not index.flags.writeable
    with pytest.raises(ValueError):
        index[0, 0] = 0


@pytest.mark.parametrize("n", _NS)
def test_drift_lift_matches_three_operand_einsum(n):
    # the reference step lifts the drift d = grad S / (2 (1 + cosh sigma))
    # with Q diag(d) Q^T; the factored step adds d to the diagonal of its
    # in-frame point, whose frame is lifted by the same congruence
    rng = np.random.default_rng(620 + n)
    q, sig = _unitary(rng, _C, n), _sigma(rng, _C, n)
    d = 0.5 * _gradient_raw(sig) / (1.0 + np.cosh(sig))
    _close(_pf(_congruence(_pl(q), _pl(d[:, :, None] * np.eye(n)))), _ref_lift(q, d))


@pytest.mark.parametrize("n", _NS)
def test_takagi_phase_diagonal_matches_three_operand_einsum(n):
    # the path-last factorization against the per-matrix SVD oracle
    rng = np.random.default_rng(630 + n)
    a = rng.standard_normal((_C, n, n)) + 1j * rng.standard_normal((_C, n, n))
    a = a + np.swapaxes(a, -1, -2)
    q, mu = map(_pf, _takagi_batch(_pl(a)))
    q_ref, mu_ref = _ref_takagi_batch(a)
    _close(mu, mu_ref)
    _close(_canonical_column_signs(q), q_ref)


def _single_steps(singles, xi, beta):
    """step_matrix_flow on each single state with its row of draws; a state
    whose step is rejected stays as it is."""
    out = []
    for st, x in zip(singles, xi):
        try:
            st = step_matrix_flow(st, beta, 1e-3, x)
        except (ChamberExit, DomainExit):
            pass
        out.append(st)
    return out


def _reference_state(singles):
    return {key: np.array([getattr(st, attr) for st in singles])
            for key, attr in (("r", "r"), ("q", "q_cache"), ("sigma", "sigma_cache"))}


def _check_against_reference(n, beta, ref_attempt, seed):
    # the kernel holds sigma alone; the reference moves the disk point R
    # itself, from the frame and sigma of single-state steps taken alongside
    # on the same draws.  The single-state step leaves the frame's column
    # signs as the factorization gives them; the reference fixes them, so q
    # is compared with signs canonical
    rng = np.random.default_rng(seed)
    sigma0 = np.linspace(0.5, 0.5 * n, n)
    kernel = MatrixKernel(sigma0, beta, 1e-6)
    state = kernel.init(_C)
    singles = [init_matrix_state(sigma0)] * _C
    idx = np.arange(_C)
    for _ in range(3):
        xi = rng.standard_normal((_C, n * n + n))
        before = _reference_state(singles)
        np.testing.assert_array_equal(before["sigma"], _pf(state))
        status, r_ref, q_ref, sig_ref = ref_attempt(kernel, before, idx, 1e-3, xi)
        np.testing.assert_array_equal(kernel.attempt(state, idx, 1e-3, xi, np.ones(_C)), status)
        assert np.all(status == ens.OK)
        singles = _single_steps(singles, xi, beta)
        after = _reference_state(singles)
        np.testing.assert_allclose(_pf(state), sig_ref, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(after["sigma"], _pf(state))
        _close(after["r"], r_ref)
        _close(_canonical_column_signs(after["q"]), q_ref)


@pytest.mark.parametrize("n", _NS)
def test_kernel_step_matches_three_operand_formulation(n):
    # beta = inf: sigma takes the mean-curvature step, R the Ito-Euler frame
    _check_against_reference(n, np.inf, _ref_mean_curvature_attempt, 640 + n)


@pytest.mark.parametrize("n", _NS)
@pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
def test_kernel_step_matches_frame_free_ito_step(n, beta):
    # finite beta: the in-frame step against R' built from R itself, whose
    # drift is the polynomial R - R conj(R) R rather than diag(mu S^2)
    _check_against_reference(n, beta, _ref_ito_attempt, 740 + n)
