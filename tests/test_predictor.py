"""The matrix step's first-order Takagi predictor against the exact
factorization it replaces.  _predict returns the in-frame rotation u of the
moved point's frame q u; the exact path is _refactor of r + q e q^T with its
column signs aligned to the base frame (_align_signs), written as
u = q^H (aligned exact frame).  The stacks here hold one path per leading
index; the step's functions take and return the path-last views (_pl, _pf)."""
import numpy as np
import pytest

from siegelbm.linalg import _matmul
from siegelbm.matrix_flow import (
    _FIRST_ORDER_MAX,
    _align_signs,
    _congruence,
    _noise_matrix,
    _predict,
    _refactor,
)

_NS = range(1, 9)
_C = 32  # stack depth
_EPS = 2e-5  # small enough that no row of the stacks below falls back


def _pl(a):
    return np.moveaxis(a, 0, -1)


def _pf(a):
    return np.moveaxis(a, -1, 0)


def _predict_stack(q, sig, e, r):
    """_predict on path-first stacks: u, disk-edge flag and sigma."""
    u, dom, sig_star = _predict(_pl(q), sig.T, _pl(e), _pl(r))
    return _pf(u), dom, sig_star.T


def _chamber_stack(rng, c, n):
    z = rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n))
    q = np.linalg.qr(z)[0]
    sig = np.cumsum(rng.uniform(0.3, 0.6, (c, n)), axis=-1)
    mu = np.tanh(0.5 * sig)
    return (q * mu[:, None, :]) @ np.swapaxes(q, -1, -2), q, sig


def _symmetric(rng, c, n):
    d = rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n))
    return d + np.swapaxes(d, -1, -2)


def _in_frame(q, dr):
    return np.swapaxes(q.conj(), -1, -2) @ dr @ q.conj()


def _predict_move(r, q, sig, dr):
    """The moved point's frame q u, disk-edge flag and sigma."""
    u, dom, sig_star = _predict_stack(q, sig, _in_frame(q, dr), r)
    return q @ u, dom, sig_star


def _exact(r, q, dr):
    """The exact path's u, disk-edge flag and sigma, from the moved point
    formed as _predict forms it."""
    ql = _pl(q)
    q_ex, dom, sig = _refactor(_pl(r) + _congruence(ql, _pl(_in_frame(q, dr))))
    return _pf(_matmul(ql.conj().swapaxes(0, 1), _align_signs(q_ex, ql))), dom, sig.T


def _noise_increment(q, sig, x):
    return _pf(_congruence(_pl(q / np.sqrt(1.0 + np.cosh(sig))[:, None, :]), x))


def _errors(n, eps, seed):
    rng = np.random.default_rng(seed)
    r, q, sig = _chamber_stack(rng, _C, n)
    dr = eps * _symmetric(rng, _C, n)
    x = _noise_matrix(rng.standard_normal((_C, n * n + n)), n, 2.0)
    q_star, dom, sig_star = _predict_move(r, q, sig, dr)
    u_ex, dom_ex, sig_ex = _exact(r, q, dr)
    np.testing.assert_array_equal(dom, dom_ex)
    unit = np.swapaxes(q_star.conj(), -1, -2) @ q_star - np.eye(n)
    return (
        np.linalg.norm(sig_star - sig_ex),
        np.linalg.norm(_noise_increment(q_star, sig_star, x) - _noise_increment(q @ u_ex, sig_ex, x)),
        np.linalg.norm(unit),
    )


@pytest.mark.parametrize("n", _NS)
def test_predictor_error_is_second_order(n):
    # sigma*, the corrector's noise congruence Q* S* X S* Q*^T and the
    # frame's distance from unitary all shrink as eps^2
    coarse = _errors(n, _EPS, 700 + n)
    fine = _errors(n, 0.5 * _EPS, 700 + n)
    for name, a, b in zip(("sigma", "congruence", "unitarity"), coarse, fine):
        if n == 1 and name == "unitarity":
            assert a < 1e-14 and b < 1e-14  # a pure phase
            continue
        assert 3.0 <= a / b <= 5.0, (name, a, b)
        assert 1e-13 < a < 1e-3


def test_predictor_frame_is_on_base_sign_sheet():
    rng = np.random.default_rng(720)
    r, q, sig = _chamber_stack(rng, _C, 5)
    q_star = _predict_move(r, q, sig, _EPS * _symmetric(rng, _C, 5))[0]
    dots = np.einsum("paj,paj->pj", q.conj(), q_star)
    assert np.all(dots.real > 0.99)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_rows_past_threshold_take_the_exact_path(n):
    rng = np.random.default_rng(730 + n)
    r, q, sig = _chamber_stack(rng, _C, n)
    # near-collisions in every third row: the top two mu nearly coincide,
    # so the off-diagonal rotation there is large
    far = np.arange(0, _C, 3)
    sig[far, -1] = sig[far, -2] + 1e-4
    mu = np.tanh(0.5 * sig)
    r = (q * mu[:, None, :]) @ np.swapaxes(q, -1, -2)
    dr = 1e-3 * _symmetric(rng, _C, n)

    e = _in_frame(q, dr)
    k_top = abs(e[:, -2, -1].real) / (mu[:, -1] - mu[:, -2])
    assert np.all(k_top[far] >= _FIRST_ORDER_MAX)

    u, dom, sig_star = _predict_stack(q, sig, e, r)
    u_ex, dom_ex, sig_ex = _exact(r[far], q[far], dr[far])
    np.testing.assert_array_equal(u[far], u_ex)
    np.testing.assert_array_equal(sig_star[far], sig_ex)
    np.testing.assert_array_equal(dom[far], dom_ex)
    # the other rows took first order, which differs from the exact path
    near = np.setdiff1d(np.arange(_C), far)
    assert not np.any(np.all(sig_star[near] == _exact(r[near], q[near], dr[near])[2], axis=-1))


def test_equal_mu_falls_back_without_dividing_by_zero():
    # at sigma ~ 27 a gap of 1e-7 leaves the two tanh(sigma/2) equal in
    # floating point; the row must fall back rather than divide by zero
    sig = np.array([[1.0, 27.0, 27.0 + 1e-7]])
    mu = np.tanh(0.5 * sig)
    assert mu[0, 1] == mu[0, 2]
    q = np.eye(3, dtype=complex)[None]
    r = (q * mu[:, None, :]) @ np.swapaxes(q, -1, -2)
    dr = 1e-16 * _symmetric(np.random.default_rng(740), 1, 3)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        u, dom, sig_star = _predict_stack(q, sig, _in_frame(q, dr), r)
    u_ex, dom_ex, sig_ex = _exact(r, q, dr)
    np.testing.assert_array_equal(u, u_ex)
    np.testing.assert_array_equal(sig_star, sig_ex)
