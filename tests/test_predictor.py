"""The matrix step's first-order Takagi predictor against the exact
factorization it replaces.  _predict(sig, e) returns the rotation u that
carries diag(mu), mu = tanh(sig/2), to the frame of the moved point
diag(mu) + e; the exact path is takagi_decompose of the moved point with
each column's sign set so that Re u_jj >= 0.  The stacks here hold one path
per leading index; _predict takes and returns the path-last views (_pl, _pf)."""
import numpy as np
import pytest

from siegelbm import takagi_decompose
from siegelbm.matrix_flow import _FIRST_ORDER_MAX, _chart, _congruence, _noise_matrix, _predict

_NS = range(1, 9)
_C = 32  # stack depth
_EPS = 2e-5  # small enough that no row of the stacks below falls back


def _pl(a):
    return np.moveaxis(a, 0, -1)


def _pf(a):
    return np.moveaxis(a, -1, 0)


def _predict_stack(sig, e):
    """_predict on path-first stacks: u, disk-edge flag and sigma."""
    u, dom, sig_star = _predict(sig.T, _pl(e))
    return _pf(u), dom, sig_star.T


def _chamber_sigma(rng, c, n):
    return np.cumsum(rng.uniform(0.3, 0.6, (c, n)), axis=-1)


def _symmetric(rng, c, n):
    d = rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n))
    return d + np.swapaxes(d, -1, -2)


def _exact(sig, e):
    """u, disk-edge flag and sigma from takagi_decompose of each moved point
    diag(mu) + e, each column's sign set so that Re u_jj >= 0."""
    mu = np.tanh(0.5 * sig)
    u, mu_ex = np.empty_like(e), np.empty_like(sig)
    for p in range(sig.shape[0]):
        f = takagi_decompose(np.diag(mu[p]) + e[p])
        u[p] = f.q * np.where(f.q.diagonal().real < 0, -1.0, 1.0)
        mu_ex[p] = f.mu
    dom, sig_ex = _chart(mu_ex.T)
    return u, dom, sig_ex.T


def _same(actual, desired):
    # the fallback factorizes a stack, takagi_decompose one matrix; at n = 2
    # numpy's vector and scalar loops for the closed form can part in the
    # last bit
    np.testing.assert_allclose(actual, desired, rtol=1e-14, atol=1e-15)


def _noise_increment(u, sig, x):
    return _pf(_congruence(_pl(u / np.sqrt(1.0 + np.cosh(sig))[:, None, :]), x))


def _errors(n, eps, seed):
    rng = np.random.default_rng(seed)
    sig = _chamber_sigma(rng, _C, n)
    e = eps * _symmetric(rng, _C, n)
    x = _noise_matrix(rng.standard_normal((_C, n * n + n)), n, 2.0)
    u, dom, sig_star = _predict_stack(sig, e)
    u_ex, dom_ex, sig_ex = _exact(sig, e)
    np.testing.assert_array_equal(dom, dom_ex)
    unit = np.swapaxes(u.conj(), -1, -2) @ u - np.eye(n)
    return (
        np.linalg.norm(sig_star - sig_ex),
        np.linalg.norm(_noise_increment(u, sig_star, x) - _noise_increment(u_ex, sig_ex, x)),
        np.linalg.norm(unit),
    )


@pytest.mark.parametrize("n", _NS)
def test_predictor_error_is_second_order(n):
    # sigma*, the corrector's noise congruence u S* X S* u^T and the
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
    u = _predict_stack(_chamber_sigma(rng, _C, 5), _EPS * _symmetric(rng, _C, 5))[0]
    assert np.all(u.diagonal(axis1=-2, axis2=-1).real > 0.99)


@pytest.mark.parametrize("n", [2, 3, 8])
def test_rows_past_threshold_take_the_exact_path(n):
    rng = np.random.default_rng(730 + n)
    sig = _chamber_sigma(rng, _C, n)
    # near-collisions in every third row: the top two mu nearly coincide,
    # so the off-diagonal rotation there is large
    far = np.arange(0, _C, 3)
    sig[far, -1] = sig[far, -2] + 1e-4
    mu = np.tanh(0.5 * sig)
    e = 1e-3 * _symmetric(rng, _C, n)
    k_top = abs(e[:, -2, -1].real) / (mu[:, -1] - mu[:, -2])
    assert np.all(k_top[far] >= _FIRST_ORDER_MAX)

    u, dom, sig_star = _predict_stack(sig, e)
    u_ex, dom_ex, sig_ex = _exact(sig[far], e[far])
    _same(u[far], u_ex)
    _same(sig_star[far], sig_ex)
    np.testing.assert_array_equal(dom[far], dom_ex)
    # the exact frames keep the predictor's sign rule
    assert np.all(u[far].diagonal(axis1=-2, axis2=-1).real >= 0)
    # the other rows took first order, which differs from the exact path
    near = np.setdiff1d(np.arange(_C), far)
    assert not np.any(np.all(sig_star[near] == _exact(sig[near], e[near])[2], axis=-1))


def test_equal_mu_falls_back_without_dividing_by_zero():
    # at sigma ~ 27 a gap of 1e-7 leaves the two tanh(sigma/2) equal in
    # floating point; the row must fall back rather than divide by zero
    sig = np.array([[1.0, 27.0, 27.0 + 1e-7]])
    mu = np.tanh(0.5 * sig)
    assert mu[0, 1] == mu[0, 2]
    e = 1e-16 * _symmetric(np.random.default_rng(740), 1, 3)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        u, dom, sig_star = _predict_stack(sig, e)
    u_ex, dom_ex, sig_ex = _exact(sig, e)
    _same(u, u_ex)
    _same(sig_star, sig_ex)
