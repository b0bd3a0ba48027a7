"""The half-root entropy layer against two oracles.

The cosh-difference functions below are the formulas the half-root table
replaced, kept as an independent oracle.  Where two coordinates (or the
first coordinate and the origin) come within 1e-3 of each other, the oracle
itself loses digits to cancellation in cosh(sigma_k) - cosh(sigma_l), and
past sigma ~ 355 its sinh^2 overflows; there the reference is the root form
summed one root at a time in np.longdouble.  Both oracles are held to a
relative 1e-10, down to the smallest normal double."""
import importlib
import warnings

import numpy as np
import pytest

from siegelbm import DegenerateSpectrum, OutOfChamber, dyson_drift, normal_drift
from siegelbm.entropy import (
    _dyson_raw,
    _entropy_raw,
    _gradient_raw,
    entropy,
    entropy_gradient,
    entropy_laplacian,
)

# the package root exports a function named entropy, which shadows the module
entropy_mod = importlib.import_module("siegelbm.entropy")

_RTOL = 1e-10


def _offdiag_mask(n: int) -> np.ndarray:
    return ~np.eye(n, dtype=bool)


def reference_entropy_raw(sigma: np.ndarray) -> np.ndarray:
    """S(sigma) without error checking; -inf on collisions, nan off-domain."""
    n = sigma.shape[-1]
    c = np.cosh(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.sum(np.log(np.sinh(sigma)), axis=-1)
        if n > 1:
            diff = np.abs(c[..., :, None] - c[..., None, :])
            logd = np.where(_offdiag_mask(n), np.log(np.where(diff > 0, diff, 1.0)), 0.0)
            logd = np.where(_offdiag_mask(n) & (diff == 0), -np.inf, logd)
            val = val + 0.5 * np.sum(logd, axis=(-2, -1))
    return val


def reference_gradient_raw(sigma: np.ndarray) -> np.ndarray:
    """grad S without error checking; nan entries on collisions."""
    n = sigma.shape[-1]
    c, s = np.cosh(sigma), np.sinh(sigma)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = 1.0 / np.tanh(sigma)
        if n > 1:
            diff = c[..., :, None] - c[..., None, :]
            inv = np.where(_offdiag_mask(n), 1.0 / np.where(diff != 0, diff, np.inf), 0.0)
            bad = _offdiag_mask(n) & (diff == 0)
            inv = np.where(bad, np.nan, inv)
            g = g + s * np.sum(inv, axis=-1)
    return g


def reference_entropy_laplacian(sigma: np.ndarray) -> np.ndarray:
    """Sum of the unmixed second derivatives of S (the flat Laplacian):

        sum_k [ -1/sinh^2(sigma_k)
                + sum_{l != k} ( cosh(sigma_k) / d_kl - sinh^2(sigma_k) / d_kl^2 ) ]

    with d_kl = cosh(sigma_k) - cosh(sigma_l); nonfinite on collisions.
    """
    n = sigma.shape[-1]
    c, s = np.cosh(sigma), np.sinh(sigma)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        val = np.sum(-1.0 / s**2, axis=-1)
        if n > 1:
            diff = c[..., :, None] - c[..., None, :]
            safe = np.where(diff != 0, diff, np.inf)
            term = c[..., :, None] / safe - (s**2)[..., :, None] / safe**2
            term = np.where(_offdiag_mask(n), term, 0.0)
            term = np.where(_offdiag_mask(n) & (diff == 0), np.nan, term)
            val = val + np.sum(term, axis=(-2, -1))
    return val


def reference_dyson_raw(lam: np.ndarray) -> np.ndarray:
    """Dyson drift without error checking; coincident pairs contribute zero."""
    n = lam.shape[-1]
    diff = lam[..., :, None] - lam[..., None, :]
    mask = ~np.eye(n, dtype=bool)
    inv = np.where(mask, 1.0 / np.where(diff != 0, diff, np.inf), 0.0)
    return np.sum(inv, axis=-1)


def longdouble_root_form(sigma: np.ndarray):
    """S, grad S and Delta S at ascending chamber points (..., n), summed
    over the positive roots 2 e_k, e_l - e_k and e_k + e_l one root at a
    time in np.longdouble."""
    x = np.asarray(sigma, dtype=np.longdouble)
    n = x.shape[-1]
    roots = []
    for k in range(n):
        roots.append(2 * np.eye(n)[k])
        for l in range(k + 1, n):
            roots.append(np.eye(n)[l] - np.eye(n)[k])
            roots.append(np.eye(n)[l] + np.eye(n)[k])
    s = np.full(x.shape[:-1], n * (n - 1) / 2 * np.log(np.longdouble(2.0)))
    grad = np.zeros_like(x)
    lap = np.zeros(x.shape[:-1], dtype=np.longdouble)
    for alpha in roots:
        w = np.asarray(alpha, dtype=np.longdouble) / 2
        t = x @ w
        s += np.log(np.sinh(t))
        grad += w / np.tanh(t)[..., None]
        lap -= (w @ w) / (np.sinh(t) * np.sinh(t))
    return s, grad, lap


def _warning_free(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def _chamber(rng, n, count, top, low=-12.0):
    """Ascending points in (0, top]: log-uniform gaps from 10**low up,
    placed anywhere from the origin to the top."""
    gaps = 10.0 ** rng.uniform(low, 0.5, size=(count, n))
    sig = np.cumsum(gaps, axis=1)
    lead = rng.uniform(0.0, 1.0, size=(count, 1)) * (top - sig[:, -1:])
    return sig + np.maximum(lead, 1e-3)


def _expected(sig):
    """(new, expected, oracle-used mask) for S, grad S and Delta S at stacked
    ascending points: the cosh-difference oracle where every gap, sigma_1
    included, is at least 1e-3 and its sinh^2 does not overflow, the
    longdouble root form elsewhere."""
    wide = (np.diff(sig, axis=-1, prepend=0.0).min(axis=-1) >= 1e-3) & (sig[:, -1] < 355.0)
    ld = longdouble_root_form(sig)
    out = []
    for new, oracle, root in zip(
        (_entropy_raw(sig), _gradient_raw(sig), entropy_laplacian(sig)),
        (reference_entropy_raw(sig), reference_gradient_raw(sig), reference_entropy_laplacian(sig)),
        ld,
    ):
        use = np.isfinite(oracle) & (wide if oracle.ndim == 1 else wide[:, None])
        out.append((new, np.where(use, oracle, root.astype(float)), use))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_finite_outputs_match_the_mask_formulas(n):
    rng = np.random.default_rng(100 + n)
    sig = np.concatenate(
        [_chamber(rng, n, 100, top, low) for top in (3.0, 30.0, 350.0, 700.0) for low in (-12.0, -3.0)]
    )
    assert np.all(np.diff(sig, axis=-1) > 0) and np.all(sig > 0)
    assert sig.max() > 600.0 and (n == 1 or np.diff(sig, axis=-1).min() < 1e-11)
    for new, expected, use in _expected(sig):
        assert np.isfinite(new).all()
        # values below the normal range keep only the bits their exponent leaves
        np.testing.assert_allclose(new, expected, rtol=_RTOL, atol=np.finfo(float).tiny)
        # the oracle takes part, and from n = 2 on so does the root form
        assert use.any() and (n == 1 or not use.all())
    np.testing.assert_allclose(
        _dyson_raw(np.cosh(sig[:200])), reference_dyson_raw(np.cosh(sig[:200])), rtol=_RTOL
    )


@pytest.fixture
def unvalidated(monkeypatch):
    """entropy_laplacian returns its raw values, nonfinite ones included."""
    monkeypatch.setattr(entropy_mod, "_validate", lambda sigma, value: None)


# nonfinite exactly where two sigma coincide: the whole row of S and Delta S,
# and the two coinciding entries of grad S, with every other entry finite
@pytest.mark.parametrize("n", range(2, 9))
def test_collisions_are_nonfinite_in_the_same_places(n, unvalidated):
    rng = np.random.default_rng(200 + n)
    sig = _chamber(rng, n, 50, 10.0)
    k = rng.integers(0, n - 1, size=50)
    rows = np.arange(50)
    sig[rows, k + 1] = sig[rows, k]  # one exact collision per row
    for f in (_entropy_raw, entropy_laplacian):
        assert not np.isfinite(_warning_free(f, sig)).any()
    hit = np.zeros(sig.shape, dtype=bool)
    hit[rows, k] = hit[rows, k + 1] = True
    np.testing.assert_array_equal(~np.isfinite(_warning_free(_gradient_raw, sig)), hit)


def test_dyson_collisions_are_nonfinite_and_refused():
    lam = np.array([[0.5, 0.5, 2.0], [-1.0, 0.0, 3.0]])
    d = _dyson_raw(lam)
    np.testing.assert_array_equal(np.isfinite(d), [[False, False, True], [True, True, True]])
    np.testing.assert_array_equal(d[1], reference_dyson_raw(lam[1]))
    with pytest.raises(OutOfChamber):
        dyson_drift(lam)


@pytest.mark.parametrize("n", [1, 3])
def test_dyson_drift_matches_the_mask_formula(n):
    lam = np.random.default_rng(300 + n).standard_normal((40, n)).cumsum(axis=-1)
    np.testing.assert_array_equal(dyson_drift(lam), reference_dyson_raw(lam))


@pytest.mark.parametrize("sigma", [400.0, 700.0, 800.0])
def test_single_coordinate_stays_finite_where_sinh_overflows(sigma):
    s, grad, lap = longdouble_root_form(np.array([sigma]))
    np.testing.assert_allclose(_warning_free(entropy, [sigma]), float(s), rtol=_RTOL)
    np.testing.assert_array_equal(_warning_free(entropy_gradient, [sigma]), [1.0])
    assert _warning_free(entropy_laplacian, [sigma]) == float(lap)


def test_two_coordinates_stay_finite_at_large_sigma():
    for sigma in [(800.0, 801.0), (1.0, 800.0), (1.0, 400.0), (1000.0, 1500.0, 3000.0), (0.5, 1.0, 999.0)]:
        sig = np.array(sigma)
        s, grad, lap = longdouble_root_form(sig)
        np.testing.assert_allclose(_warning_free(entropy, sig), float(s), rtol=_RTOL)
        g = _warning_free(entropy_gradient, sig)
        np.testing.assert_allclose(g, grad.astype(float), rtol=_RTOL)
        np.testing.assert_allclose(g, 2.0 * normal_drift(sig), rtol=1e-12)
        np.testing.assert_allclose(_warning_free(entropy_laplacian, sig), float(lap), rtol=_RTOL)
        n = sig.size
        assert abs(entropy_laplacian(sig) + g @ g - n * (n + 1) * (2 * n + 1) / 6) < 1e-10
    np.testing.assert_allclose(entropy_gradient([800.0, 801.0]), [0.41802329, 2.58197671], atol=5e-9)
    # every root is saturated: each coth is +-1 and each 1/sinh^2 underflows
    g = entropy_gradient([1000.0, 1500.0, 3000.0])
    np.testing.assert_array_equal(g, [1.0, 2.0, 3.0])
    assert entropy_laplacian([1000.0, 1500.0, 3000.0]) + g @ g == 14.0


def test_only_collisions_are_refused():
    for f in (entropy, entropy_gradient, entropy_laplacian):
        with pytest.raises(DegenerateSpectrum, match="coincident sigma entries"):
            f([1.0, 1.0])
        with pytest.raises(DegenerateSpectrum, match="coincident sigma entries"):
            f([900.0, 2.0, 900.0])
        with pytest.raises(OutOfChamber):
            f([0.0, 1.0])
        assert np.all(np.isfinite(_warning_free(f, [1.0, 800.0, 1e3 + 1e-9])))


def _layouts(f, sig):
    """f of stacked rows sig (c, n), called as the matrix kernel calls it
    (rows) and as the particle kernels do (the (c, n) view of an (n, c)
    array)."""
    return f(sig), f(np.ascontiguousarray(sig.T).T)


# the value of each path does not depend on how many paths share the call,
# or on the layout they are held in
@pytest.mark.parametrize("n", range(1, 9))
def test_one_path_equals_its_row_of_a_batch(n):
    rng = np.random.default_rng(400 + n)
    sig = np.concatenate([_chamber(rng, n, 512, top) for top in (3.0, 30.0)])
    for f in (_gradient_raw, _entropy_raw, entropy_laplacian, _dyson_raw):
        batch = _layouts(f, sig)
        assert batch[0].tobytes() == batch[1].tobytes()
        for p in (0, 1, 511, 1023):
            for one in (*_layouts(f, sig[p : p + 1]), f(sig[p])):
                assert np.asarray(one).reshape(-1).tobytes() == np.asarray(batch[0][p]).reshape(-1).tobytes()


def _sign_table_half_roots(x):
    """The half-root table built from an (n, n) sign table, as it was before
    the row-by-row fill: signs * x_i / 2 + x_j / 2."""
    n = x.shape[0]
    i = np.arange(n)
    sign = np.where(i[:, None] <= i, 1.0, -1.0).reshape((n, n) + (1,) * (x.ndim - 1))
    h = np.multiply(0.5, x, order="C")
    t = sign.swapaxes(0, 1) * h[:, None]
    t += h
    return t


def _sign_table_pair_scatter(table):
    """The pair scatter through a second (n, n, ...) table of signed terms,
    summed over its leading axis one term after another."""
    n = table.shape[0]
    i = np.arange(n)
    sign = np.where(i[:, None] <= i, 1.0, -1.0).reshape((n, n) + (1,) * (table.ndim - 2))
    terms = sign * table.swapaxes(0, 1)
    terms += table
    acc = terms[0]
    for k in range(1, n):
        acc = acc + terms[k]
    return acc


def _path_last_stack(rng, n):
    """(c, n) view of a path-last (n, c) array: wide and near-colliding
    chamber points, sigma up to 700, and rows with an exact collision."""
    sig = np.concatenate([_chamber(rng, n, 64, top, low) for top in (3.0, 700.0) for low in (-12.0, -3.0)])
    if n > 1:
        k = rng.integers(0, n - 1, size=32)
        sig[np.arange(32), k + 1] = sig[np.arange(32), k]
    return np.ascontiguousarray(sig.T).T


# the row-by-row table and scatter give the bits of the sign-table ones they
# replaced, nonfinite entries included
@pytest.mark.parametrize("n", range(1, 9))
def test_row_fill_matches_the_sign_table_bit_for_bit(n, unvalidated, monkeypatch):
    sig = _path_last_stack(np.random.default_rng(600 + n), n)
    lam = np.cosh(sig)

    def outputs():
        with np.errstate(divide="ignore", invalid="ignore"):
            return [_entropy_raw(sig), _gradient_raw(sig), entropy_laplacian(sig), _dyson_raw(lam)]

    new = outputs()
    monkeypatch.setattr(entropy_mod, "_half_roots", _sign_table_half_roots)
    monkeypatch.setattr(entropy_mod, "_pair_scatter", _sign_table_pair_scatter)
    for a, b in zip(new, outputs()):
        assert a.shape == b.shape
        np.testing.assert_array_equal(np.isfinite(a), np.isfinite(b))
        assert np.array_equal(a, b, equal_nan=True)
    assert n == 1 or not np.isfinite(new[1]).all()
