"""Tests for the half-space/disk geometry layer."""
import warnings

import numpy as np
import pytest

from siegelbm import (
    DegenerateSpectrum,
    DiskPoint,
    NotSymmetric,
    OutOfChamber,
    SiegelPoint,
    SingularShift,
    SpectralCoord,
    cayley_to_disk,
    cayley_to_half,
    cross_ratio,
    disk_metric,
    disk_point,
    entropy_gradient,
    frame_at,
    frame_gram,
    hermitian_eigenvalues,
    lambda_to_sigma,
    normal_drift,
    sigma_to_lambda,
    spectral_coordinates,
    takagi_of_disk,
    unitary_exp,
)
from siegelbm.geometry import in_chamber


def _random_half_point(rng, n):
    x = rng.standard_normal((n, n))
    x = x + x.T
    g = rng.standard_normal((n, n))
    y = g @ g.T + n * np.eye(n)  # comfortably positive definite
    return SiegelPoint(z=x + 1j * y)


def _random_disk_point(rng, n, radius=0.6):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    s = g + g.T
    return DiskPoint(r=radius * s / max(1.0, 2 * np.linalg.norm(s, 2)))


def test_point_validation():
    with pytest.raises(OutOfChamber):
        SiegelPoint(z=np.array([[1.0 - 1j]]))
    with pytest.raises(OutOfChamber):
        DiskPoint(r=np.array([[1.0 + 0j]]))
    with pytest.raises(OutOfChamber):
        SpectralCoord(sigma=np.array([2.0, 1.0]))
    with pytest.raises(OutOfChamber):
        SpectralCoord(sigma=np.array([0.0, 1.0]))


def _explicit_in_chamber(sigma, floor, positive):
    """(every gap > floor) & (first > floor, if positive) & all finite."""
    with np.errstate(invalid="ignore"):
        ok = np.all(np.diff(sigma, axis=-1) > floor, axis=-1)
    ok &= np.all(np.isfinite(sigma), axis=-1)
    return ok & (sigma[..., 0] > floor) if positive else ok


@pytest.mark.parametrize("positive", [True, False])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_in_chamber_matches_the_explicit_formula(n, positive):
    rng = np.random.default_rng(40 + n)
    floor = 0.25
    # ascending rows whose gaps and first entry sit near the floor, many exactly on it
    steps = rng.choice([0.2, 0.25, 0.3, 1.0], size=(400, n), p=[0.05, 0.1, 0.1, 0.75])
    sig = np.cumsum(steps, axis=1) - rng.choice([0.0, 1.0], size=(400, 1), p=[0.8, 0.2])
    rows = np.arange(400)
    # one nonfinite entry in a fifth of the rows: NaN anywhere, +-inf at either end
    bad = rng.choice(rows, 80, replace=False)
    for r, kind in zip(bad, rng.integers(0, 5, size=80)):
        if kind == 0:
            sig[r, rng.integers(n)] = np.nan
        else:
            sig[r, 0 if kind < 3 else -1] = np.inf if kind % 2 else -np.inf
    expected = _explicit_in_chamber(sig, floor, positive)
    lead = np.ascontiguousarray(sig.T)  # the path-last (n, c) layout of a kernel's state
    for layout in (sig, lead.T):
        got = in_chamber(layout, floor, positive)
        assert got.dtype == bool and np.array_equal(got, expected)
    # both answers, and a refusal that only finiteness gives
    assert expected.any() and not expected.all()
    ends_pass = np.all(np.diff(sig, axis=-1) > floor, axis=-1)
    if positive:
        ends_pass &= sig[:, 0] > floor
    assert (ends_pass & ~expected).any()


@pytest.mark.parametrize("positive", [True, False])
def test_in_chamber_refuses_same_sign_infinities_without_a_warning(positive):
    # inf - inf is a NaN gap: the row is refused, and no RuntimeWarning is raised
    inf = np.inf
    sig = np.array([
        [1.0, inf, inf], [-inf, -inf, 1.0], [inf, inf, inf], [-inf, -inf, -inf],
        [1.0, 2.0, inf], [-inf, 1.0, 2.0], [1.0, 2.0, 3.0],
    ])
    expected = _explicit_in_chamber(sig, 0.25, positive)
    assert expected[-1] and not expected[:4].any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for layout in (sig, np.ascontiguousarray(sig.T).T):
            assert np.array_equal(in_chamber(layout, 0.25, positive), expected)


def test_in_chamber_refuses_nonfinite_ends_and_a_gap_on_the_floor():
    inf, nan = np.inf, np.nan
    for row, positive in [
        ([1.0, inf], True), ([inf], True), ([1.0, 2.0, inf], False), ([-inf, 1.0], False),
        ([-inf], False), ([nan], False), ([1.0, nan, 3.0], False), ([nan, 1.0], True),
        ([0.5, 1.0], True), ([0.0, 0.5], False),  # a gap equal to the floor 0.5
        ([0.5, 1.5], True),  # the first coordinate equal to the floor
    ]:
        assert not in_chamber(np.array(row), 0.5, positive), row
    assert in_chamber(np.array([-1e300, 1e300]), 0.5, False)
    assert in_chamber(np.array([0.75, 1.5]), 0.5, True)
    with pytest.raises(OutOfChamber):
        SpectralCoord(sigma=np.array([1.0, np.inf]))
    with pytest.raises(OutOfChamber):
        sigma_to_lambda(np.array([1.0, np.inf]))


def test_cayley_example():
    z = SiegelPoint(z=np.array([[2j]]))
    r = cayley_to_disk(z)
    np.testing.assert_allclose(r.r, [[1 / 3]], atol=1e-15)
    back = cayley_to_half(r)
    np.testing.assert_allclose(back.z, [[2j]], atol=1e-14)


def test_cayley_center():
    # i I maps to the disk origin and back
    z = SiegelPoint(z=1j * np.eye(3))
    r = cayley_to_disk(z)
    np.testing.assert_allclose(r.r, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(cayley_to_half(r).z, 1j * np.eye(3), atol=1e-14)


def test_cayley_round_trip_sweep():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            z = _random_half_point(rng, n)
            back = cayley_to_half(cayley_to_disk(z))
            np.testing.assert_allclose(back.z, z.z, atol=1e-10)
            r = _random_disk_point(rng, n)
            fwd = cayley_to_disk(cayley_to_half(r))
            np.testing.assert_allclose(fwd.r, r.r, atol=1e-10)


def test_cross_ratio_factorization():
    # against the center the cross-ratio collapses to R conj(R)
    rng = np.random.default_rng(7)
    for n in (1, 2, 4):
        z = _random_half_point(rng, n)
        c = cross_ratio(z.z, 1j * np.eye(n))
        r = cayley_to_disk(z).r
        np.testing.assert_allclose(c, r @ r.conj(), atol=1e-10)


def test_cross_ratio_spectrum_in_unit_interval():
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = _random_half_point(rng, 3)
        lam = hermitian_eigenvalues(cross_ratio(z.z, 1j * np.eye(3)))
        assert np.all(lam >= -1e-12)
        assert np.all(lam < 1.0)


def test_cross_ratio_singular_shift():
    with pytest.raises(SingularShift):
        cross_ratio(1j * np.eye(2), -1j * np.eye(2))


def test_lambda_sigma_examples():
    np.testing.assert_allclose(lambda_to_sigma(np.array([1 / 9])), [np.log(2)], atol=1e-14)
    np.testing.assert_allclose(lambda_to_sigma(np.array([1 / 4])), [np.log(3)], atol=1e-14)
    np.testing.assert_allclose(sigma_to_lambda(np.array([np.log(3)])), [1 / 4], atol=1e-14)


def test_lambda_sigma_round_trip():
    lam = np.array([0.05, 0.3, 0.8])
    np.testing.assert_allclose(sigma_to_lambda(lambda_to_sigma(lam)), lam, atol=1e-13)
    with pytest.raises(OutOfChamber):
        lambda_to_sigma(np.array([0.5, 1.0]))
    with pytest.raises(OutOfChamber):
        lambda_to_sigma(np.array([0.5, 0.5]))


def test_spectral_coordinates_example():
    sc = spectral_coordinates(SiegelPoint(z=np.array([[2j]])))
    np.testing.assert_allclose(sc.sigma, [np.log(2)], atol=1e-12)


def test_spectral_coordinates_diag():
    # diagonal disk points carry their radial coordinates in the open
    mu = np.array([0.2, 0.5])
    z = cayley_to_half(DiskPoint(r=np.diag(mu).astype(complex)))
    sc = spectral_coordinates(z)
    np.testing.assert_allclose(sc.sigma, 2 * np.arctanh(mu), atol=1e-10)


def test_spectral_coordinates_unitary_invariance():
    rng = np.random.default_rng(19)
    mu = np.array([0.2, 0.5, 0.7])
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = unitary_exp(g - g.conj().T)
    r = DiskPoint(r=u @ np.diag(mu).astype(complex) @ u.T)
    sc = spectral_coordinates(cayley_to_half(r))
    np.testing.assert_allclose(sc.sigma, 2 * np.arctanh(mu), atol=1e-10)


def test_spectral_coordinates_degenerate():
    with pytest.raises(DegenerateSpectrum):
        spectral_coordinates(SiegelPoint(z=1j * np.eye(2) * 2))


def test_disk_metric_example():
    r = np.array([[1 / 3 + 0j]])
    a = np.array([[1.0 + 0j]])
    assert abs(disk_metric(r, a, a) - 5.0625) < 1e-12


def test_disk_metric_origin():
    # at the origin the metric is 4 Re Tr(a conj(b))
    rng = np.random.default_rng(3)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expect = 4 * np.trace(a @ b.conj()).real
    assert abs(disk_metric(np.zeros((2, 2)), a, b) - expect) < 1e-12


def test_frame_gram_identity():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for _ in range(10):
            sig = np.sort(rng.uniform(0.3, 2.5, size=n))
            while n > 1 and np.min(np.diff(sig)) < 0.1:
                sig = np.sort(rng.uniform(0.3, 2.5, size=n))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = unitary_exp(g - g.conj().T)
            r = (u * np.tanh(0.5 * sig)) @ u.T
            tf = takagi_of_disk(r)
            fb = frame_at(tf, sig)
            gram = frame_gram(r, fb)
            np.testing.assert_allclose(gram, np.eye(n + n * n), atol=1e-10)


def test_disk_metric_takes_stacked_tangents():
    rng = np.random.default_rng(41)
    r = _random_disk_point(rng, 3)
    a = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    b = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    gram = disk_metric(r, a[:, None], b[None, :])
    assert gram.shape == (4, 5)
    for i in range(4):
        for j in range(5):
            one = disk_metric(r, a[i], b[j])
            assert isinstance(one, float)
            assert abs(gram[i, j] - one) <= 1e-12 * max(1.0, abs(one))


def test_takagi_of_disk_refuses_non_symmetric():
    rng = np.random.default_rng(43)
    m = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    with pytest.raises(NotSymmetric):
        takagi_of_disk(m)


def test_takagi_of_disk_consistency():
    rng = np.random.default_rng(31)
    r = _random_disk_point(rng, 3)
    tf = takagi_of_disk(r)
    np.testing.assert_allclose((tf.q * tf.mu) @ tf.q.T, r.r, atol=1e-10)


def test_normal_drift_single():
    val = normal_drift(np.array([1.0]))
    assert abs(val[0] - 0.6565176427496657) < 1e-14  # coth(1) / 2


def test_normal_drift_pair():
    # hand value for sigma = (1, 2) via the half-angle identity
    d = normal_drift(np.array([1.0, 2.0]))
    np.testing.assert_allclose(d, [0.3917271375606304, 1.3358435620440652], atol=1e-12)


def test_normal_drift_is_half_entropy_gradient():
    rng = np.random.default_rng(47)
    for n in (1, 2, 3, 5):
        for _ in range(20):
            gaps = rng.uniform(0.15, 0.6, size=n)
            sig = np.cumsum(gaps) + rng.uniform(0.05, 0.3)
            np.testing.assert_allclose(
                normal_drift(sig), 0.5 * entropy_gradient(sig), rtol=1e-12, atol=1e-12
            )


def test_normal_drift_batched():
    rng = np.random.default_rng(53)
    sig = np.cumsum(rng.uniform(0.2, 0.7, size=(6, 3)), axis=1) + 0.1
    batch = normal_drift(sig)
    for i in range(6):
        np.testing.assert_allclose(batch[i], normal_drift(sig[i]), atol=1e-13)


def test_normal_drift_errors():
    with pytest.raises(OutOfChamber):
        normal_drift(np.array([-1.0, 2.0]))
    with pytest.raises(DegenerateSpectrum):
        normal_drift(np.array([1.0, 1.0]))


def test_disk_point_passthrough():
    p = disk_point(np.zeros((2, 2)))
    assert isinstance(p, DiskPoint)
    assert disk_point(p) is p
