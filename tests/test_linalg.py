"""Tests for the complex linear algebra kernels."""
import numpy as np
import pytest

from siegelbm import (
    ConvergenceFailure,
    NotAntiHermitian,
    NotHermitian,
    NotSymmetric,
    ShapeMismatch,
    hermitian_eigenvalues,
    is_positive_definite,
    matrix_from_json,
    matrix_to_json,
    takagi_decompose,
    unitary_algebra_basis,
    unitary_exp,
)
from siegelbm.linalg import _matmul, _singular_values, _takagi_batch


def _path_first(a):
    """_takagi_batch on each matrix of a stack (paths, n, n), its q and mu
    stacked path-first."""
    q, mu = zip(*map(_takagi_batch, a))
    return np.array(q), np.array(mu)


def _takagi_residual(a, tf):
    recon = (tf.q * tf.mu) @ tf.q.T
    return np.linalg.norm(recon - a)


def test_takagi_diagonal():
    a = np.diag([0.3, 0.7]).astype(complex)
    tf = takagi_decompose(a)
    np.testing.assert_allclose(tf.mu, [0.3, 0.7], atol=1e-14)
    assert _takagi_residual(a, tf) < 1e-12


def test_takagi_zero_matrix():
    tf = takagi_decompose(np.zeros((3, 3), complex))
    np.testing.assert_allclose(tf.mu, 0.0, atol=1e-15)
    # any orthonormal basis is valid for the kernel; q must still be unitary
    np.testing.assert_allclose(tf.q.conj().T @ tf.q, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("n, rank", [(3, 1), (4, 2), (8, 6)])
def test_takagi_of_a_rank_deficient_matrix(n, rank):
    # a zero singular value repeated n - rank times: through a^H a it reads
    # near 1e-8, and its columns came out far from orthonormal
    rng = np.random.default_rng(950)
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    a = z @ z.T
    tf = takagi_decompose(a)
    assert np.linalg.norm(tf.q.conj().T @ tf.q - np.eye(n)) <= 1e-14
    assert _takagi_residual(a, tf) <= 1e-14 * np.linalg.norm(a)


def test_takagi_degenerate_offdiagonal():
    # both singular values equal 1; the naive phase correction breaks here
    a = np.array([[0, 1], [1, 0]], dtype=complex)
    tf = takagi_decompose(a)
    np.testing.assert_allclose(tf.mu, [1.0, 1.0], atol=1e-12)
    assert _takagi_residual(a, tf) < 1e-10


def test_takagi_imaginary_diagonal():
    # negative/complex entries exercise the phase correction
    a = np.diag([1j, -2.0, 0.5 + 0.5j])
    tf = takagi_decompose(a)
    np.testing.assert_allclose(
        tf.mu, sorted([1.0, 2.0, abs(0.5 + 0.5j)]), atol=1e-12
    )
    assert _takagi_residual(a, tf) < 1e-10


def test_takagi_random_sweep():
    rng = np.random.default_rng(101)
    for n in range(1, 9):
        for _ in range(20):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = g + g.T
            tf = takagi_decompose(a)
            scale = max(1.0, np.linalg.norm(a))
            assert _takagi_residual(a, tf) <= 1e-10 * scale
            assert np.all(np.diff(tf.mu) >= -1e-12)
            np.testing.assert_allclose(
                tf.q.conj().T @ tf.q, np.eye(n), atol=1e-10
            )


def test_takagi_matches_singular_values():
    rng = np.random.default_rng(77)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = g + g.T
    tf = takagi_decompose(a)
    sv = np.sqrt(np.clip(np.linalg.eigvalsh(a.conj().T @ a), 0, None))
    np.testing.assert_allclose(tf.mu, sv, atol=1e-10)


def test_takagi_near_degenerate_cluster():
    # gap 1e-7 sits below the cluster threshold; residual must not blow up
    rng = np.random.default_rng(5)
    q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    mu = np.array([0.2, 0.5, 0.5 + 1e-7, 0.9])
    a = (q * mu) @ q.T
    tf = takagi_decompose(a)
    assert _takagi_residual(a, tf) < 1e-10
    np.testing.assert_allclose(tf.mu, mu, atol=1e-9)
    # at n = 3, the gap of 1e-7 and an exact repeat through _takagi_batch
    u = np.linalg.qr(rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3)))[0]
    for v, sv in zip(u, ([0.2, 0.5, 0.5 + 1e-7], [0.3, 0.3, 0.9])):
        m = (v * sv) @ v.T
        q, got = _takagi_batch(m)
        np.testing.assert_allclose(got, sv, atol=1e-9)
        np.testing.assert_allclose(got, takagi_decompose(m).mu, atol=1e-10)
        assert np.linalg.norm((q * got) @ q.T - m) < 1e-10 * max(1.0, np.linalg.norm(m))


def test_takagi_rejects_nonsymmetric():
    with pytest.raises(NotSymmetric):
        takagi_decompose(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ShapeMismatch):
        takagi_decompose(np.zeros((2, 3), complex))


def test_takagi_refuses_an_empty_matrix():
    # a 0x0 matrix used to reach argmax over an empty column and raise a raw
    # ValueError
    with pytest.raises(ShapeMismatch, match="nonempty square"):
        takagi_decompose(np.zeros((0, 0), complex))


def test_takagi_deterministic_output():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = g + g.T
    t1 = takagi_decompose(a)
    t2 = takagi_decompose(a.copy())
    np.testing.assert_array_equal(t1.q, t2.q)
    np.testing.assert_array_equal(t1.mu, t2.mu)


def _check_takagi2(a, q, mu):
    # reconstruction and singular values to 1e-14 ||a||, unitarity to 1e-14
    scale = 1e-14 * np.linalg.norm(a, axis=(-2, -1))
    recon = (q * mu[:, None, :]) @ np.swapaxes(q, -1, -2)
    assert np.all(np.linalg.norm(recon - a, axis=(-2, -1)) <= scale)
    gram = np.swapaxes(q.conj(), -1, -2) @ q
    assert np.all(np.linalg.norm(gram - np.eye(2), axis=(-2, -1)) <= 1e-14)
    sv = np.linalg.svd(a, compute_uv=False)[:, ::-1]
    assert np.all(np.abs(mu - sv) <= scale[:, None])


def test_takagi2_matches_svd_on_random_stacks():
    rng = np.random.default_rng(901)
    g = rng.standard_normal((1000, 2, 2)) + 1j * rng.standard_normal((1000, 2, 2))
    a = g + np.swapaxes(g, -1, -2)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        q, mu = _path_first(a)
    assert np.all(mu[:, 0] <= mu[:, 1])
    _check_takagi2(a, q, mu)


def test_takagi2_edge_rows():
    # the zero matrix, equal and swapped diagonals, a zero diagonal with
    # equal singular values, an entry of 1e-300 and a rank-one matrix
    x = np.array([0.6 - 0.3j, 0.2 + 0.7j])
    x /= np.linalg.norm(x)
    a = np.array(
        [
            [[0.0, 0.0], [0.0, 0.0]],
            [[0.3, 0.0], [0.0, 0.3]],
            [[0.5, 0.0], [0.0, 0.2]],
            [[0.2, 0.0], [0.0, 0.5]],
            [[0.0, 0.4 - 0.3j], [0.4 - 0.3j, 0.0]],
            [[1.0, 1e-300j], [1e-300j, 0.5]],
            0.7 * np.outer(x, x),
        ],
        dtype=complex,
    )
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        closed = _singular_values(a.transpose(1, 2, 0)).T
        q, mu = _path_first(a)
    np.testing.assert_array_equal(closed[:6], [[0, 0], [0.3, 0.3], [0.2, 0.5], [0.2, 0.5], [0.5, 0.5], [0.5, 1.0]])
    np.testing.assert_allclose(closed[6], [0.0, 0.7], rtol=1e-15, atol=1e-16)
    np.testing.assert_allclose(mu, closed, rtol=1e-15, atol=1e-16)
    _check_takagi2(a, q, mu)


@pytest.mark.parametrize("n", range(1, 9))
def test_matmul_matches_operator(n):
    # path-last stacks over path-major memory (views) and C-ordered copies
    rng = np.random.default_rng(910 + n)
    a = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    b = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
    for x, y in ((a, b), (np.swapaxes(a, -1, -2), b), (a, np.swapaxes(b.conj(), -1, -2))):
        ref = x @ y
        xl, yl = np.moveaxis(x, 0, -1), np.moveaxis(y, 0, -1)
        for got in (_matmul(xl, yl), _matmul(np.ascontiguousarray(xl), np.ascontiguousarray(yl))):
            got = np.moveaxis(got, -1, 0)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_takagi_batch_small_singular_value(n):
    # eigh of the real embedding reads mu_1 with an absolute error near
    # eps mu_n, and the closed form at n = 2 reads mu_1 = |det a| / mu_2 off
    # a itself, so the relative error of mu_1 stays near eps mu_n / mu_1;
    # through a^H a it would be near eps (mu_n / mu_1)^2 (1e-4 at
    # (1e-6, 0.9), no digit at 1e-9)
    for (low, top), bound in (((1e-6, 0.9), 1e-9), ((1e-9, 0.5), 1e-6)):
        rng = np.random.default_rng(920)
        z = rng.standard_normal((200, n, n)) + 1j * rng.standard_normal((200, n, n))
        q = np.linalg.qr(z)[0]
        mu = np.concatenate(([low], top * np.arange(1, n) / (n - 1)))
        a = (q * mu) @ np.swapaxes(q, -1, -2)
        found = [_path_first(a)[1]]
        if n == 2:
            found.append(_singular_values(a.transpose(1, 2, 0)).T)
        for got in found:
            assert np.max(np.abs(got[:, 0] / low - 1.0)) <= bound
            np.testing.assert_allclose(got[:, -1], top, rtol=1e-14)


def test_singular_values_at_n2_are_the_closed_form_bits():
    # the closed form against LAPACK's SVD, rows with a zero or a repeated
    # singular value included
    rng = np.random.default_rng(930)
    a = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    a = a + np.swapaxes(a, -1, -2)
    a[0] = 0.0
    a[1] = np.diag([0.3, 0.3])
    a[2] = [[0.0, 0.5], [0.5, 0.0]]
    sv = np.linalg.svd(a, compute_uv=False)[:, ::-1]
    scale = 1e-14 * np.linalg.norm(a, axis=(-2, -1))
    assert np.all(np.abs(_singular_values(a.transpose(1, 2, 0)).T - sv) <= scale[:, None])


@pytest.mark.parametrize("n", [1, 3, 8])
def test_singular_values_match_takagi_batch(n):
    # sqrt(eigvalsh(a^H a)) against the full factorization's mu, which stays
    # exact in a cluster; both path-last memory orders, which
    # _singular_values keeps
    rng = np.random.default_rng(940 + n)
    c = 32
    q = np.linalg.qr(rng.standard_normal((c, n, n)) + 1j * rng.standard_normal((c, n, n)))[0]
    mu = np.sort(rng.uniform(0.0, 0.99, (c, n)), axis=-1)
    if n > 1:
        mu[3, 1] = mu[3, 0] + 1e-9  # a clustered row
    a = ((q * mu[:, None, :]) @ np.swapaxes(q, -1, -2)).transpose(1, 2, 0)
    expected = _path_first(a.transpose(2, 0, 1))[1].T
    for stack in (a, np.ascontiguousarray(a)):
        got = _singular_values(stack)
        assert got.strides == np.empty_like(stack[0], dtype=float).strides
        assert np.all(np.abs(got - expected) <= 1e-12 * expected[-1])


def test_hermitian_eigenvalues_char_poly():
    # eigenvalues of [[2, i], [-i, 2]] solve (2 - x)^2 = 1
    h = np.array([[2, 1j], [-1j, 2]])
    np.testing.assert_allclose(hermitian_eigenvalues(h), [1.0, 3.0], atol=1e-12)


def test_hermitian_eigenvalues_rejects():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))


def test_is_positive_definite():
    assert is_positive_definite(np.eye(2))
    assert not is_positive_definite(np.diag([1.0, -0.1]))
    assert not is_positive_definite(np.diag([1.0, 0.0]))  # semidefinite fails


def test_unitary_exp_closed_form():
    # exp of i*theta*sigma_x rotates by theta
    theta = 0.3
    x = 1j * theta * np.array([[0, 1], [1, 0]], dtype=complex)
    u = unitary_exp(x)
    expect = np.array(
        [[np.cos(theta), 1j * np.sin(theta)], [1j * np.sin(theta), np.cos(theta)]]
    )
    np.testing.assert_allclose(u, expect, atol=1e-12)


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(12)
    for n in (1, 2, 4, 6):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = g - g.conj().T
        u = unitary_exp(x)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(n), atol=1e-12)


def test_unitary_exp_rejects():
    with pytest.raises(NotAntiHermitian):
        unitary_exp(np.eye(2))


def test_algebra_basis_orthonormal():
    for n in (1, 2, 3, 4):
        basis = unitary_algebra_basis(n)
        assert len(basis) == n * n
        for i, a in enumerate(basis):
            np.testing.assert_allclose(a, -a.conj().T, atol=1e-15)
            for j, b in enumerate(basis):
                ip = np.trace(a @ b.conj().T).real
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-14


def test_algebra_basis_order():
    basis = unitary_algebra_basis(2)
    np.testing.assert_allclose(basis[0], np.diag([1j, 0]), atol=1e-15)
    np.testing.assert_allclose(basis[1], np.diag([0, 1j]), atol=1e-15)
    np.testing.assert_allclose(
        basis[2], np.array([[0, 1j], [1j, 0]]) / np.sqrt(2), atol=1e-15
    )
    np.testing.assert_allclose(
        basis[3], np.array([[0, -1], [1, 0]]) / np.sqrt(2), atol=1e-15
    )


def test_matrix_json_round_trip():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obj = matrix_to_json(m)
    assert isinstance(obj, list) and isinstance(obj[0][0], list)
    np.testing.assert_array_equal(matrix_from_json(obj), m)
    with pytest.raises(ShapeMismatch):
        matrix_from_json([[1.0, 2.0]])
