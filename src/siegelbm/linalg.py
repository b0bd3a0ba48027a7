"""Complex linear algebra kernels: Takagi factorization, Hermitian spectra,
unitary exponentials and the standard anti-Hermitian generator basis.

All routines operate on numpy arrays.  Matrices serialized to JSON use
row-major nested lists of (re, im) pairs; see matrix_to_json / matrix_from_json.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    NotAntiHermitian,
    NotHermitian,
    NotSymmetric,
    ShapeMismatch,
)

# Singular values at or below _ZERO_TOL (1 + mu_n) count as zero: a run of
# two or more of them gets its Takagi columns from QR (see _takagi_batch).
_ZERO_TOL = 1e-12
# Largest inner dimension at which a stacked product is summed elementwise
# over k instead of one BLAS call per matrix.  The matrix step takes its one
# product, A'^H A', at n = 1 and n >= 3 (n = 2 is closed-form).  For 512
# complex products over C-ordered path-last stacks, the step's one layout,
# elementwise against matmul: 57-62 against 273-275 ns per matrix at n = 3,
# 130-168 against 326-626 ns at n = 4 and 1,824-2,321 against 741-1,028 ns
# at n = 8 (timeit minima of five runs, one BLAS thread, 2-vCPU Xeon).  A
# whole n = 4 step on 512 paths took 2.30-2.73 ms summed elementwise against
# 2.40-2.51 ms on matmul, no clear gain, and no benchmark workload runs n = 4.
_ELEMENTWISE_MAX_N = 3


def _norm(m) -> float:
    return float(np.linalg.norm(m))


@dataclass(frozen=True)
class TakagiFactors:
    """Factorization a = q @ diag(mu) @ q.T with q unitary and mu >= 0 ascending."""

    q: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        n = self.mu.size
        if self.q.shape != (n, n) or self.mu.shape != (n,):
            raise ShapeMismatch("q must be square and mu of matching length")
        if np.any(self.mu < -1e-12) or np.any(np.diff(self.mu) < -1e-10):
            raise ValueError("mu must be nonnegative and ascending")
        uerr = _norm(self.q.conj().T @ self.q - np.eye(n))
        if uerr > 1e-8:
            raise ValueError(f"q is not unitary (residual {uerr:.2e})")

    def reconstruct(self) -> np.ndarray:
        return (self.q * self.mu) @ self.q.T


def hermitian_eigenvalues(h: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix.

    Raises NotHermitian if ||h - h^dagger|| exceeds tol * max(1, ||h||),
    ConvergenceFailure if the underlying solver fails.
    """
    h = np.asarray(h, dtype=complex)
    if _norm(h - h.conj().T) > tol * max(1.0, _norm(h)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    try:
        return np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailure(str(exc)) from exc


def is_positive_definite(h: np.ndarray, tol: float = 0.0) -> bool:
    """True iff the Hermitian matrix h has smallest eigenvalue > tol."""
    return bool(hermitian_eigenvalues(h)[0] > tol)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked matrix product over path-last stacks (n, n, ...),
    out[i, j] = sum_k a[i, k] b[k, j].  Up to an inner dimension of
    _ELEMENTWISE_MAX_N it is summed elementwise, each term one loop over the
    trailing axes; above it numpy's matmul makes one BLAS call per matrix,
    which wants each matrix contiguous (path-major memory)."""
    n = a.shape[1]
    if n > _ELEMENTWISE_MAX_N:
        return np.matmul(a, b, axes=[(0, 1), (0, 1), (0, 1)])
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, n):
        out += a[:, k, None] * b[None, k]
    return out


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _singular_values2(a: np.ndarray) -> np.ndarray:
    """Closed-form ascending singular values (2, ...) of a path-last stack
    (2, 2, ...) of complex symmetric a = [[p, b], [b, s]]:

        mu_2 = sqrt((|p|^2 + 2|b|^2 + |s|^2)/2 + hypot(d, |w|))
        mu_1 = |det a| / mu_2

    with w = conj(p) b + conj(b) s (the off-diagonal entry of a^H a) and
    d = (|p|^2 - |s|^2)/2, so mu_1's relative error stays near
    eps mu_2 / mu_1, not the eps (mu_2 / mu_1)^2 of the spectrum of a^H a."""
    p, b, s = a[0, 0], a[0, 1], a[1, 1]
    pp, bb, ss = _abs2(p), _abs2(b), _abs2(s)
    w = p.conj() * b + b.conj() * s
    wabs, d = np.abs(w), 0.5 * (pp - ss)
    mu = np.zeros_like(a.real[0])
    low, top = mu[0, ...], mu[1, ...]
    np.sqrt(0.5 * (pp + ss) + bb + np.hypot(d, wabs), out=top)
    det = p * s - b * b
    dabs = np.abs(det)
    np.divide(dabs, top, out=low, where=top > 0)
    return mu


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Ascending singular values (n, ...) of a path-last stack (n, n, ...)
    of complex symmetric matrices in a's memory order, with no vectors:
    _singular_values2 at n = 2, else the roots of LAPACK's eigvalsh of a^H a
    (a small mu_1 carries a relative error near eps (mu_n / mu_1)^2)."""
    if a.shape[0] == 2:
        return _singular_values2(a)
    h = _matmul(a.conj().swapaxes(0, 1), a)
    w = np.linalg.eigvalsh(np.moveaxis(h, (0, 1), (-2, -1)))
    mu = np.empty_like(a[0], dtype=float)
    mu[...] = np.sqrt(np.clip(np.moveaxis(w, -1, 0), 0.0, None))
    return mu


def _canonical_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-modulus entry of each column has
    positive real part (positive imaginary part on a real-part tie).

    Sign flips leave q @ diag(mu) @ q.T unchanged; this just makes the
    factorization output deterministic.
    """
    lead = q[np.argmax(np.abs(q), axis=0), np.arange(q.shape[1])]
    re, im = lead.real, lead.imag
    flip = (re < 0) | ((np.abs(re) <= 1e-12 * np.abs(lead)) & (im < 0))
    return np.where(flip, -q, q)


def _takagi_batch(a: np.ndarray):
    """Takagi factorization of one complex symmetric n x n matrix (not
    checked): q unitary and mu ascending, column signs not fixed.

    LAPACK's eigh of the real symmetric embedding [[X, Y], [Y, -X]] of
    a = X + iY has eigenvalues +-mu.  An eigenvector [u; v] of +mu gives
    p = u + iv with a conj(p) = mu p, and [-v; u] (i p) belongs to -mu, so
    the columns of the top n are orthonormal at repeated mu too.  The two
    meet only at mu = 0: two or more mu <= _ZERO_TOL (1 + mu_n) take an
    orthonormal basis of the other columns' complement instead, by QR.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    w, vecs = np.linalg.eigh(np.block([[a.real, a.imag], [a.imag, -a.real]]))
    mu = np.clip(w[n:], 0.0, None)
    q = vecs[:n, n:] + 1j * vecs[n:, n:]
    zero = mu <= _ZERO_TOL * (1.0 + mu[-1])
    if np.count_nonzero(zero) > 1:
        # the other columns lead, so Q's trailing columns span their
        # complement; a zeroed column leaves Q unitary
        basis = np.linalg.qr(np.where(zero, 0.0, q)[:, ::-1])[0][:, ::-1]
        q = np.where(zero, basis, q)
    return q, mu


def takagi_decompose(a: np.ndarray, tol: float = 1e-10) -> TakagiFactors:
    """Takagi factorization a = q @ diag(mu) @ q.T of a complex symmetric
    matrix, with q unitary and mu the ascending singular values of a.

    Computed at every n from the eigendecomposition of the real symmetric
    embedding [[Re a, Im a], [Im a, -Re a]] (_takagi_batch), which stays
    exact when singular values collide; columns of a repeated zero singular
    value are any orthonormal basis of the near-kernel.  Column signs are
    canonical: the largest-modulus entry of each column has positive real
    part.

    Raises NotSymmetric if ||a - a.T|| > tol * max(1, ||a||).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ShapeMismatch("expected a nonempty square matrix")
    if _norm(a - a.T) > tol * max(1.0, _norm(a)):
        raise NotSymmetric("matrix is not complex symmetric within tolerance")
    try:
        q, mu = _takagi_batch(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise ConvergenceFailure(str(exc)) from exc
    return TakagiFactors(q=_canonical_column_signs(q), mu=mu)


def unitary_exp(x: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Matrix exponential of an anti-Hermitian x, exactly unitary up to
    roundoff (computed through the Hermitian eigendecomposition of i x).

    Raises NotAntiHermitian if ||x + x^dagger|| > tol * max(1, ||x||).
    """
    x = np.asarray(x, dtype=complex)
    if _norm(x + x.conj().T) > tol * max(1.0, _norm(x)):
        raise NotAntiHermitian("matrix is not anti-Hermitian within tolerance")
    w, vecs = np.linalg.eigh(1j * x)
    return (vecs * np.exp(-1j * w)) @ vecs.conj().T


def unitary_algebra_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the anti-Hermitian n x n matrices under the
    inner product <A, B> = Re Tr(A B^dagger).

    Order: diagonal generators i E_kk for k = 1..n, then for k < l in
    lexicographic order the symmetric generators i (E_kl + E_lk)/sqrt(2),
    then the antisymmetric generators (E_lk - E_kl)/sqrt(2).
    """
    basis = []
    for k in range(n):
        m = np.zeros((n, n), complex)
        m[k, k] = 1j
        basis.append(m)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), complex)
            m[k, l] = m[l, k] = 1j / np.sqrt(2)
            basis.append(m)
    for k in range(n):
        for l in range(k + 1, n):
            m = np.zeros((n, n), complex)
            m[l, k] = 1 / np.sqrt(2)
            m[k, l] = -1 / np.sqrt(2)
            basis.append(m)
    return basis


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested lists of (re, im) pairs."""
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ShapeMismatch("expected nested lists of (re, im) pairs")
    return arr[..., 0] + 1j * arr[..., 1]
