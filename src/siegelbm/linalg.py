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

# Relative gap below which singular values are treated as a degenerate
# cluster.  Above this the per-column phase correction is accurate to
# ~1e-10; below it the cluster is re-solved exactly (see _fix_cluster).
_CLUSTER_GAP = 1e-6
_ZERO_TOL = 1e-12
# Largest inner dimension at which a stacked product is summed elementwise
# over k instead of one BLAS call per matrix.  For 512 complex products over
# C-ordered path-last stacks, the matrix step's one layout, elementwise
# against matmul: 21-28 against 264-418 ns per matrix at n = 2, 130-168
# against 326-626 ns at n = 4 and 1,824-2,321 against 741-1,028 ns at n = 8
# (timeit minima of five runs, one BLAS thread, 2-vCPU Xeon).  A whole n = 4
# step on 512 paths took 2.30-2.73 ms summed elementwise against 2.40-2.51 ms
# on matmul, no clear gain, and no benchmark workload runs n = 4.
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


def _unit(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """z / r where r > 0, else 1: the phase of z given r = |z|."""
    return np.divide(z, r, out=np.ones_like(z), where=r > 0)


def _singular_values2(a: np.ndarray):
    """Closed-form ascending singular values (2, ...) of a path-last stack
    (2, 2, ...) of complex symmetric a = [[p, b], [b, s]], with the terms
    _takagi2 reuses: w = conj(p) b + conj(b) s (the off-diagonal entry of
    a^H a), |w|, d = (|p|^2 - |s|^2)/2, det a and |det a|.

        mu_2 = sqrt((|p|^2 + 2|b|^2 + |s|^2)/2 + hypot(d, |w|))
        mu_1 = |det a| / mu_2

    so mu_1's relative error stays near eps mu_2 / mu_1, not the
    eps (mu_2 / mu_1)^2 of the spectrum of a^H a."""
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
    return mu, w, wabs, d, det, dabs


def _singular_values(a: np.ndarray) -> np.ndarray:
    """Ascending singular values (n, ...) of a path-last stack (n, n, ...)
    of complex symmetric matrices in a's memory order, with no vectors:
    _singular_values2 at n = 2, else the roots of LAPACK's eigvalsh of a^H a
    (a small mu_1 carries a relative error near eps (mu_n / mu_1)^2)."""
    if a.shape[0] == 2:
        return _singular_values2(a)[0]
    h = _matmul(a.conj().swapaxes(0, 1), a)
    w = np.linalg.eigvalsh(np.moveaxis(h, (0, 1), (-2, -1)))
    mu = np.empty_like(a[0], dtype=float)
    mu[...] = np.sqrt(np.clip(np.moveaxis(w, -1, 0), 0.0, None))
    return mu


def _takagi2(a: np.ndarray):
    """Takagi factorization of a path-last stack (2, 2, ...) of complex
    symmetric matrices a = [[p, b], [b, s]] in closed form from a itself (q
    unitary in a's memory order, mu (2, ...) ascending, from
    _singular_values2); reads the diagonal and the upper entry only.

    mu_2's column is x = conj(v) e^{i theta/2}, where
    v = (cos t e^{i phi}, sin t) with t = atan2(|w|, (|p|^2 - |s|^2)/2) / 2
    and e^{i phi} = w / |w| is the top eigenvector of a^H a and e^{i theta}
    the phase of v^T a v.  mu_1's column (-conj(x_2), conj(x_1)) e^{i psi}
    is orthogonal to x, and e^{2 i psi} = det a / |det a| makes its diagonal
    entry of q^H a conj(q) real and nonnegative.  The phase of a zero is
    taken as 1.  Columns of a degenerate pair are left to _fix_cluster.
    """
    p, b, s = a[0, 0], a[0, 1], a[1, 1]
    mu, w, wabs, d, det, dabs = _singular_values2(a)
    t = 0.5 * np.arctan2(wabs, d)
    cos, sin = np.cos(t), np.sin(t)
    v0 = cos * _unit(w, wabs)
    g = p * v0 * v0 + (2.0 * sin) * b * v0 + (sin * sin) * s
    half = np.sqrt(_unit(g, np.abs(g)))
    turn = np.sqrt(_unit(det, dabs))
    q = np.empty_like(a)
    x0, x1 = q[0, 1, ...], q[1, 1, ...]
    np.multiply(v0.conj(), half, out=x0)
    np.multiply(sin, half, out=x1)
    np.multiply(x1.conj(), -turn, out=q[0, 0, ...])
    np.multiply(x0.conj(), turn, out=q[1, 0, ...])
    return q, mu


def _canonical_column_signs(q: np.ndarray) -> np.ndarray:
    """Flip column signs so the largest-modulus entry of each column has
    positive real part (positive imaginary part on a real-part tie).

    Sign flips leave q @ diag(mu) @ q.T unchanged; this just makes the
    factorization output deterministic.
    """
    idx = np.argmax(np.abs(q), axis=-2)
    lead = np.take_along_axis(q, idx[..., None, :], axis=-2)[..., 0, :]
    re, im = lead.real, lead.imag
    flip = (re < 0) | ((np.abs(re) <= 1e-12 * np.abs(lead)) & (im < 0))
    return np.where(flip[..., None, :], -q, q)


def _coneig_block(b: np.ndarray):
    """Takagi vectors of a small complex symmetric block via the real
    symmetric embedding [[X, Y], [Y, -X]] of b = X + iY.

    Eigenpairs (mu, [u; v]) with mu >= 0 give con-eigenvectors p = u + iv
    satisfying b @ conj(p) = mu * p exactly (up to roundoff), with no loss
    of accuracy at degenerate mu.
    """
    m = b.shape[0]
    x, y = b.real, b.imag
    emb = np.block([[x, y], [y, -x]])
    w, vecs = np.linalg.eigh(emb)
    mu = np.clip(w[m:], 0.0, None)
    p = vecs[:m, m:] + 1j * vecs[m:, m:]
    return mu, p


def _fix_cluster(a, q, mu, lo, hi):
    """Re-solve columns lo:hi of a phase-corrected Takagi candidate.

    Within a degenerate cluster the eigenvectors of a^dagger a mix freely,
    so the per-column phase correction cannot diagonalize the restriction.
    The symmetric restriction b is re-factorized through _coneig_block,
    which is exact for repeated singular values.  Near-zero clusters are
    left as-is: any orthonormal basis of the near-kernel is valid.
    """
    scale = 1.0 + float(mu[-1])
    if mu[hi - 1] <= _ZERO_TOL * scale:
        return
    qc = q[:, lo:hi]
    b = qc.conj().T @ a @ qc.conj()
    mu_c, p = _coneig_block(b)
    q[:, lo:hi] = qc @ p
    mu[lo:hi] = mu_c


def _takagi_batch(a: np.ndarray):
    """Takagi factorization of a stack (..., n, n) of complex symmetric
    matrices.  No symmetry validation; callers guarantee the input.  Column
    signs are not fixed (takagi_decompose fixes them).

    The work runs on the path-last view (n, n, ...) of a, and q and mu come
    back as (..., n, n) and (..., n) views of path-last results.  At n = 2 it
    is the closed form _takagi2 of a itself.  Otherwise mu comes from
    LAPACK's spectrum of a^H a, which squares the condition number (a small
    mu_1 carries a relative error near eps (mu_n / mu_1)^2), and each column
    of conj(eigenvectors) is turned by a phase.  Runs of near-equal mu are
    then re-solved exactly (_fix_cluster).
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[-1]
    if n == 0:
        return np.zeros(a.shape, complex), np.zeros(a.shape[:-1])
    # the path-last views of q and mu, and their inverses, as axis orders
    last = (a.ndim - 2, a.ndim - 1) + tuple(range(a.ndim - 2))
    first = tuple(range(2, a.ndim)) + (0, 1)
    mu_last = (a.ndim - 2,) + tuple(range(a.ndim - 2))
    mu_first = tuple(range(1, a.ndim - 1)) + (0,)
    al = a.transpose(last)
    if n == 2:
        q, mu = _takagi2(al)
    else:
        w, v = np.linalg.eigh(_matmul(al.conj().swapaxes(0, 1), al).transpose(first))
        # eigh returns path-first arrays; the rest runs in a's memory order
        mu, vecs = np.empty_like(al[0], dtype=float), np.empty_like(al)
        mu[...] = np.sqrt(np.clip(w, 0.0, None)).transpose(mu_last)
        vecs[...] = v.transpose(last)
        # with qt = conj(vecs), the diagonal of qt^H a conj(qt) = vecs^T a vecs
        # is mu * e^{i phi}
        d = np.einsum("rj...,rj...->j...", vecs, _matmul(al, vecs))
        phase = np.where(np.abs(d) > 1e-300, np.exp(0.5j * np.angle(d)), 1.0)
        q = vecs.conj() * phase
    # re-solve each run of near-equal singular values in place
    near = mu[1:] - mu[:-1] < _CLUSTER_GAP * (1.0 + mu[-1])
    for i in map(tuple, np.argwhere(np.any(near, axis=0))):
        at = (Ellipsis,) + i
        lo = 0
        for k in range(n):
            if k == n - 1 or not near[(k,) + i]:
                if k > lo:
                    _fix_cluster(al[at], q[at], mu[at], lo, k + 1)
                lo = k + 1
    return q.transpose(first), mu.transpose(mu_first)


def takagi_decompose(a: np.ndarray, tol: float = 1e-10) -> TakagiFactors:
    """Takagi factorization a = q @ diag(mu) @ q.T of a complex symmetric
    matrix, with q unitary and mu the ascending singular values of a.

    Computed in closed form at n = 2 (_takagi2), otherwise from the
    Hermitian eigendecomposition of a^dagger a followed by a per-column
    phase correction; degenerate singular-value clusters are re-solved
    through a real symmetric embedding of the restricted block, which stays
    exact when singular values collide.

    Raises NotSymmetric if ||a - a.T|| > tol * max(1, ||a||).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch("expected a square matrix")
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
