"""Geometry of the Siegel upper half-space and its bounded disk model.

Points are complex symmetric matrices: Z = X + iY with Y positive definite
in the half-space model, R with I - R conj(R) positive definite in the disk
model.  The two are exchanged by the Cayley maps R = (Z - iI)(Z + iI)^-1 and
Z = i(I + R)(I - R)^-1.  Spectral coordinates sigma are radial coordinates
on the disk: the singular values of R are tanh(sigma_k / 2), kept strictly
ordered (the open chamber 0 < sigma_1 < ... < sigma_n).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    NotSymmetric,
    OutOfChamber,
    ShapeMismatch,
    SingularShift,
)
from .linalg import TakagiFactors, _norm, hermitian_eigenvalues, takagi_decompose

_SYM_TOL = 1e-10
_LAMBDA_GAP_TOL = 1e-10
_DOMAIN_TOL = 1e-14
# The matrix scheme's disk chart keeps every singular value mu below
# 1 - _DOMAIN_EDGE, which caps sigma at 2 artanh(1 - _DOMAIN_EDGE) ~ 28.32.
_DOMAIN_EDGE = 1e-12


def _check_square_symmetric(m, name: str):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{name} must be a square matrix")
    if _norm(m - m.T) > _SYM_TOL * max(1.0, _norm(m)):
        raise NotSymmetric(f"{name} must be complex symmetric")
    return m


@dataclass(frozen=True)
class SiegelPoint:
    """Half-space point: z symmetric with positive definite imaginary part."""

    z: np.ndarray

    def __post_init__(self):
        z = _check_square_symmetric(self.z, "z")
        object.__setattr__(self, "z", z)
        if hermitian_eigenvalues(z.imag.astype(complex))[0] <= 0:
            raise OutOfChamber("imaginary part must be positive definite")

    @property
    def n(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class DiskPoint:
    """Disk point: r symmetric with all singular values below one."""

    r: np.ndarray

    def __post_init__(self):
        r = _check_square_symmetric(self.r, "r")
        object.__setattr__(self, "r", r)
        lam = hermitian_eigenvalues(r @ r.conj())
        if lam[-1] >= 1.0 - _DOMAIN_TOL:
            raise OutOfChamber("I - r conj(r) must be positive definite")

    @property
    def n(self) -> int:
        return self.r.shape[0]


@dataclass(frozen=True)
class SpectralCoord:
    """Ordered radial coordinates 0 < sigma_1 < ... < sigma_n."""

    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sigma)
        if sigma.ndim != 1 or sigma.size == 0:
            raise ShapeMismatch("sigma must be a nonempty 1-d array")
        if not in_chamber(sigma, 0.0):
            raise OutOfChamber("sigma must be strictly positive and ascending")

    @property
    def n(self) -> int:
        return self.sigma.size


def in_chamber(sigma, floor: float, positive: bool = True):
    """Rows of sigma (..., n) that are finite, whose gaps all exceed floor
    and, if positive, whose first coordinate does too: the open chamber
    shrunk by floor.  One coordinate at a time, so on the (c, n) view of a
    path-last (n, c) state each step reads contiguous rows.  Once every gap
    has passed, a NaN or an infinity can only sit at an end."""
    ok = sigma[..., 0] > floor if positive else np.isfinite(sigma[..., 0])
    # two adjacent infinities of one sign have a NaN gap, which is refused
    with np.errstate(invalid="ignore"):
        for k in range(1, sigma.shape[-1]):
            ok &= sigma[..., k] - sigma[..., k - 1] > floor
    return ok & np.isfinite(sigma[..., -1])


def _right_divide(a, b):
    # a @ b^-1 without forming the inverse
    try:
        return np.linalg.solve(b.T, a.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularShift(str(exc)) from exc


def cayley_to_disk(z: SiegelPoint) -> DiskPoint:
    """R = (Z - iI)(Z + iI)^-1."""
    zm = z.z if isinstance(z, SiegelPoint) else np.asarray(z, complex)
    eye = np.eye(zm.shape[0])
    r = _right_divide(zm - 1j * eye, zm + 1j * eye)
    return DiskPoint(r=0.5 * (r + r.T))


def cayley_to_half(r: DiskPoint) -> SiegelPoint:
    """Z = i(I + R)(I - R)^-1."""
    rm = r.r if isinstance(r, DiskPoint) else np.asarray(r, complex)
    eye = np.eye(rm.shape[0])
    z = 1j * _right_divide(eye + rm, eye - rm)
    return SiegelPoint(z=0.5 * (z + z.T))


def cross_ratio(z: np.ndarray, z1: np.ndarray) -> np.ndarray:
    """Matrix cross-ratio (Z-Z1)(Z-conj(Z1))^-1 (conj(Z)-conj(Z1))(conj(Z)-Z1)^-1.

    For z1 = iI this equals R conj(R) with R the Cayley image of z, so its
    spectrum is the vector of squared singular values tanh^2(sigma_k / 2).
    Raises SingularShift when one of the two shifted inverses does not exist.
    """
    z = np.asarray(getattr(z, "z", z), complex)
    z1 = np.asarray(getattr(z1, "z", z1), complex)
    zc, z1c = z.conj(), z1.conj()
    left = _right_divide(z - z1, z - z1c)
    right = _right_divide(zc - z1c, zc - z1)
    return left @ right


def lambda_to_sigma(lam: np.ndarray) -> np.ndarray:
    """sigma_k = 2 artanh(sqrt(lambda_k)) with 0 < lambda_1 < ... < lambda_n < 1."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(in_chamber(lam, 0.0)):
        raise OutOfChamber("lambda must be strictly positive and ascending")
    if lam[-1] >= 1.0:
        raise OutOfChamber("lambda must stay below one")
    return 2.0 * np.arctanh(np.sqrt(lam))


def sigma_to_lambda(sigma: np.ndarray) -> np.ndarray:
    """lambda_k = tanh^2(sigma_k / 2)."""
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if not np.all(in_chamber(sigma, 0.0)):
        raise OutOfChamber("sigma must be strictly positive and ascending")
    return np.tanh(0.5 * sigma) ** 2


def spectral_coordinates(z: SiegelPoint) -> SpectralCoord:
    """Radial coordinates of a half-space point.

    Computed from the Hermitian spectrum of R conj(R) in the disk model
    (numerically preferable to the general cross-ratio route).  Raises
    DegenerateSpectrum when lambda_1 or a lambda gap falls below 1e-10,
    OutOfChamber when some lambda reaches one.
    """
    r = cayley_to_disk(z).r if isinstance(z, SiegelPoint) else disk_point(z).r
    return SpectralCoord(sigma=_disk_sigma(r))


def _disk_sigma(r: np.ndarray) -> np.ndarray:
    """sigma = 2 artanh(sqrt(lambda)) from the spectrum lambda of R conj(R)."""
    lam = np.clip(hermitian_eigenvalues(r @ r.conj()), 0.0, None)
    if lam[-1] >= 1.0 - _DOMAIN_TOL:
        raise OutOfChamber("spectrum reaches the disk boundary")
    if lam[0] < _LAMBDA_GAP_TOL or np.any(np.diff(lam) < _LAMBDA_GAP_TOL):
        raise DegenerateSpectrum("lambda spectrum is degenerate")
    return lambda_to_sigma(lam)


def disk_point(r: np.ndarray) -> DiskPoint:
    return r if isinstance(r, DiskPoint) else DiskPoint(r=np.asarray(r, complex))


def disk_metric(r, a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Riemannian inner product of tangents a, b at the disk point r:

        g(a, b) = 4 Re Tr[(I - R conj(R))^-1 a (I - conj(R) R)^-1 conj(b)].

    a and b may be stacks (..., n, n) that broadcast against each other;
    float for a single pair, array for stacks.
    """
    rm = np.asarray(getattr(r, "r", r), complex)
    a = np.asarray(a, complex)
    b = np.asarray(b, complex)
    eye = np.eye(rm.shape[0])
    ainv = np.linalg.inv(eye - rm @ rm.conj())
    # (I - conj(R) R)^-1 = conj((I - R conj(R))^-1)
    val = 4.0 * np.einsum("...ab,...ba->...", ainv @ a @ ainv.conj(), b.conj()).real
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class FrameBasis:
    """Orthonormal tangent frame at a disk point r = q diag(tanh(sigma/2)) q^T.

    l_vectors[k] is the radial direction conjugate to sigma_k; u_vectors
    holds the n^2 directions tangent to the isospectral orbit, ordered as
    the n diagonal directions, then the upper-triangle (k, l) pairs in
    lexicographic order for each of the two off-diagonal families.
    """

    l_vectors: np.ndarray
    u_vectors: np.ndarray
    sigma: np.ndarray
    base: TakagiFactors


def frame_at(tf: TakagiFactors, sigma) -> FrameBasis:
    """Orthonormal frame (under disk_metric) at the point determined by tf.

    Requires tf.mu consistent with tanh(sigma/2) to 1e-8.
    """
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    n = sigma.size
    if tf.mu.shape != (n,):
        raise ShapeMismatch("tf and sigma disagree on dimension")
    if np.max(np.abs(tf.mu - np.tanh(0.5 * sigma))) > 1e-8:
        raise ValueError("tf.mu inconsistent with tanh(sigma/2)")
    # the columns of q S, S = diag((1 + cosh sigma)^-1/2) = diag(1 / (sqrt(2) cosh(sigma/2)))
    qs = tf.q / (np.sqrt(2.0) * np.cosh(0.5 * sigma))
    ks, ls = np.triu_indices(n, 1)
    l_vecs = np.einsum("ak,bk->kab", qs, qs)
    pair = np.einsum("ap,bp->pab", qs[:, ks], qs[:, ls])
    sym = (pair + np.swapaxes(pair, -1, -2)) / np.sqrt(2)
    u_vecs = np.concatenate([1j * l_vecs, 1j * sym, sym])
    return FrameBasis(l_vectors=l_vecs, u_vectors=u_vecs, sigma=sigma, base=tf)


def frame_gram(r, fb: FrameBasis) -> np.ndarray:
    """Gram matrix of the full frame (L then U vectors) under disk_metric."""
    frame = np.concatenate([fb.l_vectors, fb.u_vectors], axis=0)
    return disk_metric(r, frame[:, None], frame[None, :])


def takagi_of_disk(r) -> TakagiFactors:
    """Takagi factors of a disk point; NotSymmetric unless r is symmetric."""
    return takagi_decompose(np.asarray(getattr(r, "r", r), complex))


def normal_drift(sigma) -> np.ndarray:
    """Radial drift produced by the orbit directions, componentwise

        d_k = coth(sigma_k)/2
            + sum_{l != k} [coth((sigma_k+sigma_l)/2) + coth((sigma_k-sigma_l)/2)] / 4.

    Equals half the gradient of the orbit log-volume (see the entropy
    module); the two routes are kept independent so tests can cross-check.
    """
    sigma = np.asarray(getattr(sigma, "sigma", sigma), dtype=float)
    if np.any(sigma <= 0):
        raise OutOfChamber("sigma must be strictly positive")
    d = 0.5 / np.tanh(sigma)
    n = sigma.shape[-1]
    if n == 1:
        return d
    s = sigma[..., :, None] + sigma[..., None, :]
    dlt = sigma[..., :, None] - sigma[..., None, :]
    off = ~np.eye(n, dtype=bool)
    if np.any(dlt[..., off] == 0.0):
        raise DegenerateSpectrum("coincident sigma entries")
    pair = np.zeros_like(s)
    pair[..., off] = 1.0 / np.tanh(0.5 * s[..., off]) + 1.0 / np.tanh(0.5 * dlt[..., off])
    return d + 0.25 * np.sum(pair, axis=-1)
