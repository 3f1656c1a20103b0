"""Small Hermitian-matrix kernels for the Lagrangian phase operator.

Everything here works on n x n complex Hermitian matrices with 1 <= n <= 4:
generalized eigenvalues of a pencil (omega, chi) with omega positive-definite,
the phase angle sum(arctan(lambda_i)) in both its eigenvalue and determinant
forms, and the first/second derivative tensors of eigenvalues and of
spectral functions at diagonal matrices with distinct spectrum.

The pencil eigensolver whitens chi by the Cholesky factor of omega, whose
explicit 1e-12 pivot rule is the one the torus metric check mirrors, and
diagonalizes the whitened matrix with LAPACK (numpy's batched eigh).  The
eigensolver works on batches of shape (B, n, n); the scalar API is the
B = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadIndex,
    DegenerateSpectrum,
    DimensionMismatch,
    NotPositiveDefinite,
)

MAX_DIM = 4
CHOLESKY_PIVOT_MIN = 1e-12
DISTINCT_GAP_MIN = 1e-6


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^H)/2, batched over leading axes.  If a sum
    overflows (entries near the float maximum), both terms are halved first."""
    a = np.asarray(a, dtype=complex)
    a_h = np.conj(np.swapaxes(a, -1, -2))
    try:
        with np.errstate(over="raise"):
            return 0.5 * (a + a_h)
    except FloatingPointError:
        return 0.5 * a + 0.5 * a_h


def as_hermitian(a, n: int | None = None) -> np.ndarray:
    """Validate an n x n array and return its Hermitian symmetrization.

    Round-off asymmetry is silently absorbed; shape problems raise
    DimensionMismatch.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not (1 <= a.shape[0] <= MAX_DIM):
        raise DimensionMismatch(f"dimension {a.shape[0]} outside 1..{MAX_DIM}")
    if n is not None and a.shape[0] != n:
        raise DimensionMismatch(f"expected dimension {n}, got {a.shape[0]}")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch("matrix entries must be finite")
    return symmetrize(a)


@dataclass(frozen=True)
class EigenSystem:
    """Eigendata of the pencil (omega, chi).

    lambdas: real eigenvalues sorted descending.
    transform: matrix W with W^H omega W = Id and W^H chi W = diag(lambdas).
    """

    lambdas: np.ndarray
    transform: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[-1]


@dataclass(frozen=True)
class SpectralDerivatives:
    """First (n,n) and second (n,n,n,n) derivative tensors of F(Lambda)."""

    first: np.ndarray
    second: np.ndarray


# ---------------------------------------------------------------------------
# batched pencil eigensolver: explicit Cholesky pivots, then LAPACK eigh on
# the whitened matrix
# ---------------------------------------------------------------------------


def cholesky_batch(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a batch of Hermitian matrices.

    Raises NotPositiveDefinite at the first batch element whose pivot is
    non-finite or 1e-12 or below.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[1]
    low = np.zeros_like(a)
    for j in range(n):
        pivot = a[:, j, j].real - np.sum(np.abs(low[:, j, :j]) ** 2, axis=-1)
        bad = ~(np.isfinite(pivot) & (pivot > CHOLESKY_PIVOT_MIN))
        if np.any(bad):
            first = int(np.argmax(bad))
            raise NotPositiveDefinite(
                f"Cholesky pivot {pivot[first]:.3e} at pivot index {j} (batch "
                f"element {first}) is not a finite value above {CHOLESKY_PIVOT_MIN:g}"
            )
        low[:, j, j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            acc = a[:, i, j]
            if j:
                acc = acc - np.sum(low[:, i, :j] * np.conj(low[:, j, :j]), axis=-1)
            low[:, i, j] = acc / low[:, j, j]
    return low


def eig_pair_batch(omega: np.ndarray, chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched pencil eigendata: eigenvalues (descending) and transforms W.

    With omega = L L^H, the whitened matrix M = L^-1 chi L^-H has the pencil
    eigenvalues; eigh gives M = V diag(lambdas) V^H and W = L^-H V.
    """
    omega = np.asarray(omega, dtype=complex)
    chi = np.asarray(chi, dtype=complex)
    if omega.shape != chi.shape:
        raise DimensionMismatch(
            f"omega shape {omega.shape} != chi shape {chi.shape}"
        )
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(chi))):
        raise DimensionMismatch("omega and chi entries must be finite")
    low_inv = np.linalg.inv(cholesky_batch(omega))
    low_inv_h = np.conj(np.swapaxes(low_inv, -1, -2))
    vals, vecs = np.linalg.eigh(symmetrize(low_inv @ chi @ low_inv_h))
    return vals[:, ::-1], low_inv_h @ vecs[:, :, ::-1]


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------


def eig_pair(omega, chi) -> EigenSystem:
    """Eigenvalues of omega^-1 chi with the omega-orthonormal transform.

    omega must be Hermitian positive-definite (Cholesky pivots > 1e-12),
    chi Hermitian of the same dimension.  Eigenvalues are real and sorted
    descending; the returned transform W satisfies W^H omega W = Id and
    W^H chi W = diag(lambdas).
    """
    omega = as_hermitian(omega)
    chi = as_hermitian(chi, n=omega.shape[0])
    vals, w = eig_pair_batch(omega[None], chi[None])
    return EigenSystem(lambdas=vals[0], transform=w[0])


def theta_arctan(lambdas) -> float:
    """Phase angle sum(arctan(lambda_i)), valued in (-n pi/2, n pi/2)."""
    lam = np.asarray(lambdas, dtype=float)
    return float(np.sum(np.arctan(lam)))


def lagrangian_angle_det(omega, chi) -> float:
    """Phase angle computed through the complex determinant det(Id + i Lambda).

    The determinant fixes the angle only modulo 2 pi; the branch is pinned by
    the eigenvalue sum (zero at Lambda = 0, continuous in Lambda), so the
    result agrees with theta_arctan(eig_pair(omega, chi).lambdas) exactly
    rather than only up to winding.
    """
    omega = as_hermitian(omega)
    chi = as_hermitian(chi, n=omega.shape[0])
    n = omega.shape[0]
    lam_mat = np.linalg.solve(omega, chi)
    det = complex(np.linalg.det(np.eye(n) + 1j * lam_mat))
    es = eig_pair(omega, chi)
    theta = theta_arctan(es.lambdas)
    winding = np.round((theta - np.angle(det)) / (2.0 * np.pi))
    return float(np.angle(det) + 2.0 * np.pi * winding)


def dF(system: EigenSystem) -> np.ndarray:
    """Derivative kernel of the phase, assembled in the original frame.

    Returns W diag(1/(1+lambda_i^2)) W^H, which is Hermitian positive-definite
    and equals (Id + Lambda^2)^-1 when the pencil metric is the identity.  In
    general it is the inverse of omega + chi omega^-1 chi, the coefficient
    matrix of the linearized operator.
    """
    f = 1.0 / (1.0 + system.lambdas**2)
    w = system.transform
    return symmetrize(np.einsum("ik,k,jk->ij", w, f, np.conj(w)))


def eigenvalue_derivatives(lam_diag) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of eigenvalues at a diagonal matrix.

    Input must be diagonal with pairwise eigenvalue gaps of at least 1e-6.
    first[i, p, q] = delta_{pi} delta_{qi}; second[i, p, q, r, s] carries the
    usual 1/(lambda_i - lambda_p) resolvent weights.
    """
    lam = _distinct_diagonal(lam_diag)
    n = lam.shape[0]

    first = np.zeros((n, n, n))
    for i in range(n):
        first[i, i, i] = 1.0

    second = np.zeros((n, n, n, n, n))
    for i in range(n):
        for p in range(n):
            if p == i:
                continue
            inv_gap = 1.0 / (lam[i] - lam[p])
            # term delta_{iq} delta_{ir} delta_{ps} / (lambda_i - lambda_p)
            second[i, p, i, i, p] += inv_gap
            # term delta_{is} delta_{ip}... with r in the off-diagonal slot
            second[i, i, p, p, i] += inv_gap
    return first, second


def _distinct_diagonal(lam_diag) -> np.ndarray:
    """Real diagonal of a diagonal Hermitian matrix with pairwise gaps >= 1e-6."""
    lam_diag = as_hermitian(lam_diag)
    offdiag = lam_diag - np.diag(np.diagonal(lam_diag))
    if np.max(np.abs(offdiag)) > 1e-12:
        raise DimensionMismatch("input must be a diagonal matrix")
    lam = np.diagonal(lam_diag).real
    n = lam.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(lam[i] - lam[j]) < DISTINCT_GAP_MIN:
                raise DegenerateSpectrum(
                    f"eigenvalue gap |{lam[i]:.6g} - {lam[j]:.6g}| below "
                    f"{DISTINCT_GAP_MIN:g}"
                )
    return lam


def _f_arctan(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    fi = 1.0 / (1.0 + lam**2)
    fij = np.diag(-2.0 * lam / (1.0 + lam**2) ** 2)
    return fi, fij


def _f_logmax(lam: np.ndarray, c_eps: float) -> tuple[np.ndarray, np.ndarray]:
    # lam sorted descending, so lam[0] is the max; c_eps keeps the log finite
    n = lam.shape[0]
    fi = np.zeros(n)
    fi[0] = 1.0 / (c_eps + lam[0])
    fij = np.zeros((n, n))
    fij[0, 0] = -1.0 / (c_eps + lam[0]) ** 2
    return fi, fij


def spectral_function_derivatives(
    f_id: str, lam_diag, c_eps: float | None = None
) -> SpectralDerivatives:
    """Derivative tensors of a spectral function at a diagonal matrix.

    f_id selects the eigenvalue function: "arctan_sum" is
    sum(arctan(lambda_i)); "log_max" is log(c_eps + lambda_max) and requires
    c_eps > 0.  The diagonal input needs distinct eigenvalues; the second
    tensor carries the divided differences (f_i - f_j)/(lambda_i - lambda_j)
    on the off-diagonal pair slots.
    """
    lam = _distinct_diagonal(lam_diag)
    n = lam.shape[0]
    order = np.argsort(-lam)
    if f_id == "arctan_sum":
        fi, fij = _f_arctan(lam)
    elif f_id == "log_max":
        if c_eps is None or c_eps <= 0.0:
            raise BadIndex("log_max requires c_eps > 0")
        fi_s, fij_s = _f_logmax(lam[order], float(c_eps))
        fi = np.empty(n)
        fi[order] = fi_s
        fij = np.empty((n, n))
        fij[np.ix_(order, order)] = fij_s
    else:
        raise BadIndex(f"unknown spectral function {f_id!r}")

    first = np.diag(fi).astype(complex)
    second = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for r in range(n):
            second[i, i, r, r] += fij[i, r]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            second[i, j, j, i] += (fi[i] - fi[j]) / (lam[i] - lam[j])
    return SpectralDerivatives(first=first, second=second)
