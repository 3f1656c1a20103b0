"""Periodic spectral calculus on flat complex tori.

A torus of complex dimension n (1 or 2) is discretized with N points per
real axis and period 2 pi, using real coordinates ordered (x1, y1, x2, y2)
and complex coordinates z_j = x_j + i y_j.  Scalar fields are real arrays on
the grid; Hermitian-form fields carry an n x n Hermitian matrix per point.

The complex Hessian operator i ddbar is realized with Fourier multipliers.
The phase, its linearization kernel and the averaged angle all derive from
the pointwise complex form omega + i chi: the phase sum(arctan(lambda_i)) is
Arg det(omega + i chi), the kernel (omega + chi omega^-1 chi)^-1 is the
Hermitian part of (omega + i chi)^-1, and the averaged angle integrates the
density det(omega + i chi) with an explicit branch lift.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft

from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite
from .hermitian import CHOLESKY_PIVOT_MIN, symmetrize

TWO_PI = 2.0 * np.pi


def _fft_workers() -> int:
    """Transform thread count; DHYM_THREADS caps it (0 or unset = auto).

    This is the only reader of DHYM_THREADS; a non-integer value raises
    ConfigError.  The transform result is bit-identical for any worker
    count; this only controls parallel width.
    """
    raw = os.environ.get("DHYM_THREADS", "0")
    try:
        width = int(raw)
    except ValueError:
        raise ConfigError(f"DHYM_THREADS={raw!r} is not an integer") from None
    if width <= 0:
        return min(4, os.cpu_count() or 1)
    return width


def fftn(values: np.ndarray) -> np.ndarray:
    return _fft.fftn(values, workers=_fft_workers())


def ifftn(values: np.ndarray) -> np.ndarray:
    return _fft.ifftn(values, workers=_fft_workers())


@dataclass(frozen=True)
class TorusGrid:
    """Flat torus discretization: n complex dims, N points per real axis."""

    n: int
    N: int

    def __post_init__(self):
        if self.n not in (1, 2):
            raise DimensionMismatch(f"complex dimension {self.n} not in {{1, 2}}")
        if not (8 <= self.N <= 64) or self.N & (self.N - 1):
            raise DimensionMismatch(f"N={self.N} must be a power of two in [8, 64]")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * (2 * self.n)

    @property
    def num_points(self) -> int:
        return self.N ** (2 * self.n)

    @property
    def cell_volume(self) -> float:
        return (TWO_PI / self.N) ** (2 * self.n)

    def axis_coordinate(self, name: str) -> np.ndarray:
        """Coordinate array broadcast to the grid shape; name in x1,y1,x2,y2."""
        names = [f"{c}{j + 1}" for j in range(self.n) for c in ("x", "y")]
        if name not in names:
            raise DimensionMismatch(f"unknown axis {name!r}, have {names}")
        axis = names.index(name)
        coords = np.arange(self.N) * (TWO_PI / self.N)
        shape = [1] * (2 * self.n)
        shape[axis] = self.N
        return np.broadcast_to(coords.reshape(shape), self.shape)


@dataclass
class ScalarField:
    """Real-valued field over a torus grid."""

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise DimensionMismatch(
                f"field shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise DimensionMismatch("field values must be finite")

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass
class HermitianFormField:
    """Field of n x n Hermitian matrices over a torus grid.

    Values are checked finite and symmetrized unless the caller passes
    _symmetrized=True for an array that is Hermitian by construction.
    """

    grid: TorusGrid
    values: np.ndarray
    _symmetrized: bool = field(default=False, repr=False)

    def __post_init__(self):
        want = self.grid.shape + (self.grid.n, self.grid.n)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != want:
            raise DimensionMismatch(
                f"form field shape {self.values.shape} != expected {want}"
            )
        if not self._symmetrized:
            if not np.all(np.isfinite(self.values)):
                raise DimensionMismatch("form field values must be finite")
            self.values = symmetrize(self.values)


def constant_form_field(grid: TorusGrid, matrix) -> HermitianFormField:
    """Spatially constant Hermitian-form field."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (grid.n, grid.n):
        raise DimensionMismatch(f"matrix shape {m.shape} != ({grid.n}, {grid.n})")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("form matrix entries must be finite")
    m = symmetrize(m)
    vals = np.broadcast_to(m, grid.shape + m.shape).copy()
    return HermitianFormField(grid, vals, _symmetrized=True)


def isotropic_form_field(grid: TorusGrid, scale: ScalarField) -> HermitianFormField:
    """Field s(x) * Id for a scalar field s."""
    eye = np.eye(grid.n, dtype=complex)
    vals = scale.values[..., None, None] * eye
    return HermitianFormField(grid, vals, _symmetrized=True)


def identity_metric(grid: TorusGrid) -> HermitianFormField:
    return constant_form_field(grid, np.eye(grid.n))


@dataclass(frozen=True)
class AngleResult:
    """Averaged angle of the complex volume integral.

    hat_theta: lifted argument of the accumulated integral (radians);
    modulus: absolute value of the integral;
    branch_certificate: max pointwise |Theta(x) - hat_theta|, a winding guard.
    """

    hat_theta: float
    modulus: float
    branch_certificate: float


# ---------------------------------------------------------------------------
# spectral derivatives
# ---------------------------------------------------------------------------


def _hessian_symbol(grid: TorusGrid, j: int, k: int) -> np.ndarray:
    """Fourier symbol of entry (j, k) of i_ddbar, broadcastable to the grid.

    A diagonal entry is the real symbol -(kx^2 + ky^2)/4, which keeps the
    Nyquist mode of the pure second derivatives; an off-diagonal entry is
    built from products of first-derivative symbols (i k_a)(i k_b), whose
    Nyquist mode is zeroed.
    """

    def wavenumbers(axis: int) -> np.ndarray:
        kv = np.fft.fftfreq(grid.N) * grid.N
        if j != k:
            kv[grid.N // 2] = 0.0
        shape = [1] * (2 * grid.n)
        shape[axis] = grid.N
        return kv.reshape(shape)

    kxj, kyj = wavenumbers(2 * j), wavenumbers(2 * j + 1)
    if j == k:
        return -0.25 * (kxj**2 + kyj**2)
    kxk, kyk = wavenumbers(2 * k), wavenumbers(2 * k + 1)
    real_part = -0.25 * (kxj * kxk + kyj * kyk)
    imag_part = -0.25 * (kxj * kyk - kyj * kxk)
    return real_part + 1j * imag_part


def i_ddbar(u: ScalarField) -> HermitianFormField:
    """Complex Hessian u_{j kbar} of a scalar potential, spectrally.

    Entry (j, k) is (1/4)(d_{x_j} d_{x_k} + d_{y_j} d_{y_k}) u
    + (i/4)(d_{x_j} d_{y_k} - d_{y_j} d_{x_k}) u with Fourier-multiplier
    derivatives (_hessian_symbol); the output is Hermitian per point by
    construction.
    """
    grid = u.grid
    n = grid.n
    uhat = fftn(u.values)
    # entry-major layout keeps each matrix entry contiguous; the view moved
    # to (..., n, n) below is what downstream pointwise algebra slices
    out = np.empty((n, n) + grid.shape, dtype=complex)
    for j in range(n):
        out[j, j] = ifftn(_hessian_symbol(grid, j, j) * uhat).real
        for k in range(j + 1, n):
            entry = ifftn(_hessian_symbol(grid, j, k) * uhat)
            out[j, k] = entry
            out[k, j] = np.conj(entry)
    values = np.moveaxis(out, (0, 1), (-2, -1))
    return HermitianFormField(grid, values, _symmetrized=True)


def _laplacian_quarter_symbol(grid: TorusGrid) -> np.ndarray:
    """Symbol of (1/4) Delta: the sum of the diagonal Hessian symbols.

    The result is a new array of the full grid shape.
    """
    diagonal = [_hessian_symbol(grid, j, j) for j in range(grid.n)]
    return sum(diagonal[1:], diagonal[0])


def laplacian_quarter(u_values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(1/4) Delta u over all 2n real axes, spectrally."""
    return ifftn(_laplacian_quarter_symbol(grid) * fftn(u_values)).real


def inverse_laplacian_quarter(rhs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean-zero solution of (1/4) Delta v = rhs (mean of rhs discarded)."""
    fhat = fftn(rhs)
    mult = _laplacian_quarter_symbol(grid)
    flat_zero = (0,) * (2 * grid.n)
    mult[flat_zero] = 1.0
    vhat = fhat / mult
    vhat[flat_zero] = 0.0
    return ifftn(vhat).real


# ---------------------------------------------------------------------------
# pointwise pencil algebra, batched over the grid
# ---------------------------------------------------------------------------


def _check_metric_positive(omega: np.ndarray, n: int) -> None:
    """Raise NotPositiveDefinite at the first non-finite or too small pivot."""
    p = omega[..., 0, 0].real
    bad = ~(np.isfinite(p) & (p > CHOLESKY_PIVOT_MIN))
    if n == 2:
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 = omega[..., 1, 1].real - np.abs(omega[..., 0, 1]) ** 2 / p
        bad |= ~(np.isfinite(d2) & (d2 > CHOLESKY_PIVOT_MIN))
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NotPositiveDefinite(f"metric not positive-definite at grid index {idx}")


def _complex_form(omega: HermitianFormField, chi: HermitianFormField) -> np.ndarray:
    """omega + i chi pointwise, after checking omega positive-definite once."""
    if chi.grid != omega.grid:
        raise DimensionMismatch("omega and chi live on different grids")
    _check_metric_positive(omega.values, omega.grid.n)
    return omega.values + 1j * chi.values


def pencil_eigenvalues(omega: HermitianFormField, chi: HermitianFormField):
    """Pointwise eigenvalues of the pencil (omega, chi), descending.

    Closed-form Cholesky whitening per point (one Jacobi rotation suffices
    for 2 x 2).  Returns an array of shape grid.shape + (n,).
    """
    grid = omega.grid
    n = grid.n
    if chi.grid != grid:
        raise DimensionMismatch("omega and chi live on different grids")
    om, ch = omega.values, chi.values
    _check_metric_positive(om, n)
    if n == 1:
        return (ch[..., 0, 0].real / om[..., 0, 0].real)[..., None]
    x = ch[..., 0, 0].real
    y = ch[..., 0, 1]
    z = ch[..., 1, 1].real
    p = om[..., 0, 0].real
    r = om[..., 0, 1]
    q = om[..., 1, 1].real
    d2 = q - np.abs(r) ** 2 / p
    a = 1.0 / np.sqrt(p)
    c = 1.0 / np.sqrt(d2)
    b = -np.conj(r) * a * a * c  # -l21/(l11 l22) with l21 = conj(r)/sqrt(p)
    m11 = a * a * x
    m12 = a * x * np.conj(b) + a * c * y
    m22 = np.abs(b) ** 2 * x + 2.0 * c * (b * y).real + c * c * z
    half = 0.5 * (m11 + m22)
    radius = np.sqrt((0.5 * (m11 - m22)) ** 2 + np.abs(m12) ** 2)
    return np.stack([half + radius, half - radius], axis=-1)


def _det(values: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return values[..., 0, 0]
    return (
        values[..., 0, 0] * values[..., 1, 1]
        - values[..., 0, 1] * values[..., 1, 0]
    )


def _inv(values: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return 1.0 / values
    det = _det(values, n)
    out = np.empty_like(values)
    out[..., 0, 0] = values[..., 1, 1]
    out[..., 1, 1] = values[..., 0, 0]
    out[..., 0, 1] = -values[..., 0, 1]
    out[..., 1, 0] = -values[..., 1, 0]
    return out / det[..., None, None]


def theta_field(omega: HermitianFormField, chi: HermitianFormField) -> ScalarField:
    """Pointwise phase sum(arctan(lambda_i)) of the pencil (omega, chi), as
    Arg det(omega + i chi); det omega > 0 and n <= 2 keep it in (-pi, pi)."""
    density = _det(_complex_form(omega, chi), omega.grid.n)
    return ScalarField(omega.grid, np.angle(density))


def eta_inverse_values(
    omega: HermitianFormField, chi: HermitianFormField
) -> np.ndarray:
    """(omega + chi omega^-1 chi)^-1 pointwise, the linearization kernel.

    The Hermitian part of (omega + i chi)^-1: by Jacobi's formula the phase
    derivative along a Hermitian h is Re tr((omega + i chi)^-1 h).
    """
    return symmetrize(_inv(_complex_form(omega, chi), omega.grid.n))


def hat_theta(omega: HermitianFormField, chi: HermitianFormField) -> AngleResult:
    """Averaged angle Arg of the complex volume integral of (omega + i chi)^n.

    Integrates the density det(omega + i chi), whose pointwise argument is
    the phase field Theta (see theta_field), then lifts the principal
    argument of the integral to the branch containing the mean of Theta, so
    values are not confined to (-pi, pi].
    """
    grid = omega.grid
    density = _det(_complex_form(omega, chi), grid.n)
    theta = np.angle(density)
    z = np.sum(density) * grid.cell_volume
    principal = float(np.angle(z))
    center = float(theta.mean())
    winding = np.round((center - principal) / TWO_PI)
    lifted = principal + TWO_PI * winding
    certificate = float(np.max(np.abs(theta - lifted)))
    return AngleResult(
        hat_theta=float(lifted),
        modulus=float(np.abs(z)),
        branch_certificate=certificate,
    )


def integrate(f: ScalarField) -> float:
    """Rectangle-rule integral, exact for band-limited integrands."""
    return float(f.values.sum() * f.grid.cell_volume)


def mean(f: ScalarField) -> float:
    return f.mean()
