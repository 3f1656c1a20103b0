"""Periodic spectral calculus on flat complex tori.

A torus of complex dimension n (1 or 2) is discretized with N points per
real axis and period 2 pi, using real coordinates ordered (x1, y1, x2, y2)
and complex coordinates z_j = x_j + i y_j.  Scalar fields are real arrays on
the grid; Hermitian-form fields carry an n x n Hermitian matrix per point.

The complex Hessian operator i ddbar is realized with Fourier multipliers
on the half spectrum of real-to-complex transforms (fftn/ifftn below are the
rfftn/irfftn pair).  One forward transform of a real field u gives its n^2
real Hessian planes: u_{j jbar} for each j, then Re u_{j kbar} and
Im u_{j kbar} for each j < k; each plane is the inverse transform of a real,
even symbol times the half spectrum.  The symbols are products of per-axis
wavenumber vectors, which are cached.

The phase, its linearization kernel and the averaged angle all derive from
the pointwise complex form omega + i chi: the phase sum(arctan(lambda_i)) is
Arg det(omega + i chi), the kernel (omega + chi omega^-1 chi)^-1 is the
Hermitian part of (omega + i chi)^-1, and the averaged angle integrates the
density det(omega + i chi) with an explicit branch lift.  The public
functions take HermitianFormField pairs.  The solver instead carries every
form as its n^2 real planes, in the plane order of the Hessian planes
(_form_planes; a spatially constant form collapses to one point), and takes
the determinant, the phase and the kernel weight planes in closed form from
them (_det_planes, _phase_planes, _kernel_weights), so no (..., n, n)
complex array is built on its path.  The kernel's weight planes pair with
the Hessian planes, so the matvec tr(K i ddbar v) never builds a complex
Hessian either.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as _fft

from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite
from .hermitian import CHOLESKY_PIVOT_MIN, eig_pair_batch, symmetrize

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
    """Half spectrum of a real field (last axis N // 2 + 1 long)."""
    return _fft.rfftn(values, workers=_fft_workers())


def ifftn(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real field of the given grid shape from its half spectrum."""
    return _fft.irfftn(values, s=shape, workers=_fft_workers())


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

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(f"{c}{j + 1}" for j in range(self.n) for c in ("x", "y"))

    def axis_coordinate(self, name: str) -> np.ndarray:
        """Coordinate array broadcast to the grid shape; name in axis_names."""
        if name not in self.axis_names:
            raise DimensionMismatch(f"unknown axis {name!r}, have {list(self.axis_names)}")
        axis = self.axis_names.index(name)
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


@functools.lru_cache(maxsize=None)
def _wavenumbers(N: int, n: int, axis: int, keep_nyquist: bool) -> np.ndarray:
    """Integer wavenumbers of one real axis, broadcastable to the half spectrum.

    The last axis holds the non-negative rfftfreq half, the others the full
    fftfreq order.  Without keep_nyquist the Nyquist mode is zeroed, which
    makes the vector odd.  The result is cached and read-only.
    """
    last = axis == 2 * n - 1
    kv = (np.fft.rfftfreq(N) if last else np.fft.fftfreq(N)) * N
    if not keep_nyquist:
        kv[N // 2] = 0.0
    shape = [1] * (2 * n)
    shape[axis] = kv.size
    kv = kv.reshape(shape)
    kv.flags.writeable = False
    return kv


def _diagonal_symbol(grid: TorusGrid, j: int) -> np.ndarray:
    """Symbol -(kx_j^2 + ky_j^2)/4 of u_{j jbar}; keeps the Nyquist mode of
    the pure second derivatives."""
    kx, ky = (_wavenumbers(grid.N, grid.n, a, True) for a in (2 * j, 2 * j + 1))
    return -0.25 * (kx**2 + ky**2)


def _hessian_planes(values: np.ndarray, grid: TorusGrid, preconditioned: bool = False):
    """Yield the n^2 real Hessian planes of a real field, in plane order.

    The planes are u_{j jbar} for each j, then Re u_{j kbar} and
    Im u_{j kbar} for each j < k, where u_{j kbar} is
    (1/4)(d_{x_j} d_{x_k} + d_{y_j} d_{y_k}) u
    + (i/4)(d_{x_j} d_{y_k} - d_{y_j} d_{x_k}) u.  One forward transform
    feeds every plane.  Off-diagonal symbols are products of
    first-derivative symbols (i k_a)(i k_b) whose Nyquist mode is zeroed, so
    every symbol is real and even and every plane is real.

    With preconditioned, the planes are those of
    inverse_laplacian_quarter(values): the half spectrum is divided by the
    quarter-Laplacian symbol before the plane symbols apply, at no extra
    transform.
    """
    N, n = grid.N, grid.n
    uhat = fftn(values)
    if preconditioned:
        _divide_laplacian_quarter(uhat, grid)
    for j in range(n):
        yield ifftn(_diagonal_symbol(grid, j) * uhat, grid.shape)
    for j in range(n):
        for k in range(j + 1, n):
            kxj, kyj, kxk, kyk = (
                _wavenumbers(N, n, a, False) for a in (2 * j, 2 * j + 1, 2 * k, 2 * k + 1)
            )
            yield ifftn(-0.25 * (kxj * kxk + kyj * kyk) * uhat, grid.shape)
            yield ifftn(-0.25 * (kxj * kyk - kyj * kxk) * uhat, grid.shape)


def _from_planes(planes, grid: TorusGrid) -> np.ndarray:
    """(..., n, n) Hermitian values from n^2 real planes in plane order
    (a_jj for each j, then Re a_jk and Im a_jk for each j < k)."""
    n = grid.n
    planes = iter(planes)
    values = np.empty(grid.shape + (n, n), dtype=complex)
    for j in range(n):
        values[..., j, j] = next(planes)
    for j in range(n):
        for k in range(j + 1, n):
            entry = next(planes) + 1j * next(planes)
            values[..., j, k] = entry
            values[..., k, j] = np.conj(entry)
    return values


def i_ddbar(u: ScalarField) -> HermitianFormField:
    """Complex Hessian u_{j kbar} of a scalar potential, spectrally.

    Assembled from the real Hessian planes (_hessian_planes); the output is
    Hermitian per point by construction.
    """
    values = _from_planes(_hessian_planes(u.values, u.grid), u.grid)
    return HermitianFormField(u.grid, values, _symmetrized=True)


def _laplacian_quarter_symbol(grid: TorusGrid) -> np.ndarray:
    """Symbol of (1/4) Delta on the half spectrum: the sum of the diagonal
    Hessian symbols.  The result is a new array."""
    diagonal = [_diagonal_symbol(grid, j) for j in range(grid.n)]
    return sum(diagonal[1:], diagonal[0])


def laplacian_quarter(u_values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """(1/4) Delta u over all 2n real axes, spectrally."""
    return ifftn(_laplacian_quarter_symbol(grid) * fftn(u_values), grid.shape)


def _divide_laplacian_quarter(fhat: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Divide a half spectrum in place by the (1/4) Delta symbol and clear
    its zero mode, the one mode where the symbol vanishes."""
    mult = _laplacian_quarter_symbol(grid)
    flat_zero = (0,) * (2 * grid.n)
    mult[flat_zero] = 1.0
    fhat /= mult
    fhat[flat_zero] = 0.0
    return fhat


def inverse_laplacian_quarter(rhs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean-zero solution of (1/4) Delta v = rhs (mean of rhs discarded)."""
    return ifftn(_divide_laplacian_quarter(fftn(rhs), grid), grid.shape)


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
    """omega + i chi pointwise.

    omega is not checked here: the public functions below check it on every
    call.  The solver does not use it; it works on planes (_form_planes).
    """
    if chi.grid != omega.grid:
        raise DimensionMismatch("omega and chi live on different grids")
    return omega.values + 1j * chi.values


def pencil_eigenvalues(omega: HermitianFormField, chi: HermitianFormField):
    """Pointwise eigenvalues of the pencil (omega, chi), descending.

    One hermitian.eig_pair_batch call over the flattened grid.  Returns an
    array of shape grid.shape + (n,).
    """
    grid = omega.grid
    if chi.grid != grid:
        raise DimensionMismatch("omega and chi live on different grids")
    _check_metric_positive(omega.values, grid.n)
    flat = (-1, grid.n, grid.n)
    vals, _ = eig_pair_batch(omega.values.reshape(flat), chi.values.reshape(flat))
    return vals.reshape(grid.shape + (grid.n,))


def _det(values: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return values[..., 0, 0]
    return (
        values[..., 0, 0] * values[..., 1, 1]
        - values[..., 0, 1] * values[..., 1, 0]
    )


def _density(omega: HermitianFormField, chi: HermitianFormField) -> np.ndarray:
    """det(omega + i chi) pointwise, omega unchecked (see _complex_form)."""
    return _det(_complex_form(omega, chi), omega.grid.n)


def _form_planes(form: HermitianFormField) -> np.ndarray:
    """The n^2 real planes of a form field in plane order, shape (n^2,) + grid.

    The planes are a_jj for each j, then Re a_jk and Im a_jk for each
    j < k (see _hessian_planes).  A form whose values are equal at every
    grid point collapses to shape (n^2,) + (1,) * 2n, which broadcasts
    against full planes; equality of values decides, not the strides, so a
    constant form stored as a full array collapses too.
    """
    n = form.grid.n
    values = form.values
    first = values[(0,) * (2 * n)]
    if np.all(values == first):
        values = first.reshape((1,) * (2 * n) + (n, n))
    planes = [values[..., j, j].real for j in range(n)]
    for j in range(n):
        for k in range(j + 1, n):
            planes += [values[..., j, k].real, values[..., j, k].imag]
    return np.stack(planes)


def _det_planes(w: np.ndarray, c: np.ndarray, n: int):
    """Re and Im of det(omega + i chi) from the planes w of omega and c of chi.

    n=1: w00 + i c00.  n=2: Re det = (w00 w11 - |w01|^2) - (c00 c11 - |c01|^2)
    and Im det = w00 c11 + c00 w11 - 2 (Re w01 Re c01 + Im w01 Im c01).
    Either argument may be collapsed (see _form_planes).  At n=2 the
    results are new arrays of the broadcast shape; at n=1 they are the
    argument planes themselves, so callers must not write to them.
    """
    if n == 1:
        return w[0], c[0]
    w00, w11, wr, wi = w
    c00, c11, cr, ci = c
    shape = np.broadcast_shapes(w.shape[1:], c.shape[1:])
    re, im = np.empty(shape), np.empty(shape)
    np.multiply(c00, c11, out=re)
    re -= cr * cr
    re -= ci * ci
    np.subtract(w00 * w11 - wr * wr - wi * wi, re, out=re)
    np.multiply(w00, c11, out=im)
    im += c00 * w11
    cross = wr * cr
    cross += wi * ci
    cross *= 2.0
    im -= cross
    return re, im


def _phase_planes(w: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Pointwise phase Arg det(omega + i chi) from planes (see theta_field)."""
    re, im = _det_planes(w, c, n)
    return np.arctan2(im, re)


# (complementary plane q, sign s) of each kernel weight plane at n=2
_KERNEL_PAIRS = ((1, 1.0), (0, 1.0), (2, -2.0), (3, -2.0))


def _kernel_weights(w: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Weight planes of the Hermitian part K of A = (omega + i chi)^-1.

    w and c are the planes of omega and chi (either may be collapsed); the
    result has shape (n^2,) + their broadcast shape.  The planes are K_jj
    for each j, then 2 Re K_jk and 2 Im K_jk for each j < k, so that tr(K H)
    is the sum of the planes times the planes of a Hermitian H (see
    _hessian_planes).  With A = adj(omega + i chi) / det, plane p is
    s_p (w_q Re det + c_q Im det) / |det|^2 for (q, s_p) in _KERNEL_PAIRS;
    at n=1 it is Re det / |det|^2.
    """
    re, im = _det_planes(w, c, n)
    if n == 1:
        return (re / (re * re + im * im))[None]
    scale = re * re
    scale += im * im
    re /= scale
    im /= scale
    del scale
    out = np.empty((4,) + re.shape)
    for plane, (q, sign) in zip(out, _KERNEL_PAIRS):
        np.multiply(w[q], re, out=plane)
        plane += c[q] * im
        plane *= sign
    return out


def theta_field(omega: HermitianFormField, chi: HermitianFormField) -> ScalarField:
    """Pointwise phase sum(arctan(lambda_i)) of the pencil (omega, chi), as
    Arg det(omega + i chi); det omega > 0 and n <= 2 keep it in (-pi, pi)."""
    _check_metric_positive(omega.values, omega.grid.n)
    return ScalarField(omega.grid, np.angle(_density(omega, chi)))


def eta_inverse_values(
    omega: HermitianFormField, chi: HermitianFormField
) -> np.ndarray:
    """(omega + chi omega^-1 chi)^-1 pointwise, the linearization kernel.

    The Hermitian part of (omega + i chi)^-1: by Jacobi's formula the phase
    derivative along a Hermitian h is Re tr((omega + i chi)^-1 h).  It is
    assembled from the solver's weight planes (_kernel_weights).
    """
    n = omega.grid.n
    if chi.grid != omega.grid:
        raise DimensionMismatch("omega and chi live on different grids")
    _check_metric_positive(omega.values, n)
    planes = _kernel_weights(_form_planes(omega), _form_planes(chi), n)
    planes[n:] *= 0.5
    return _from_planes(planes, omega.grid)


def hat_theta(omega: HermitianFormField, chi: HermitianFormField) -> AngleResult:
    """Averaged angle Arg of the complex volume integral of (omega + i chi)^n.

    Integrates the density det(omega + i chi), whose pointwise argument is
    the phase field Theta (see theta_field), then lifts the principal
    argument of the integral to the branch containing the mean of Theta, so
    values are not confined to (-pi, pi].
    """
    grid = omega.grid
    _check_metric_positive(omega.values, grid.n)
    density = _density(omega, chi)
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
