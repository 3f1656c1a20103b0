"""Periodic spectral calculus on flat complex tori.

A torus of complex dimension n (1 or 2) is discretized with N points per
real axis and period 2 pi, using real coordinates ordered (x1, y1, x2, y2)
and complex coordinates z_j = x_j + i y_j.  Scalar fields are real arrays on
the grid.  A Hermitian-form field is held only as its n^2 real planes: a_jj
for each j, then Re a_jk and Im a_jk for each j < k; a form equal at every
point collapses to one point, which broadcasts.  Its (..., n, n) values
are materialized on demand, for file output and the eigenvalue reference.

The complex Hessian operator i ddbar is realized with Fourier multipliers
on the half spectrum of real-to-complex transforms (fftn/ifftn below are the
rfftn/irfftn pair; ifftn consumes the spectrum it is given, which it
transforms in place).  One forward transform of a real field u gives its
n^2 real Hessian planes, in the plane order above; each plane is the
inverse transform of a real, even symbol times the half spectrum.  The
symbols are products of per-axis wavenumber vectors, which are cached.  The
solver's preconditioned operator feeds the planes a half spectrum divided by
the quarter-Laplacian symbol (_inverse_laplacian_spectrum), at no extra
transform.

The phase, its linearization kernel and the averaged angle all derive from
the pointwise complex form omega + i chi: the phase sum(arctan(lambda_i)) is
Arg det(omega + i chi), the kernel (omega + chi omega^-1 chi)^-1 is the
Hermitian part of (omega + i chi)^-1, and the averaged angle integrates the
density det(omega + i chi) with an explicit branch lift.  All three come in
closed form from the planes of omega and chi (_det_planes, _phase_planes,
_kernel_weights), for the public functions and the solver alike.  The
kernel's weight planes pair with the Hessian planes, so the matvec
tr(K i ddbar v) never builds a complex Hessian either.  The public
functions bound every form entry by FORM_ENTRY_MAX first, and the solver
bounds its problem's, so the closed forms cannot overflow.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .errors import BadRange, ConfigError, DimensionMismatch, NotPositiveDefinite
from .hermitian import CHOLESKY_PIVOT_MIN, eig_pair_batch, symmetrize

TWO_PI = 2.0 * np.pi
# Largest |entry| of a form or a potential (u_star, u0) that is accepted.  At
# n=2, |det|^2 in the kernel weights is quartic in the form entries and
# overflows near 1e77; the bound leaves chi0 + i ddbar u room.
FORM_ENTRY_MAX = 1e64


def _fft_workers() -> int:
    """Transform thread count on grids of 2^18 points or more (n=2 from
    N=32); DHYM_THREADS caps it (0 or unset = auto).  Smaller grids
    transform on one thread whatever it says (_workers_for).

    This is the only reader of DHYM_THREADS; a value that is not an
    integer >= 0 raises ConfigError.  The transform result is bit-identical
    for any worker count; this only controls parallel width.
    """
    raw = os.environ.get("DHYM_THREADS", "0")
    try:
        width = int(raw)
    except ValueError:
        raise ConfigError(f"DHYM_THREADS={raw!r} is not an integer") from None
    if width < 0:
        raise ConfigError(f"DHYM_THREADS={raw!r} is negative")
    return width or min(4, os.cpu_count() or 1)


# Grids below this many points (every n=1 grid, n=2 up to N=16) transform on
# one thread: a second one costs more to start than it saves there.
_SERIAL_POINTS = 2**18


def _workers_for(shape: tuple[int, ...]) -> int:
    """Worker count for a transform on a grid of this shape; reads
    DHYM_THREADS on every call, so a malformed value is refused anywhere."""
    workers = _fft_workers()
    return 1 if math.prod(shape) < _SERIAL_POINTS else workers


def fftn(values: np.ndarray) -> np.ndarray:
    """Half spectrum of a real field (last axis N // 2 + 1 long)."""
    return _fft.rfftn(values, workers=_workers_for(values.shape))


def ifftn(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real field of the given grid shape from its half spectrum, which is
    consumed: the full axes are transformed in place, then the half axis
    into the one real output.  Bit-identical to scipy's irfftn, which copies
    the whole spectrum first."""
    workers = _workers_for(shape)
    full_axes = tuple(range(values.ndim - 1))
    values = _fft.ifftn(values, axes=full_axes, overwrite_x=True, workers=workers)
    return _fft.irfft(values, n=shape[-1], axis=-1, workers=workers)


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


# (j, k, part) of each form plane in plane order, part 0 for Re and 1 for Im:
# a_jj for each j, then Re a_jk and Im a_jk for each j < k (see _hessian_planes)
_PLANE_ENTRIES = {1: ((0, 0, 0),), 2: ((0, 0, 0), (1, 1, 0), (0, 1, 0), (0, 1, 1))}


def _collapsed(planes: np.ndarray, n: int) -> np.ndarray:
    """The first point of planes (grid axes last), shape (..., 1, ..., 1), if
    every point holds its bits; else planes.  The far corner is compared
    first, so a varying field is told apart without the full compare."""
    first = planes[(Ellipsis,) + (slice(0, 1),) * (2 * n)]
    corner = planes[(Ellipsis,) + (slice(-1, None),) * (2 * n)]
    first_bits = first.view(np.uint64)
    if np.array_equal(corner.view(np.uint64), first_bits) and np.all(
        planes.view(np.uint64) == first_bits
    ):
        return first.copy()
    return planes


class HermitianFormField:
    """Field of n x n Hermitian matrices over a torus grid, held as n^2 real planes.

    planes has shape (n^2,) + grid.shape, in plane order: a_jj for each j,
    then Re a_jk and Im a_jk for each j < k (see _hessian_planes).  A form
    whose planes hold the same bits at every point is collapsed to shape
    (n^2,) + (1,) * 2n, which broadcasts against full planes; equal bits,
    not equal values, so that values (and a file written from them) keep
    every signed zero.

    The constructor takes (..., n, n) values, checks them finite and
    symmetrizes them.  With _symmetrized=True the caller asserts that the
    values are Hermitian: nothing is checked, and only the real part of the
    diagonal and the upper triangle are read.  values materializes the
    (..., n, n) array on demand; for a collapsed form it is a read-only
    broadcast view.
    """

    def __init__(self, grid: TorusGrid, values, _symmetrized: bool = False):
        n = grid.n
        want = grid.shape + (n, n)
        values = np.asarray(values, dtype=complex)
        if values.shape != want:
            raise DimensionMismatch(f"form field shape {values.shape} != expected {want}")
        if not _symmetrized:
            if not np.all(np.isfinite(values)):
                raise DimensionMismatch("form field values must be finite")
            values = symmetrize(values)
        self.grid = grid
        self.planes = _collapsed(_planes_of(values, n), n)

    @classmethod
    def _of_planes(cls, grid: TorusGrid, planes: np.ndarray) -> HermitianFormField:
        """The form with these planes (full or collapsed), collapsed if constant."""
        form = cls.__new__(cls)
        form.grid = grid
        form.planes = _collapsed(planes, grid.n)
        return form

    @property
    def values(self) -> np.ndarray:
        """(..., n, n) values: Re and Im written through a float view, the
        diagonal's imaginary part +0.0 and each lower entry conj(upper)."""
        n = self.grid.n
        shape = self.planes.shape[1:]
        out = np.zeros(shape + (n, n), dtype=complex)
        parts = out.view(float).reshape(shape + (n, n, 2))
        for plane, (j, k, part) in zip(self.planes, _PLANE_ENTRIES[n]):
            parts[..., j, k, part] = plane
            if j != k:
                parts[..., k, j, part] = -plane if part else plane
        if shape != self.grid.shape:
            return np.broadcast_to(out, self.grid.shape + (n, n))
        return out

    def __add__(self, other: HermitianFormField) -> HermitianFormField:
        if not isinstance(other, HermitianFormField):
            return NotImplemented
        if other.grid != self.grid:
            raise DimensionMismatch("form fields live on different grids")
        return HermitianFormField._of_planes(self.grid, self.planes + other.planes)


def _planes_of(values: np.ndarray, n: int) -> np.ndarray:
    """The n^2 real planes of Hermitian (..., n, n) values, in plane order."""
    real, imag = values.real, values.imag
    return np.stack([(imag if part else real)[..., j, k] for j, k, part in _PLANE_ENTRIES[n]])


def constant_form_field(grid: TorusGrid, matrix) -> HermitianFormField:
    """Spatially constant Hermitian-form field, held as one point."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (grid.n, grid.n):
        raise DimensionMismatch(f"matrix shape {m.shape} != ({grid.n}, {grid.n})")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatch("form matrix entries must be finite")
    point = symmetrize(m).reshape((1,) * (2 * grid.n) + m.shape)
    return HermitianFormField._of_planes(grid, _planes_of(point, grid.n))


def isotropic_form_field(grid: TorusGrid, scale: ScalarField) -> HermitianFormField:
    """Field s(x) * Id for a scalar field s; one point if s is constant."""
    s = _collapsed(scale.values, grid.n)
    planes = np.zeros((grid.n ** 2,) + s.shape)
    planes[: grid.n] = s
    return HermitianFormField._of_planes(grid, planes)


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


def _hessian_planes(uhat: np.ndarray, grid: TorusGrid):
    """Yield the n^2 real Hessian planes of a real field from its half
    spectrum uhat, in plane order.

    The planes are u_{j jbar} for each j, then Re u_{j kbar} and
    Im u_{j kbar} for each j < k, where u_{j kbar} is
    (1/4)(d_{x_j} d_{x_k} + d_{y_j} d_{y_k}) u
    + (i/4)(d_{x_j} d_{y_k} - d_{y_j} d_{x_k}) u.  The caller's one forward
    transform feeds every plane.  Off-diagonal symbols are products of
    first-derivative symbols (i k_a)(i k_b) whose Nyquist mode is zeroed, so
    every symbol is real and even and every plane is real.
    """
    N, n = grid.N, grid.n
    for j in range(n):
        yield ifftn(_diagonal_symbol(grid, j) * uhat, grid.shape)
    for j in range(n):
        for k in range(j + 1, n):
            kxj, kyj, kxk, kyk = (
                _wavenumbers(N, n, a, False) for a in (2 * j, 2 * j + 1, 2 * k, 2 * k + 1)
            )
            yield ifftn(-0.25 * (kxj * kxk + kyj * kyk) * uhat, grid.shape)
            yield ifftn(-0.25 * (kxj * kyk - kyj * kxk) * uhat, grid.shape)


def _plus_hessian(base: np.ndarray, u_values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Planes of base + i ddbar u, for form planes base (full or collapsed):
    one forward and n^2 inverse transforms."""
    out = np.empty((grid.n ** 2,) + grid.shape)
    for base_plane, hess, plane in zip(base, _hessian_planes(fftn(u_values), grid), out):
        np.add(base_plane, hess, out=plane)
    return out


def i_ddbar(u: ScalarField) -> HermitianFormField:
    """Complex Hessian u_{j kbar} of a scalar potential, spectrally: the form
    whose planes are the Hessian planes (_hessian_planes)."""
    zero = np.zeros((u.grid.n ** 2,) + (1,) * (2 * u.grid.n))
    return HermitianFormField._of_planes(u.grid, _plus_hessian(zero, u.values, u.grid))


def _inverse_laplacian_spectrum(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Half spectrum of the mean-zero solution v of (1/4) Delta v = values:
    the forward transform divided by the (1/4) Delta symbol, the sum of the
    diagonal Hessian symbols, with the zero mode (where it vanishes) cleared."""
    diagonal = [_diagonal_symbol(grid, j) for j in range(grid.n)]
    mult = sum(diagonal[1:], diagonal[0])
    flat_zero = (0,) * (2 * grid.n)
    mult[flat_zero] = 1.0
    fhat = fftn(values)
    fhat /= mult
    fhat[flat_zero] = 0.0
    return fhat


def inverse_laplacian_quarter(rhs: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Mean-zero solution of (1/4) Delta v = rhs (mean of rhs discarded)."""
    return ifftn(_inverse_laplacian_spectrum(rhs, grid), grid.shape)


# ---------------------------------------------------------------------------
# pointwise pencil algebra, batched over the grid
# ---------------------------------------------------------------------------


def _check_metric_positive(w: np.ndarray, n: int) -> None:
    """Raise NotPositiveDefinite at the first point of omega's planes w where
    a Cholesky pivot is not a finite value above CHOLESKY_PIVOT_MIN: w00, then
    at n=2 w11 - (wr^2 + wi^2) / w00.  A collapsed omega is one point."""
    p = w[0]
    bad = ~(np.isfinite(p) & (p > CHOLESKY_PIVOT_MIN))
    if n == 2:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d2 = w[1] - (w[2] * w[2] + w[3] * w[3]) / p
        bad |= ~(np.isfinite(d2) & (d2 > CHOLESKY_PIVOT_MIN))
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise NotPositiveDefinite(f"metric not positive-definite at grid index {idx}")


def _check_bounded(**fields: np.ndarray) -> None:
    """Raise BadRange, naming the field, if an entry of a field's values (a
    form's planes or a potential) exceeds FORM_ENTRY_MAX in magnitude."""
    for name, values in fields.items():
        peak = max(float(values.max()), -float(values.min()))  # no |values| temporary
        if not peak <= FORM_ENTRY_MAX:
            raise BadRange(
                f"{name} has an entry of magnitude {peak:.3g}, above the supported "
                f"{FORM_ENTRY_MAX:g}"
            )


def _pencil_planes(omega: HermitianFormField, chi: HermitianFormField):
    """The planes of omega and chi, once they share a grid, omega passes
    _check_metric_positive and their entries pass _check_bounded (on every
    call: a constant omega is one point)."""
    if chi.grid != omega.grid:
        raise DimensionMismatch("omega and chi live on different grids")
    _check_metric_positive(omega.planes, omega.grid.n)
    _check_bounded(omega=omega.planes, chi=chi.planes)
    return omega.planes, chi.planes


def pencil_eigenvalues(omega: HermitianFormField, chi: HermitianFormField):
    """Pointwise eigenvalues of the pencil (omega, chi), descending.

    One hermitian.eig_pair_batch call over the flattened grid.  Returns an
    array of shape grid.shape + (n,).
    """
    grid = omega.grid
    _pencil_planes(omega, chi)
    flat = (-1, grid.n, grid.n)
    vals, _ = eig_pair_batch(omega.values.reshape(flat), chi.values.reshape(flat))
    return vals.reshape(grid.shape + (grid.n,))


def _det_planes(w: np.ndarray, c: np.ndarray, n: int):
    """Re and Im of det(omega + i chi) from the planes w of omega and c of chi.

    n=1: w00 + i c00.  n=2: Re det = (w00 w11 - |w01|^2) - (c00 c11 - |c01|^2)
    and Im det = w00 c11 + c00 w11 - 2 (Re w01 Re c01 + Im w01 Im c01).
    Either argument may be collapsed (see HermitianFormField).  At n=2 the
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
    re, im = _det_planes(*_pencil_planes(omega, chi), omega.grid.n)
    return ScalarField(omega.grid, np.arctan2(im, re, out=np.empty(omega.grid.shape)))


def eta_inverse_values(
    omega: HermitianFormField, chi: HermitianFormField
) -> np.ndarray:
    """(omega + chi omega^-1 chi)^-1 pointwise, the linearization kernel.

    The Hermitian part of (omega + i chi)^-1: by Jacobi's formula the phase
    derivative along a Hermitian h is Re tr((omega + i chi)^-1 h).  These
    are the values of the form whose planes are the solver's weight planes
    (_kernel_weights) with the off-diagonal ones halved; for a constant
    pair, a read-only broadcast view.
    """
    n = omega.grid.n
    planes = _kernel_weights(*_pencil_planes(omega, chi), n)
    planes[n:] *= 0.5
    return HermitianFormField._of_planes(omega.grid, planes).values


def hat_theta(omega: HermitianFormField, chi: HermitianFormField) -> AngleResult:
    """Averaged angle Arg of the complex volume integral of (omega + i chi)^n.

    Integrates the density det(omega + i chi), whose pointwise argument is
    the phase field Theta (see theta_field), then lifts the principal
    argument of the integral to the branch containing the mean of Theta, so
    values are not confined to (-pi, pi].
    """
    grid = omega.grid
    planes = _pencil_planes(omega, chi)
    # a collapsed density stands for every grid point: sum its broadcast
    re, im = (np.broadcast_to(a, grid.shape) for a in _det_planes(*planes, grid.n))
    theta = np.arctan2(im, re)
    z = complex(re.sum(), im.sum()) * grid.cell_volume
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
