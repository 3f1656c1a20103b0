"""Supercritical-phase arithmetic and subsolution criteria.

Works in eigenvalue space: points on the level set
{lambda : sum(arctan(lambda_i)) = sigma} for a supercritical target sigma
and the arithmetic of Lemma 2.3 at them, the angle criterion for a point to
be a subsolution (every (n-1)-subset of complementary arctans exceeds
h - pi/2), the equivalent boundedness formulation decided by coordinate
marching, and an empirical estimate of the dichotomy constant kappa for the
linearized coefficients at far-out boundary points.  The sampler, the
arithmetic, the criterion and the oracle take many rows at once;
is_csub_pointwise and csub_bounded_oracle are the one-row cases of the
criterion and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhaseOutOfRange, PreconditionFailed
from .hermitian import eig_pair, symmetrize

# marching offsets t, shared by every march
_MARCH_GRID = np.geomspace(1e-6, 1e6, 10_000)


def _check_band(n: int, value: float, lo_open: float, hi_open: float, what: str):
    if not lo_open < value < hi_open:
        raise PhaseOutOfRange(
            f"{what}={value:.6g} outside (({n}-2)pi/2, {n} pi/2) = "
            f"({lo_open:.6g}, {hi_open:.6g})"
        )


@dataclass(frozen=True)
class PhaseSpec:
    """Target phase sigma with its supercritical margin eps0.

    Requires (n-2) pi/2 < sigma < n pi/2, eps0 > 0 and
    sigma - (n-2) pi/2 >= eps0.
    """

    n: int
    sigma: float
    eps0: float

    def __post_init__(self):
        lo = (self.n - 2) * np.pi / 2
        hi = self.n * np.pi / 2
        _check_band(self.n, self.sigma, lo, hi, "sigma")
        if not self.eps0 > 0.0:  # so that NaN fails too
            raise PhaseOutOfRange(f"eps0={self.eps0:.6g} must be positive")
        if self.sigma - lo < self.eps0 - 1e-15:
            raise PhaseOutOfRange(
                f"sigma - (n-2)pi/2 = {self.sigma - lo:.6g} below eps0={self.eps0:.6g}"
            )


@dataclass(frozen=True)
class SubsolutionVerdict:
    """Outcome of the angle criterion at one point.

    worst_margin = min_j (sum_{l != j} arctan(mu_l) - (h - pi/2)); the point
    is a subsolution iff the margin is strictly positive.  witness_j is the
    index attaining the minimum.
    """

    is_csub: bool
    worst_margin: float
    witness_j: int


def _angle_total(angles: np.ndarray) -> np.ndarray:
    """Sum over the last axis, added column by column, left to right.

    That is the order in which np.sum adds one short row, at a fraction of
    its cost over many short rows.
    """
    return np.asarray(sum(np.moveaxis(angles, -1, 0), np.zeros(angles.shape[:-1])))


def level_set_sample_batch(spec: PhaseSpec, free_batch) -> np.ndarray:
    """Vectorized level-set completion; returns only the valid rows.

    free_batch has shape (batch, n-1).  Each row's free values become
    lambda_1..lambda_{n-1} (sorted descending) and the last coordinate is
    tan(sigma - sum(arctan(free))); a row is valid if that residual angle is
    in (-pi/2, pi/2) and the completion sorts below the free block.
    """
    free = np.array(free_batch, dtype=float)  # a copy, sorted in place
    if free.shape[1] != spec.n - 1:
        raise PhaseOutOfRange(f"need {spec.n - 1} free values, got {free.shape[1]}")
    # rows sorted descending by compare-exchange of adjacent columns, and
    # the angle sum taken by columns: row-wise np.sort and np.sum take about
    # twice as long on the many short rows that the check suites pass
    for end in range(free.shape[1] - 1, 0, -1):
        for j in range(end):
            hi = np.maximum(free[:, j], free[:, j + 1])
            np.minimum(free[:, j], free[:, j + 1], out=free[:, j + 1])
            free[:, j] = hi
    residual = spec.sigma - _angle_total(np.arctan(free))
    ok = np.abs(residual) < np.pi / 2
    last = np.tan(residual[ok])
    free = free[ok]
    sorts = last <= free[:, -1] if free.shape[1] else np.ones(last.shape, bool)
    return np.concatenate([free[sorts], last[sorts, None]], axis=1)


def level_set_arithmetic(points, spec: PhaseSpec) -> tuple[np.ndarray, np.ndarray]:
    """Lemma 2.3's supercritical arithmetic at each level-set point.

    points has shape (S, n) with n >= 2, each row sorted descending, as
    level_set_sample_batch returns them.  Returns per row
      - the margin of (i), lambda_{n-1} + lambda_n - (tan(eps0/2) - 1e-12):
        (i) holds iff it is >= 0;
      - the number of k in 1..n-1 with sigma_k(lambda) < -1e-12, the
        violations of (ii) sigma_k(lambda) >= 0.
    sigma_k is the t^k coefficient of prod_i (1 + lambda_i t), built by its
    recurrence one column of points at a time.
    """
    points = np.asarray(points, dtype=float)
    margin = points[:, -2] + points[:, -1] - (np.tan(spec.eps0 / 2) - 1e-12)
    coeffs = [np.ones(len(points))] + [np.zeros(len(points))] * spec.n
    for i, lam in enumerate(points.T):
        for k in range(i + 1, 0, -1):
            coeffs[k] = coeffs[k] + lam * coeffs[k - 1]
    counts = sum(coeffs[k] < -1e-12 for k in range(1, spec.n))
    return margin, counts


def _complement_angle_sums(mus: np.ndarray) -> np.ndarray:
    """sum_{l != j} arctan(mu_l) for each j, along the last axis of mus."""
    angles = np.arctan(mus)
    return _angle_total(angles)[..., None] - angles


def is_csub_batch(mus, h) -> tuple[np.ndarray, np.ndarray]:
    """Angle criterion for a subsolution at each row of mus (shape (S, n)).

    h has shape (S,); every entry must lie in ((n-2) pi/2, n pi/2).  Returns
    (worst_margin, witness_j) per row, as in SubsolutionVerdict: row s is a
    subsolution iff worst_margin[s] > 0 (strict, tolerance zero).
    """
    mus = np.asarray(mus, dtype=float)
    h = np.asarray(h, dtype=float)
    n = mus.shape[1]
    lo, hi = (n - 2) * np.pi / 2, n * np.pi / 2
    outside = ~((lo < h) & (h < hi))  # so that NaN is outside too
    if np.any(outside):
        _check_band(n, float(h[outside][0]), lo, hi, "h")
    margins = _complement_angle_sums(mus) - (h - np.pi / 2)[:, None]
    witness = np.argmin(margins, axis=1)
    return margins[np.arange(len(margins)), witness], witness


def is_csub_pointwise(mus, h: float) -> SubsolutionVerdict:
    """Angle criterion for a subsolution at a point with eigenvalues mus.

    The one-row case of is_csub_batch; the raw worst margin is reported.
    """
    margin, witness = is_csub_batch(np.asarray(mus, dtype=float)[None], [h])
    return SubsolutionVerdict(
        is_csub=bool(margin[0] > 0.0),
        worst_margin=float(margin[0]),
        witness_j=int(witness[0]),
    )


# a far-end angle this close to the target leaves the verdict to the march
_FAR_END_BAND = 1e-12


def csub_bounded_oracle_batch(mus, h) -> np.ndarray:
    """Boundedness verdict of the constrained level set at each row of mus.

    Row s asks whether {lambda' : lambda' >= mus[s] componentwise,
    sum(arctan(lambda'_l)) = h[s]} is bounded, that is whether every
    direction of the march (see _march_extent) terminates.  The march's
    floor angle C_j + arctan(mu_j + t) never decreases in t, so a direction
    terminates somewhere on the grid iff it terminates at the grid's far
    end, and the verdict is read from the far-end angles alone:
      - a far-end angle above h is the march's own hit at its last point;
      - one more than 1e-12 below h has no hit anywhere: the computed
        angles are within a few ulps (~1e-15) of the true ones, and the
        true ones never decrease.
    So the verdict equals the march's.  A row with a far-end angle within
    1e-12 of h, where ulps could decide, takes the whole march.
    """
    mus = np.asarray(mus, dtype=float)
    h = np.asarray(h, dtype=float)[:, None]
    far = _complement_angle_sums(mus) + np.arctan(mus + _MARCH_GRID[-1])
    bounded = np.all(far > h, axis=1)
    for s in np.flatnonzero(np.any(np.abs(far - h) <= _FAR_END_BAND, axis=1)):
        bounded[s] = _march_extent(mus[s], h[s, 0]) is not None
    return bounded


def csub_bounded_oracle(mus, h: float) -> bool:
    """Boundedness verdict for the constrained level set.

    The one-row case of csub_bounded_oracle_batch: the set
    {lambda' : lambda' >= mu componentwise, sum(arctan(lambda'_l)) = h} is
    bounded iff every direction of the march terminates.
    """
    return bool(csub_bounded_oracle_batch(np.asarray(mus, dtype=float)[None], [h])[0])


def _march_extent(mus: np.ndarray, sigma: float) -> np.ndarray | None:
    """Per-direction termination coordinates of the constrained level set.

    For each coordinate direction j the march steps t over a log grid from
    1e-6 to 1e6 and asks whether lambda' = mu + t e_j can still be completed
    to a point of the set: completion is feasible iff the minimum achievable
    angle, the floor angle C_j + arctan(mu_j + t) with every other
    coordinate at its floor mu_l (C_j = sum_{l != j} arctan(mu_l)), does not
    already exceed sigma.  Returns the coordinates mu_j + t_j of the first
    infeasible step per direction, or None if some direction never
    terminates.  This is the only march: prop21 reads its extents, and the
    oracle reads only its far end, except within 1e-12 of sigma.
    """
    floor_angle = (
        _complement_angle_sums(mus)[:, None] + np.arctan(mus[:, None] + _MARCH_GRID)
    )
    hit = floor_angle > sigma
    if not np.all(np.any(hit, axis=1)):
        return None
    return mus + _MARCH_GRID[np.argmax(hit, axis=1)]


def _haar_unitary(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar-random n x n unitaries, drawn as count successive pairs of
    (real, imaginary) standard normal n x n blocks."""
    z = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def _sample_level_set_tail(
    spec: PhaseSpec, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Level-set points with a heavy tail in the leading coordinate.

    The leading angle is uniform in (arctan 1, pi/2); middle coordinates are
    moderate; the last closes the angle budget.  Invalid completions are
    dropped, so fewer than count rows may come back.
    """
    n = spec.n
    phi = rng.uniform(np.arctan(1.0), np.pi / 2 - 1e-5, size=count)
    lam1 = np.tan(phi)
    if n == 2:
        rest = np.zeros((count, 0))
    else:
        rest = rng.uniform(-0.5, 1.5, size=(count, n - 2))
    partial = np.concatenate([lam1[:, None], rest], axis=1)
    residual = spec.sigma - np.sum(np.arctan(partial), axis=1)
    ok = (np.abs(residual) < np.pi / 2 - 1e-12) & np.isfinite(residual)
    last = np.tan(residual[ok])
    return np.concatenate([partial[ok], last[:, None]], axis=1)


def dichotomy_kappa_estimate(
    b_matrix,
    spec: PhaseSpec,
    delta: float,
    radius: float,
    samples: int = 1000,
    seed: int = 0,
) -> float:
    """Empirical dichotomy constant for far-out level-set boundary points.

    First verifies by marching that the shifted cone slice
    (lambda(B) - 2 delta + positive orthant) meets the level set only inside
    the ball of the given radius.  Then draws Hermitian matrices A with
    eigenvalues on the level set and |lambda(A)| > radius (unitary
    conjugations of a fixed heavy-tailed pool, filtered by the radius so
    shrinking the radius only enlarges the sample set), and for each sample
    evaluates with eta = Id + A^2 the two dichotomy quotients

        k1 = tr(eta^-1 (B - A)) / tr(eta^-1),
        k2 = min_i (eta^-1)_{ii} / tr(eta^-1).

    Returns min over samples of max(k1, k2): every sample satisfies at least
    one dichotomy branch with any constant strictly below this value.
    """
    if samples < 1e3:
        raise PreconditionFailed("samples must be at least 1e3")
    b_matrix = symmetrize(np.asarray(b_matrix, dtype=complex))
    n = spec.n
    lam_b = eig_pair(np.eye(n), b_matrix).lambdas
    shifted = lam_b - 2.0 * delta
    extremes = _march_extent(shifted, spec.sigma)
    if extremes is None:
        raise PreconditionFailed("constrained level set escapes to infinity")
    corner = np.sqrt(np.sum(np.maximum(shifted**2, extremes**2)))
    if corner > radius:
        raise PreconditionFailed(
            f"level-set slice extends to |lambda| ~ {corner:.4g} > radius {radius:.4g}"
        )

    rng = np.random.default_rng(seed)
    pool = _sample_level_set_tail(spec, samples, rng)
    # pair each candidate with its unitary before the radius filter, so a
    # smaller radius strictly enlarges the evaluated sample set
    frames = _haar_unitary(n, pool.shape[0], rng)
    keep = np.linalg.norm(pool, axis=1) > radius
    if not np.any(keep):
        raise PreconditionFailed("no level-set samples beyond the radius")

    lam, u = pool[keep], frames[keep]
    u_h = np.swapaxes(np.conj(u), -1, -2)
    a = (u * lam[:, None, :]) @ u_h
    eta_inv = np.linalg.inv(np.eye(n) + a @ a)
    trace = np.trace(eta_inv, axis1=-2, axis2=-1).real
    k1 = np.trace(eta_inv @ (b_matrix - a), axis1=-2, axis2=-1).real / trace
    k2 = np.min(np.diagonal(eta_inv, axis1=-2, axis2=-1).real, axis=-1) / trace
    return float(np.min(np.maximum(k1, k2)))
