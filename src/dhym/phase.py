"""Supercritical-phase arithmetic and subsolution criteria.

Works in eigenvalue space: points on the level set
{lambda : sum(arctan(lambda_i)) = sigma} for a supercritical target sigma,
the angle criterion for a point to be a subsolution (every (n-1)-subset of
complementary arctans exceeds h - pi/2), the equivalent boundedness
formulation decided by coordinate marching, and an empirical estimate of the
dichotomy constant kappa for the linearized coefficients at far-out boundary
points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotASubsolution,
    NotOnLevelSet,
    PhaseOutOfRange,
    PreconditionFailed,
)
from .hermitian import eig_pair, sigma_k, symmetrize

LEVEL_SET_TOL = 1e-9
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


@dataclass(frozen=True)
class LevelSetArithmeticReport:
    """Arithmetic facts about a level-set point (see level_set_arithmetic_check)."""

    i_holds: bool
    ii_holds: bool
    iv_holds: bool
    min_lambda_bound: float


def level_set_sample(spec: PhaseSpec, free) -> np.ndarray | None:
    """Complete n-1 free eigenvalues to a sorted point of the level set.

    The one-row case of level_set_sample_batch: the completed point, or None
    if the free values do not complete.
    """
    rows = level_set_sample_batch(spec, np.asarray(free, dtype=float)[None])
    return rows[0] if len(rows) else None


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
    residual = spec.sigma - sum(np.arctan(free.T), np.zeros(len(free)))
    ok = np.abs(residual) < np.pi / 2
    last = np.tan(residual[ok])
    free = free[ok]
    sorts = last <= free[:, -1] if free.shape[1] else np.ones(last.shape, bool)
    return np.concatenate([free[sorts], last[sorts, None]], axis=1)


def level_set_arithmetic_check(lambdas, spec: PhaseSpec) -> LevelSetArithmeticReport:
    """Check the supercritical arithmetic at a sorted level-set point.

    (i): lambda_{n-1} + lambda_n >= tan(eps0/2).
    (ii): sigma_k(lambda) >= 0 for 1 <= k <= n-1.
    (iv): if lambda_n <= 0 then |lambda_n| <= cot(eps0) (empirical bound;
          reported, not asserted).
    Raises NotOnLevelSet unless sum(arctan(lambda)) matches sigma to 1e-9.
    """
    lam = np.sort(np.asarray(lambdas, dtype=float))[::-1]
    theta = float(np.sum(np.arctan(lam)))
    if abs(theta - spec.sigma) > LEVEL_SET_TOL:
        raise NotOnLevelSet(
            f"sum(arctan)={theta:.12g} differs from sigma={spec.sigma:.12g} "
            f"by {abs(theta - spec.sigma):.3e}"
        )
    i_holds = lam[-2] + lam[-1] >= np.tan(spec.eps0 / 2) - 1e-12
    ii_holds = all(sigma_k(lam, k) >= -1e-12 for k in range(1, spec.n))
    bound = 1.0 / np.tan(spec.eps0) + 1e-9
    iv_holds = lam[-1] > 0.0 or abs(lam[-1]) <= bound
    return LevelSetArithmeticReport(
        i_holds=bool(i_holds),
        ii_holds=bool(ii_holds),
        iv_holds=bool(iv_holds),
        min_lambda_bound=float(bound),
    )


def _complement_angle_sums(mus: np.ndarray) -> np.ndarray:
    """sum_{l != j} arctan(mu_l) for each j."""
    angles = np.arctan(mus)
    return np.sum(angles) - angles


def is_csub_pointwise(mus, h: float) -> SubsolutionVerdict:
    """Angle criterion for a subsolution at a point with eigenvalues mus.

    Strict inequality, tolerance zero: the raw worst margin is reported.
    """
    mus = np.asarray(mus, dtype=float)
    n = mus.shape[0]
    _check_band(n, h, (n - 2) * np.pi / 2, n * np.pi / 2, "h")
    margins = _complement_angle_sums(mus) - (h - np.pi / 2)
    j = int(np.argmin(margins))
    return SubsolutionVerdict(
        is_csub=bool(margins[j] > 0.0),
        worst_margin=float(margins[j]),
        witness_j=j,
    )


def csub_bounded_oracle(mus, h: float) -> bool:
    """Brute-force boundedness verdict for the constrained level set.

    The set in question is {lambda' : lambda' >= mu componentwise,
    sum(arctan(lambda'_l)) = h}; it is bounded iff every direction of the
    march (see _march_extent) terminates.
    """
    return _march_extent(np.asarray(mus, dtype=float), h) is not None


def csub_stability_margin(verdicts, h: float) -> float:
    """Uniform slack of a family of per-point subsolution verdicts.

    Any target k with |h - k|_inf below the returned value keeps every
    verdict positive.  Raises NotASubsolution if some point already fails.
    """
    margins = [v.worst_margin for v in verdicts]
    if not margins:
        raise NotASubsolution("empty verdict collection")
    worst = min(margins)
    if worst <= 0.0:
        raise NotASubsolution(f"worst margin {worst:.6g} is not positive")
    del h  # the margin is already measured relative to h
    return float(worst)


def csub_lattice_check(mus, h1: float, h2: float) -> bool:
    """Subsolution property for max(h1, h2) and min(h1, h2) simultaneously."""
    hi, lo = max(h1, h2), min(h1, h2)
    return bool(
        is_csub_pointwise(mus, hi).is_csub and is_csub_pointwise(mus, lo).is_csub
    )


def _march_extent(mus: np.ndarray, sigma: float) -> np.ndarray | None:
    """Per-direction termination coordinates of the constrained level set.

    For each coordinate direction j the march steps t over a log grid from
    1e-6 to 1e6 and asks whether lambda' = mu + t e_j can still be completed
    to a point of the set: completion is feasible iff the minimum achievable
    angle (all other coordinates at their floor mu_l) does not already
    exceed sigma.  Returns the coordinates mu_j + t_j of the first
    infeasible step per direction, or None if some direction never
    terminates.
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
