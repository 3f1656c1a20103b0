"""Left-invariant data for three non-Kahler complex surfaces.

Each model is a four-dimensional solvable Lie algebra with an invariant
complex structure: the two Inoue families and the secondary Kodaira surface.
Structure constants, the complex structure J, the invariant (1,0)-coframe,
and the one-dimensional generator of the relevant (1,1) cohomology are
hardcoded; everything downstream (trace formula, conformal lower bound for
the phase, subsolution verdict) is pointwise algebra at the invariant point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadRange, NotPositiveDefinite, UnknownSurface
from .hermitian import eig_pair

INOUE_SM = "inoue-sm"
INOUE_PM = "inoue-pm"
SECONDARY_KODAIRA = "kodaira"
SURFACE_NAMES = (INOUE_SM, INOUE_PM, SECONDARY_KODAIRA)


@dataclass(frozen=True)
class SurfaceModel:
    """Invariant data of one surface.

    structure_constants[i, j, k] is the e_k coefficient of [e_i, e_j];
    complex_structure is the matrix of J on (e_1..e_4); invariant_forms rows
    are the coefficients of the (1,0)-forms phi^1, phi^2 in (e^1..e^4);
    bc_generator is ("phi1" or "phi2", meaning phi^i wedge conj(phi^i)).
    """

    name: str
    parameters: dict
    structure_constants: np.ndarray
    complex_structure: np.ndarray
    invariant_forms: np.ndarray
    bc_generator: str
    bc_dim: int = 1

    def jacobi_residual(self) -> float:
        """Max norm of the cyclic Jacobi identity over all index triples."""
        c = self.structure_constants
        # [e_i, [e_j, e_k]]_m = c[j,k,l] c[i,l,m]
        term = np.einsum("jkl,ilm->ijkm", c, c)
        cyc = term + np.einsum("ijkm->jkim", term) + np.einsum("ijkm->kijm", term)
        return float(np.max(np.abs(cyc)))

    def j_squared_residual(self) -> float:
        j = self.complex_structure
        return float(np.max(np.abs(j @ j + np.eye(4))))


def _brackets_to_tensor(brackets: dict) -> np.ndarray:
    c = np.zeros((4, 4, 4))
    for (i, j), coeffs in brackets.items():
        for k, val in coeffs.items():
            c[i, j, k] = val
            c[j, i, k] = -val
    return c


def _j_standard() -> np.ndarray:
    # J e1 = e2, J e2 = -e1, J e3 = e4, J e4 = -e3 (columns are images)
    j = np.zeros((4, 4))
    j[1, 0] = 1.0
    j[0, 1] = -1.0
    j[3, 2] = 1.0
    j[2, 3] = -1.0
    return j


def catalog(name: str, alpha: float = 1.0, beta: float = 0.0, q: float = 0.0):
    """Hardcoded surface model by name.

    inoue-sm takes parameters alpha != 0 and beta; inoue-pm takes q;
    kodaira has no parameters.
    """
    if name == INOUE_SM:
        if alpha == 0.0:
            raise BadRange("inoue-sm requires alpha != 0")
        brackets = {
            (0, 3): {0: -alpha, 1: beta},
            (1, 3): {0: -beta, 1: -alpha},
            (2, 3): {2: 2.0 * alpha},
        }
        forms = np.array(
            [[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0j]], dtype=complex
        )
        return SurfaceModel(
            name=name,
            parameters={"alpha": alpha, "beta": beta},
            structure_constants=_brackets_to_tensor(brackets),
            complex_structure=_j_standard(),
            invariant_forms=forms,
            bc_generator="phi2",
        )
    if name == INOUE_PM:
        brackets = {
            (1, 2): {0: -1.0},
            (1, 3): {1: -1.0},
            (2, 3): {2: 1.0},
        }
        # J e3 = e4 - q e2, J e4 = -e3 - q e1
        j = np.zeros((4, 4))
        j[1, 0] = 1.0
        j[0, 1] = -1.0
        j[3, 2] = 1.0
        j[1, 2] = -q
        j[2, 3] = -1.0
        j[0, 3] = -q
        forms = np.array(
            [[1.0, 1.0j, 0.0, 1.0j * q], [0.0, 0.0, 1.0, 1.0j]], dtype=complex
        )
        return SurfaceModel(
            name=name,
            parameters={"q": q},
            structure_constants=_brackets_to_tensor(brackets),
            complex_structure=j,
            invariant_forms=forms,
            bc_generator="phi2",
        )
    if name == SECONDARY_KODAIRA:
        brackets = {
            (0, 1): {2: -1.0},
            (0, 3): {1: 1.0},
            (1, 3): {0: -1.0},
        }
        forms = np.array(
            [[1.0, 1.0j, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0j]], dtype=complex
        )
        return SurfaceModel(
            name=name,
            parameters={},
            structure_constants=_brackets_to_tensor(brackets),
            complex_structure=_j_standard(),
            invariant_forms=forms,
            bc_generator="phi1",
        )
    raise UnknownSurface(f"unknown surface {name!r}; known: {SURFACE_NAMES}")


@dataclass(frozen=True)
class InvariantMetric:
    """Coefficients of omega = i omega_{ij} phi^i wedge conj(phi^j)."""

    w11: float
    w22: float
    w12: complex = 0.0

    def __post_init__(self):
        if not (self.w11 > 0.0 and self.determinant > 0.0):
            raise NotPositiveDefinite(
                f"metric (w11={self.w11:.6g}, w22={self.w22:.6g}, "
                f"w12={self.w12:.6g}) is not positive-definite"
            )

    @property
    def determinant(self) -> float:
        return self.w11 * self.w22 - abs(self.w12) ** 2

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[self.w11, self.w12], [np.conj(self.w12), self.w22]], dtype=complex
        )


def trace_formula(metric: InvariantMetric, c: float) -> float:
    """Trace of c i phi^2 wedge conj(phi^2) against the invariant metric.

    Equals c w11 / (w11 w22 - |w12|^2); the sign is the sign of c because the
    denominator is the positive metric determinant.
    """
    return float(c * metric.w11 / metric.determinant)


def conformal_bound(lambda1: float, lambda2: float, m: float, big_m: float) -> float:
    """Certified lower bound of the conformally rescaled two-eigenvalue phase.

    For eigenvalues (lambda1, lambda2) and a conformal factor c ranging over
    [m, M], returns the minimum of f(c) = arctan(c lambda1) + arctan(c lambda2)
    over [m, M]: the least of f at the endpoints m and M and, for a pair of
    mixed sign, at the one interior critical point c* = 1 / sqrt(-lambda1
    lambda2) when it lies in [m, M] (f' = (lambda1 + lambda2)(1 + c^2 lambda1
    lambda2) / ((1 + c^2 lambda1^2)(1 + c^2 lambda2^2)) vanishes nowhere else
    unless f is constant).
    """
    if not 0.0 < m <= big_m < np.inf:  # so that NaN fails too
        raise BadRange(f"need a finite 0 < m <= M, got m={m:.6g}, M={big_m:.6g}")
    cs = [m, big_m]
    if lambda1 * lambda2 < 0.0:
        c_star = 1.0 / np.sqrt(-lambda1 * lambda2)
        if m <= c_star <= big_m:
            cs.append(c_star)
    return float(min(np.arctan(c * lambda1) + np.arctan(c * lambda2) for c in cs))


@dataclass(frozen=True)
class SurfaceVerdict:
    """Subsolution report for c times the cohomology generator."""

    name: str
    c: float
    trivial: bool
    lambdas: tuple[float, float]
    phase_bound: float
    csub_certified: bool


def csub_on_surface(
    name: str,
    metric: InvariantMetric,
    c: float,
    m: float = 1.0,
    big_m: float = 1.0,
    **params,
) -> SurfaceVerdict:
    """Subsolution verdict for c times the invariant (1,1) generator.

    Computes the eigenvalues of the generator against the metric at the
    invariant point and applies the conformal lower bound; a positive bound
    certifies the positive-phase hypothesis for n = 2.  c = 0 short-circuits
    to the trivial solution; c < 0 mirrors c > 0 with the phase negated.
    """
    model = catalog(name, **params)
    if c == 0.0:
        return SurfaceVerdict(
            name=name,
            c=0.0,
            trivial=True,
            lambdas=(0.0, 0.0),
            phase_bound=0.0,
            csub_certified=True,
        )
    sign = 1.0 if c > 0 else -1.0
    gen = np.zeros((2, 2), dtype=complex)
    slot = 0 if model.bc_generator == "phi1" else 1
    gen[slot, slot] = abs(c)
    es = eig_pair(metric.matrix, gen)
    lam1, lam2 = float(es.lambdas[0]), float(es.lambdas[1])
    bound = conformal_bound(lam1, lam2, m, big_m)
    return SurfaceVerdict(
        name=name,
        c=float(c),
        trivial=False,
        lambdas=(lam1, lam2),
        phase_bound=float(sign * bound),
        csub_certified=bool(bound > 0.0),
    )
