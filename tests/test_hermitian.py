"""Small-matrix kernels: pencil eigenvalues, phase angles, derivative tensors."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotPositiveDefinite,
)
from dhym.hermitian import (
    cholesky_batch,
    dF,
    eig_pair,
    eig_pair_batch,
    eigenvalue_derivatives,
    lagrangian_angle_det,
    spectral_function_derivatives,
    symmetrize,
    theta_arctan,
)
from dhym.phase import PhaseSpec, level_set_arithmetic

from conftest import random_distinct_diag, random_hermitian, random_hpd


# --- eig_pair -------------------------------------------------------------


def test_eig_pair_diagonal_case():
    es = eig_pair(np.eye(2), np.diag([1.0, 2.0]))
    assert np.allclose(es.lambdas, [2.0, 1.0], atol=1e-14)


def test_eig_pair_scalar_division():
    es = eig_pair(np.array([[2.0]]), np.array([[6.0]]))
    assert np.allclose(es.lambdas, [3.0], atol=1e-14)


def _charpoly_roots(omega, chi):
    """Independent oracle: real roots of det(chi - lam omega) by sampling.

    The determinant is a degree-n polynomial in lam; n+1 point evaluations
    pin its coefficients exactly through a Vandermonde solve.
    """
    n = omega.shape[0]
    pts = np.linspace(-1.0, 1.0, n + 1)
    vals = [np.linalg.det(chi - t * omega) for t in pts]
    coeffs = np.linalg.solve(np.vander(pts, n + 1), np.array(vals))
    roots = np.roots(coeffs.real)
    return np.sort(roots.real)[::-1]


def test_eig_pair_against_charpoly_oracle(rng):
    for _ in range(50):
        omega = random_hpd(rng, 3)
        chi = random_hermitian(rng, 3)
        es = eig_pair(omega, chi)
        oracle = _charpoly_roots(omega, chi)
        rel = np.max(np.abs(es.lambdas - oracle)) / (1.0 + np.max(np.abs(oracle)))
        assert rel <= 1e-9


def test_eig_pair_reconstruction_and_frame(rng):
    for n in (1, 2, 3, 4):
        omega = random_hpd(rng, n)
        chi = random_hermitian(rng, n)
        es = eig_pair(omega, chi)
        w = es.transform
        res = np.max(np.abs(chi @ w - omega @ w @ np.diag(es.lambdas)))
        assert res <= 1e-10 * (1.0 + np.max(np.abs(chi)))
        assert np.max(np.abs(w.conj().T @ omega @ w - np.eye(n))) <= 1e-12
        assert np.all(np.diff(es.lambdas) <= 1e-12)


def test_eig_pair_rejects_non_positive():
    with pytest.raises(NotPositiveDefinite):
        eig_pair(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(NotPositiveDefinite):
        eig_pair(np.diag([1.0, 1e-13]), np.eye(2))


def test_eig_pair_rejects_mismatched_dims():
    with pytest.raises(DimensionMismatch):
        eig_pair(np.eye(2), np.eye(3))
    with pytest.raises(DimensionMismatch):
        eig_pair(np.eye(5), np.eye(5))


@given(c=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_eig_pair_scale_equivariance(c):
    rng = np.random.default_rng(99)
    omega = random_hpd(rng, 3)
    chi = random_hermitian(rng, 3)
    base = eig_pair(omega, chi).lambdas
    scaled = eig_pair(omega, c * chi).lambdas
    expect = np.sort(c * base)[::-1]
    assert np.max(np.abs(scaled - expect)) <= 1e-12 * (1.0 + abs(c) * np.max(np.abs(base)))


def test_batch_matches_scalar(rng):
    for n in (2, 3, 4):
        omegas = np.stack([random_hpd(rng, n) for _ in range(20)])
        chis = np.stack([random_hermitian(rng, n) for _ in range(20)])
        vals, _ = eig_pair_batch(omegas, chis)
        for b in range(20):
            es = eig_pair(omegas[b], chis[b])
            assert np.max(np.abs(vals[b] - es.lambdas)) <= 1e-11


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_cholesky_reports_first_bad_element(bad):
    a = np.stack([np.eye(2)] * 4).astype(complex)
    a[2, 1, 1] = bad
    a[3, 1, 1] = -1.0
    with pytest.raises(NotPositiveDefinite, match=r"pivot index 1 \(batch element 2\)"):
        cholesky_batch(a)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("which", ["omega", "chi"])
def test_batch_rejects_non_finite(bad, which):
    pair = {"omega": np.stack([np.eye(2)] * 3), "chi": np.zeros((3, 2, 2))}
    pair[which][1, 0, 1] = bad
    with pytest.raises(DimensionMismatch, match="finite"):
        eig_pair_batch(pair["omega"], pair["chi"])


# --- angles ----------------------------------------------------------------


def test_theta_arctan_trivials():
    assert theta_arctan([0.0, 0.0, 0.0]) == 0.0
    assert abs(theta_arctan([1.0, 1.0]) - np.pi / 2) <= 1e-15
    assert abs(theta_arctan([np.tan(0.7)]) - 0.7) <= 1e-15


def test_lagrangian_angle_det_trivials():
    assert lagrangian_angle_det(np.eye(3), np.zeros((3, 3))) == 0.0
    assert abs(lagrangian_angle_det(np.eye(2), np.eye(2)) - np.pi / 2) <= 1e-12


def test_angle_routes_agree(rng):
    for n in (1, 2, 3, 4):
        for _ in range(50):
            omega = random_hpd(rng, n)
            chi = random_hermitian(rng, n)
            t1 = theta_arctan(eig_pair(omega, chi).lambdas)
            t2 = lagrangian_angle_det(omega, chi)
            assert abs(t1 - t2) <= 1e-12


def test_det_modulus_identity(rng):
    for n in (1, 2, 3, 4):
        for _ in range(100):
            lam = random_hermitian(rng, n)
            lhs = abs(np.linalg.det(np.eye(n) + 1j * lam)) ** 2
            rhs = np.linalg.det(np.eye(n) + lam @ lam).real
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


# --- derivative kernels -----------------------------------------------------


def test_dF_trivials():
    es = eig_pair(np.eye(3), np.zeros((3, 3)))
    assert np.max(np.abs(dF(es) - np.eye(3))) <= 1e-14
    lam = np.diag([2.0, -1.0])
    es = eig_pair(np.eye(2), lam)
    expect = np.diag(1.0 / (1.0 + np.array([2.0, -1.0]) ** 2))
    assert np.max(np.abs(dF(es) - expect)) <= 1e-14


def test_dF_is_hermitian_with_known_spectrum(rng):
    for _ in range(20):
        lam = random_hermitian(rng, 3)
        es = eig_pair(np.eye(3), lam)
        d = dF(es)
        assert np.max(np.abs(d - d.conj().T)) <= 1e-13
        got = np.sort(eig_pair(np.eye(3), d).lambdas)
        expect = np.sort(1.0 / (1.0 + es.lambdas**2))
        assert np.max(np.abs(got - expect)) <= 1e-10


def test_dF_matches_finite_difference(rng):
    for _ in range(20):
        lam = random_hermitian(rng, 3)
        h = random_hermitian(rng, 3)
        d = dF(eig_pair(np.eye(3), lam))
        eps = 1e-5
        fd = (
            lagrangian_angle_det(np.eye(3), lam + eps * h)
            - lagrangian_angle_det(np.eye(3), lam - eps * h)
        ) / (2 * eps)
        pred = float(np.trace(d @ h).real)
        assert abs(fd - pred) / max(1.0, abs(pred)) <= 1e-6


def test_eigenvalue_derivatives_first_order():
    first, _ = eigenvalue_derivatives(np.diag([3.0, 1.0]))
    expect = np.zeros((2, 2, 2))
    expect[0, 0, 0] = 1.0
    expect[1, 1, 1] = 1.0
    assert np.array_equal(first, expect)


def test_eigenvalue_derivatives_second_vs_fd(rng):
    for n in (2, 3, 4):
        mat = random_distinct_diag(rng, n)
        h = random_hermitian(rng, n)
        _, second = eigenvalue_derivatives(mat)
        eps = 1e-4

        def evals(m):
            return eig_pair(np.eye(n), m).lambdas

        fd = (evals(mat + eps * h) - 2 * evals(mat) + evals(mat - eps * h)) / eps**2
        pred = np.einsum("ipqrs,pq,rs->i", second, h, h).real
        assert np.max(np.abs(fd - pred)) / max(1.0, np.max(np.abs(pred))) <= 1e-4


def test_eigenvalue_derivatives_degenerate():
    with pytest.raises(DegenerateSpectrum):
        eigenvalue_derivatives(np.diag([1.0, 1.0]))


def test_spectral_derivatives_arctan_at_zero():
    sd = spectral_function_derivatives("arctan_sum", np.diag([0.5, 0.0, -0.5]))
    del sd
    sd = spectral_function_derivatives("arctan_sum", np.diag([1e-3, 0.0, -1e-3]) * 2e3)
    # at widely spread diagonals first stays diagonal
    assert np.max(np.abs(sd.first - np.diag(np.diagonal(sd.first)))) == 0.0


def test_spectral_derivatives_logmax_entry():
    sd = spectral_function_derivatives("log_max", np.diag([2.0, 1.0]), c_eps=1.0)
    assert abs(sd.first[0, 0] - 1.0 / 3.0) <= 1e-15
    assert sd.first[1, 1] == 0.0


def test_spectral_derivatives_second_vs_fd(rng):
    for f_id in ("arctan_sum", "log_max"):
        for n in (2, 3):
            mat = random_distinct_diag(rng, n)
            h = random_hermitian(rng, n)
            sd = spectral_function_derivatives(f_id, mat, c_eps=4.0)

            def func(m):
                es = eig_pair(np.eye(n), m)
                if f_id == "arctan_sum":
                    return theta_arctan(es.lambdas)
                return float(np.log(4.0 + es.lambdas[0]))

            eps = 1e-4
            fd = (func(mat + eps * h) - 2 * func(mat) + func(mat - eps * h)) / eps**2
            pred = np.einsum("ijrs,ij,rs->", sd.second, h, h).real
            assert abs(fd - pred) / max(1.0, abs(pred)) <= 1e-4


def test_spectral_derivatives_degenerate():
    with pytest.raises(DegenerateSpectrum):
        spectral_function_derivatives("arctan_sum", np.diag([2.0, 2.0]))


# --- symmetric polynomials ---------------------------------------------------
# phase.level_set_arithmetic counts the k in 1..n-1 with sigma_k < -1e-12


def test_sigma_k_examples():
    # sigma_1, sigma_2 of (2, 1, 1) are 4, 5 and of (2, 1, -3) are 0, -7
    spec = PhaseSpec(3, np.pi, 0.2)
    _, counts = level_set_arithmetic([[2.0, 1.0, 1.0], [2.0, 1.0, -3.0]], spec)
    assert list(counts) == [0, 1]


def test_sigma_k_matches_combinations(rng):
    for n in (2, 3, 4):
        rows = -np.sort(-rng.uniform(-3.0, 3.0, (500, n)), axis=1)
        brute = [
            [sum(np.prod(combo) for combo in itertools.combinations(row, k)) for k in range(1, n)]
            for row in rows
        ]
        _, counts = level_set_arithmetic(rows, PhaseSpec(n, (n - 1) * np.pi / 2, 0.2))
        assert np.array_equal(counts, np.sum(np.array(brute) < -1e-12, axis=1))
        assert 0 < np.count_nonzero(counts) < len(rows)


def test_symmetrize_idempotent(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s = symmetrize(a)
    assert np.max(np.abs(s - s.conj().T)) == 0.0


def test_symmetrize_near_float_max():
    # the diagonal of a + a^H overflows; the halves do not, and the result is exact
    a = np.array([[1e308, 1.5e308], [-1e308, -1.7e308]], dtype=complex)
    off = 0.5 * (1.5e308 - 1e308)
    expect = np.array([[1e308, off], [off, -1.7e308]], dtype=complex)
    assert np.array_equal(symmetrize(a), expect)  # the suite errors on a RuntimeWarning
