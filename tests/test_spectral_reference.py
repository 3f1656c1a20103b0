"""Real-to-complex spectral path against the full-spectrum formula, and its
transform and operator counts.

The reference below is the complex-to-complex form of the Hessian symbols:
entry (j, k) of i ddbar is the inverse full transform of one complex symbol
times the full spectrum, and the linearized operator contracts the kernel
against the whole complex Hessian.
"""

import numpy as np
import pytest

import dhym.solver as solver
import dhym.torus as torus
from dhym.hermitian import symmetrize
from dhym.solver import DhymProblem
from dhym.torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    i_ddbar,
    inverse_laplacian_quarter,
)

GRIDS = [(1, 8), (1, 32), (2, 8), (2, 16)]


def _c2c_symbol(g, j, k):
    def wavenumbers(axis):
        kv = np.fft.fftfreq(g.N) * g.N
        if j != k:
            kv[g.N // 2] = 0.0
        shape = [1] * (2 * g.n)
        shape[axis] = g.N
        return kv.reshape(shape)

    kxj, kyj = wavenumbers(2 * j), wavenumbers(2 * j + 1)
    if j == k:
        return -0.25 * (kxj**2 + kyj**2)
    kxk, kyk = wavenumbers(2 * k), wavenumbers(2 * k + 1)
    return -0.25 * (kxj * kxk + kyj * kyk) - 0.25j * (kxj * kyk - kyj * kxk)


def _c2c_i_ddbar(values, g):
    uhat = np.fft.fftn(values)
    out = np.empty(g.shape + (g.n, g.n), dtype=complex)
    for j in range(g.n):
        out[..., j, j] = np.fft.ifftn(_c2c_symbol(g, j, j) * uhat).real
        for k in range(j + 1, g.n):
            entry = np.fft.ifftn(_c2c_symbol(g, j, k) * uhat)
            out[..., j, k] = entry
            out[..., k, j] = np.conj(entry)
    return out


def _c2c_laplacian_symbol(g):
    return sum(_c2c_symbol(g, j, j) for j in range(g.n))


def _field(g, seed):
    """Random field plus explicit Nyquist modes on every axis, and a mode
    that is Nyquist on both the first and the last (half-spectrum) axis."""
    rng = np.random.default_rng(seed)
    names = [f"{c}{j + 1}" for j in range(g.n) for c in ("x", "y")]
    coords = [g.axis_coordinate(a) for a in names]
    vals = rng.standard_normal(g.shape)
    for coord in coords:
        vals = vals + rng.uniform(0.5, 1.0) * np.cos(g.N / 2 * coord)
    return vals + np.cos(g.N / 2 * coords[0]) * np.cos(g.N / 2 * coords[-1])


def _linearized(kernel, v, g):
    """L v = tr(K i ddbar v), unpreconditioned: the kernel's weight planes
    times the Hessian planes of v."""
    return sum(w * p for w, p in zip(kernel, i_ddbar(ScalarField(g, v)).planes))


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _random_forms(g, seed):
    """A pointwise positive-definite omega far from the identity, and a chi0."""
    rng = np.random.default_rng(seed)
    shape = g.shape + (g.n, g.n)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    omega = HermitianFormField(
        g, np.einsum("...ij,...kj->...ik", base, np.conj(base)) + 0.8 * np.eye(g.n)
    )
    chi0 = HermitianFormField(g, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return omega, chi0


def _random_problem(g, seed):
    return DhymProblem(g, *_random_forms(g, seed), target=float(g.n * np.pi / 4), eps0=0.1)


@pytest.mark.parametrize("n,N", GRIDS)
def test_spectral_operators_match_full_spectrum(n, N):
    g = TorusGrid(n, N)
    u = _field(g, 100 + N + n)
    assert _rel_err(i_ddbar(ScalarField(g, u)).values, _c2c_i_ddbar(u, g)) <= 1e-12

    mult = _c2c_laplacian_symbol(g)
    zero = (0,) * (2 * n)
    mult[zero] = 1.0
    vhat = np.fft.fftn(u) / mult
    vhat[zero] = 0.0
    inv_ref = np.fft.ifftn(vhat).real
    assert _rel_err(inverse_laplacian_quarter(u, g), inv_ref) <= 1e-12


@pytest.mark.parametrize("n,N", GRIDS)
def test_linearized_apply_matches_full_hessian_contraction(n, N):
    g = TorusGrid(n, N)
    omega, chi0 = _random_forms(g, 7 * N + n)
    prob = DhymProblem(g, omega, chi0, target=float(g.n * np.pi / 4), eps0=0.1)
    u = _field(g, 200 + N + n) / N**2
    v = _field(g, 300 + N + n)
    # the kernel (omega + chi omega^-1 chi)^-1 as the Hermitian part of
    # (omega + i chi)^-1, inverted by LAPACK
    chi = chi0.values + _c2c_i_ddbar(u, g)
    kernel = symmetrize(np.linalg.inv(omega.values + 1j * chi))
    ref = np.einsum("...ij,...ji->...", kernel, _c2c_i_ddbar(v, g)).real
    state = solver.evaluate_state(ScalarField(g, u), 0.0, prob)
    got = _linearized(solver.linearization_kernel(state.chi, prob), v, g)
    assert _rel_err(got, ref) <= 1e-12


@pytest.fixture
def transform_counts(monkeypatch):
    counts = {"forward": 0, "inverse": 0}
    forward, inverse = torus.fftn, torus.ifftn

    def counting_forward(values):
        counts["forward"] += 1
        return forward(values)

    def counting_inverse(values, shape):
        counts["inverse"] += 1
        return inverse(values, shape)

    monkeypatch.setattr(torus, "fftn", counting_forward)
    monkeypatch.setattr(torus, "ifftn", counting_inverse)
    monkeypatch.setattr(solver, "ifftn", counting_inverse)  # du from a kept spectrum
    return counts


@pytest.mark.parametrize("n", [1, 2])
def test_transform_counts(n, transform_counts):
    g = TorusGrid(n, 8)
    prob = _random_problem(g, 40 + n)
    v = _field(g, 50 + n)
    chi = solver.evaluate_state(ScalarField(g, np.zeros(g.shape)), 0.0, prob).chi
    kernel = solver.linearization_kernel(chi, prob)
    # the state and the kernel are real planes, one per Hessian plane
    assert chi.shape == kernel.shape == (n * n,) + g.shape
    assert chi.dtype == kernel.dtype == np.float64

    def transforms(call):
        transform_counts.update(forward=0, inverse=0)
        call()
        return transform_counts["forward"], transform_counts["inverse"]

    assert transforms(lambda: solver.apply_linearized(kernel, v, g)) == (1, n * n)
    assert transforms(lambda: inverse_laplacian_quarter(v, g)) == (1, 1)
    assert transforms(
        lambda: solver.evaluate_state(ScalarField(g, v), 0.0, prob)
    ) == (1, n * n)


@pytest.mark.parametrize("n,N", GRIDS)
def test_preconditioned_apply_matches_inverse_then_apply(n, N):
    g = TorusGrid(n, N)
    prob = _random_problem(g, 11 * N + n)
    u = _field(g, 400 + N + n) / N**2
    chi = solver.evaluate_state(ScalarField(g, u), 0.0, prob).chi
    kernel = solver.linearization_kernel(chi, prob)
    y = _field(g, 500 + N + n)
    got, spectrum, planes = solver.apply_linearized(kernel, y, g)
    pre = inverse_laplacian_quarter(y, g)
    assert _rel_err(got, _linearized(kernel, pre, g)) <= 1e-12
    # the product also returns M^-1 y, as its spectrum, and its Hessian planes
    assert np.array_equal(torus.ifftn(spectrum, g.shape), pre)
    assert len(planes) == n * n
    assert _rel_err(np.stack(planes), i_ddbar(ScalarField(g, pre)).planes) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_solve_inner_operator_and_preconditioner_counts(n, transform_counts, monkeypatch):
    import scipy.sparse.linalg as spla

    g = TorusGrid(n, 8)
    prob = _random_problem(g, 60 + n)
    state = solver.evaluate_state(ScalarField(g, np.zeros(g.shape)), 0.0, prob)
    kernel = solver.linearization_kernel(state.chi, prob)
    assert state.chi.shape == kernel.shape == (n * n,) + g.shape
    operator_calls = []
    apply, gmres = solver.apply_linearized, spla.gmres
    returned = []

    def counting_apply(kernel, v, grid):
        operator_calls.append(1)
        return apply(kernel, v, grid)

    def keeping_gmres(A, b, **kwargs):
        y, info = gmres(A, b, **kwargs)
        returned.append(y)
        return y, info

    monkeypatch.setattr(solver, "apply_linearized", counting_apply)
    monkeypatch.setattr(spla, "gmres", keeping_gmres)
    transform_counts.update(forward=0, inverse=0)
    res = state.residual.values
    du, l_du_mean, iters, planes = solver._solve_inner(kernel, res, g, solver.KRYLOV_TOL)
    # one restart cycle of 60: k iterations, then the cycle-end residual that
    # also gives mean(L du) and the Hessian planes of du; no dtype probe, and
    # du is one inverse transform of the last product's spectrum
    assert 0 < iters < 60
    assert len(operator_calls) == iters + 1
    assert transform_counts == {"forward": iters + 1, "inverse": (iters + 1) * n * n + 1}
    # bit for bit the projected M^-1 of gmres's iterate
    pre = inverse_laplacian_quarter(returned[0].reshape(g.shape), g)
    assert np.array_equal(du, pre - pre.mean())
    assert _rel_err(np.stack(planes), i_ddbar(ScalarField(g, du)).planes) <= 1e-12
    ref = _linearized(kernel, du, g)
    assert abs(l_du_mean - ref.mean()) <= 1e-12 * np.max(np.abs(ref))
