"""Spectral torus calculus: complex Hessian, phase field, averaged angle."""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

import dhym.torus as torus
from dhym.errors import DimensionMismatch, NotPositiveDefinite
from dhym.hermitian import dF, eig_pair, eig_pair_batch, lagrangian_angle_det, symmetrize
from dhym.torus import (
    HermitianFormField,
    ScalarField,
    TorusGrid,
    _kernel_weights,
    _phase_planes,
    constant_form_field,
    eta_inverse_values,
    hat_theta,
    i_ddbar,
    identity_metric,
    inverse_laplacian_quarter,
    pencil_eigenvalues,
    theta_field,
)


def _det2(values):
    return values[..., 0, 0] * values[..., 1, 1] - values[..., 0, 1] * values[..., 1, 0]


def _random_pencil_fields(g, seed):
    """Pointwise positive-definite omega, far from the identity, and Hermitian chi."""
    rng = np.random.default_rng(seed)
    shape = g.shape + (g.n, g.n)
    base = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    om_vals = np.einsum("...ij,...kj->...ik", base, np.conj(base)) + 0.8 * np.eye(g.n)
    chi_vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return HermitianFormField(g, om_vals), HermitianFormField(g, chi_vals)


def test_grid_validation():
    TorusGrid(1, 8)
    TorusGrid(2, 64)
    with pytest.raises(DimensionMismatch):
        TorusGrid(3, 16)
    with pytest.raises(DimensionMismatch):
        TorusGrid(1, 48)
    with pytest.raises(DimensionMismatch):
        TorusGrid(1, 128)


def test_axis_names_follow_array_axes():
    from dhym.errors import ConfigError
    from dhym.runconfig import parse_scalar_spec

    g1, g2 = TorusGrid(1, 8), TorusGrid(2, 8)
    assert g1.axis_names == ("x1", "y1")
    assert g2.axis_names == ("x1", "y1", "x2", "y2")
    for axis, name in enumerate(g2.axis_names):
        assert np.all(np.diff(g2.axis_coordinate(name), axis=axis) > 0)
    with pytest.raises(DimensionMismatch, match=r"^unknown axis 'x2', have \['x1', 'y1'\]$"):
        g1.axis_coordinate("x2")
    with pytest.raises(ConfigError, match=r"^axis 'x2' not valid for n=1$"):
        parse_scalar_spec("0.1 cos x2", g1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_form_fields_reject_non_finite(bad):
    g = TorusGrid(1, 8)
    vals = np.ones(g.shape + (1, 1), dtype=complex)
    vals[3, 5] = bad
    with pytest.raises(DimensionMismatch, match="finite"):
        HermitianFormField(g, vals)
    with pytest.raises(DimensionMismatch, match="finite"):
        constant_form_field(g, [[bad]])


# --- i_ddbar ----------------------------------------------------------------


# every grid of both dimensions up to n=2 N=32 (the largest an inverse is
# cheap to check against scipy at)
TRANSFORM_GRIDS = [(1, 8), (1, 16), (1, 32), (1, 64), (2, 8), (2, 16), (2, 32)]


@pytest.mark.parametrize("n,N", TRANSFORM_GRIDS)
@pytest.mark.parametrize("amp", [1e-20, 1.0, 1e20])
def test_ifftn_matches_scipy_irfftn(n, N, amp):
    # random half spectra: the self-conjugate bins (every index 0 or N/2)
    # carry imaginary parts, which both routes must treat alike
    g = TorusGrid(n, N)
    rng = np.random.default_rng(N + n)
    half = g.shape[:-1] + (N // 2 + 1,)
    spectrum = amp * (rng.standard_normal(half) + 1j * rng.standard_normal(half))
    assert all(spectrum[(k,) * (2 * n)].imag != 0 for k in (0, N // 2))
    want = scipy.fft.irfftn(spectrum, s=g.shape)
    got = torus.ifftn(spectrum.copy(), g.shape)
    assert got.shape == g.shape and np.array_equal(got, want)


@pytest.mark.parametrize("n,N", TRANSFORM_GRIDS)
def test_transform_workers_by_grid_size(n, N, monkeypatch):
    # one worker below 2^18 points (n=1, and n=2 to N=16), _fft_workers() above
    monkeypatch.setenv("DHYM_THREADS", "3")
    seen = []

    def recording(name):
        real = getattr(scipy.fft, name)

        def call(*args, workers, **kwargs):
            seen.append((name, workers))
            return real(*args, workers=workers, **kwargs)

        return call

    names = ("rfftn", "ifftn", "irfft")
    monkeypatch.setattr(torus, "_fft", SimpleNamespace(**{k: recording(k) for k in names}))
    g = TorusGrid(n, N)
    inverse_laplacian_quarter(np.random.default_rng(N).standard_normal(g.shape), g)
    want = 1 if N ** (2 * n) < 2**18 else torus._fft_workers()
    assert want == (3 if (n, N) == (2, 32) else 1)
    assert seen == [("rfftn", want), ("ifftn", want), ("irfft", want)]


def test_i_ddbar_constant_is_zero():
    g = TorusGrid(1, 16)
    out = i_ddbar(ScalarField(g, np.full(g.shape, 2.5)))
    assert np.max(np.abs(out.values)) <= 1e-14


def test_i_ddbar_cosine_n1():
    g = TorusGrid(1, 32)
    x = g.axis_coordinate("x1")
    out = i_ddbar(ScalarField(g, np.cos(x)))
    assert np.max(np.abs(out.values[..., 0, 0].real + np.cos(x) / 4)) <= 1e-12


def test_i_ddbar_matches_high_order_fd():
    # sixth-order centered differences on a band-limited field; the fourth
    # order stencil cannot reach 1e-6 at these resolutions (its symbol error
    # is (kh)^4/30 ~ 3e-6 already for k=1 at N=64)
    g = TorusGrid(2, 32)
    rng = np.random.default_rng(5)
    vals = np.zeros(g.shape)
    for axis in ("x1", "y1", "x2", "y2"):
        coord = g.axis_coordinate(axis)
        vals = vals + rng.uniform(-0.5, 0.5) * np.cos(coord + rng.uniform(0, 2 * np.pi))
    vals = vals + 0.3 * np.cos(g.axis_coordinate("x1")) * np.sin(g.axis_coordinate("y2"))
    u = ScalarField(g, vals)
    out = i_ddbar(u)

    h = 2 * np.pi / g.N

    def d1(a, ax):
        return (
            45.0 * (np.roll(a, -1, ax) - np.roll(a, 1, ax))
            - 9.0 * (np.roll(a, -2, ax) - np.roll(a, 2, ax))
            + (np.roll(a, -3, ax) - np.roll(a, 3, ax))
        ) / (60.0 * h)

    fd01 = 0.25 * (d1(d1(vals, 0), 2) + d1(d1(vals, 1), 3)) + 0.25j * (
        d1(d1(vals, 0), 3) - d1(d1(vals, 1), 2)
    )
    scale = np.max(np.abs(fd01))
    assert np.max(np.abs(out.values[..., 0, 1] - fd01)) / scale <= 1e-6

    fd00 = 0.25 * (d1(d1(vals, 0), 0) + d1(d1(vals, 1), 1))
    scale = np.max(np.abs(fd00))
    assert np.max(np.abs(out.values[..., 0, 0].real - fd00)) / scale <= 1e-6


def test_i_ddbar_matches_fd_at_n2_full_resolution():
    # same comparison at N=64 on the two-dimensional torus; band-limited to
    # modes <= 2 so the sixth-order stencil stays below 1e-6
    g = TorusGrid(2, 64)
    x1, y1 = g.axis_coordinate("x1"), g.axis_coordinate("y1")
    x2, y2 = g.axis_coordinate("x2"), g.axis_coordinate("y2")
    vals = (
        0.4 * np.cos(x1) * np.sin(y2)
        + 0.3 * np.sin(2 * y1 + x2)
        + 0.2 * np.cos(x2 + y2)
    )
    out = i_ddbar(ScalarField(g, vals))

    h = 2 * np.pi / g.N

    def d1(a, ax):
        return (
            45.0 * (np.roll(a, -1, ax) - np.roll(a, 1, ax))
            - 9.0 * (np.roll(a, -2, ax) - np.roll(a, 2, ax))
            + (np.roll(a, -3, ax) - np.roll(a, 3, ax))
        ) / (60.0 * h)

    dx1, dy1 = d1(vals, 0), d1(vals, 1)
    fd01 = 0.25 * (d1(dx1, 2) + d1(dy1, 3)) + 0.25j * (d1(dx1, 3) - d1(dy1, 2))
    scale = np.max(np.abs(fd01))
    assert np.max(np.abs(out.values[..., 0, 1] - fd01)) / scale <= 1e-6
    del fd01
    fd00 = 0.25 * (d1(dx1, 0) + d1(dy1, 1))
    scale = np.max(np.abs(fd00))
    assert np.max(np.abs(out.values[..., 0, 0].real - fd00)) / scale <= 1e-6


def test_i_ddbar_hermitian_output():
    g = TorusGrid(2, 8)
    rng = np.random.default_rng(0)
    u = ScalarField(g, rng.standard_normal(g.shape))
    out = i_ddbar(u)
    assert np.max(np.abs(out.values - np.conj(np.swapaxes(out.values, -1, -2)))) == 0.0


def test_i_ddbar_commutes_with_translation():
    g = TorusGrid(1, 32)
    x = g.axis_coordinate("x1")
    y = g.axis_coordinate("y1")
    vals = np.cos(x) + 0.5 * np.sin(2 * y) + 0.2 * np.cos(x + y)
    shifted = np.roll(np.roll(vals, 3, axis=0), -5, axis=1)
    a = i_ddbar(ScalarField(g, shifted)).values
    b = np.roll(np.roll(i_ddbar(ScalarField(g, vals)).values, 3, axis=0), -5, axis=1)
    assert np.max(np.abs(a - b)) <= 1e-12


# --- pointwise pencil fields ---------------------------------------------------


def test_theta_field_trivials():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    zero = constant_form_field(g, np.zeros((2, 2)))
    assert np.max(np.abs(theta_field(om, zero).values)) == 0.0
    assert np.max(np.abs(theta_field(om, identity_metric(g)).values - np.pi / 2)) <= 1e-15


def test_theta_field_matches_determinant_route():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    u = ScalarField(
        g,
        0.2 * np.cos(g.axis_coordinate("x1")) + 0.1 * np.sin(g.axis_coordinate("y2")),
    )
    chi = HermitianFormField(
        g, constant_form_field(g, 0.4 * np.eye(2)).values + i_ddbar(u).values,
        _symmetrized=True,
    )
    tf = theta_field(om, chi).values.reshape(-1)
    flat = chi.values.reshape(-1, 2, 2)
    for idx in range(0, flat.shape[0], 257):
        assert abs(tf[idx] - lagrangian_angle_det(np.eye(2), flat[idx])) <= 1e-12


def test_theta_field_scaling_property():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    chi = constant_form_field(g, np.diag([0.7, -0.3]))
    for c in (0.5, 2.0, -1.5):
        scaled = HermitianFormField(g, c * chi.values, _symmetrized=True)
        got = theta_field(om, scaled).values
        expect = np.arctan(c * 0.7) + np.arctan(-c * 0.3)
        assert np.max(np.abs(got - expect)) <= 1e-14


@pytest.mark.parametrize("pivot", [-1.0, np.nan, np.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize(
    "kernel", [theta_field, eta_inverse_values, hat_theta], ids=lambda f: f.__name__
)
def test_theta_field_reports_offending_index(kernel, pivot):
    g = TorusGrid(1, 8)
    vals = np.ones(g.shape + (1, 1), dtype=complex)
    vals[2, 3, 0, 0] = pivot
    bad = HermitianFormField(g, vals, _symmetrized=True)
    with pytest.raises(NotPositiveDefinite, match=r"\(2, 3\)"):
        kernel(bad, identity_metric(g))


@pytest.mark.parametrize("n", [1, 2])
def test_theta_field_matches_pencil_arctan(n):
    g = TorusGrid(n, 8)
    om, chi = _random_pencil_fields(g, 17 + n)
    expect = np.sum(np.arctan(pencil_eigenvalues(om, chi)), axis=-1)
    assert np.max(np.abs(theta_field(om, chi).values - expect)) <= 1e-12
    if n == 2:
        # chi = t omega + O(1) puts both eigenvalues near t, so the phase
        # sits within 1e-3 of +-pi without crossing the branch cut
        for t in (2500.0, -2500.0):
            steep = HermitianFormField(g, t * om.values + chi.values, _symmetrized=True)
            expect = np.sum(np.arctan(pencil_eigenvalues(om, steep)), axis=-1)
            got = theta_field(om, steep).values
            assert np.min(np.abs(got)) >= np.pi - 1e-3
            assert np.all(np.sign(got) == np.sign(t))
            assert np.max(np.abs(got - expect)) <= 1e-12


def test_pencil_eigenvalues_match_scalar_kernel():
    g = TorusGrid(2, 8)
    om, chi = _random_pencil_fields(g, 11)
    lam = pencil_eigenvalues(om, chi).reshape(-1, 2)
    ref, _ = eig_pair_batch(om.values.reshape(-1, 2, 2), chi.values.reshape(-1, 2, 2))
    assert lam.shape == (g.num_points, 2)
    assert np.max(np.abs(ref - lam)) <= 1e-11


# --- linearization kernel ----------------------------------------------------------


def test_eta_inverse_trivials():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    zero = constant_form_field(g, np.zeros((2, 2)))
    assert np.max(np.abs(eta_inverse_values(om, zero) - om.values)) == 0.0
    chi = constant_form_field(g, np.diag([2.0, -1.0]))
    expect = np.diag([1.0 / 5.0, 1.0 / 2.0])
    assert np.max(np.abs(eta_inverse_values(om, chi) - expect)) <= 1e-14


def test_eta_inverse_determinant_identity():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    u = ScalarField(
        g,
        0.3 * np.cos(g.axis_coordinate("x1")) + 0.2 * np.sin(g.axis_coordinate("x2")),
    )
    chi = HermitianFormField(
        g, constant_form_field(g, 0.5 * np.eye(2)).values + i_ddbar(u).values,
        _symmetrized=True,
    )
    eta_inv = eta_inverse_values(om, chi)
    lhs = _det2(om.values).real / _det2(eta_inv).real
    rhs = np.abs(_det2(om.values + 1j * chi.values)) ** 2
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_eta_inverse_matches_pointwise_dF(n):
    g = TorusGrid(n, 8)
    om, chi = _random_pencil_fields(g, 29 + n)
    kernel = eta_inverse_values(om, chi)
    assert np.array_equal(kernel, np.conj(np.swapaxes(kernel, -1, -2)))
    flat_om = om.values.reshape(-1, n, n)
    flat_chi = chi.values.reshape(-1, n, n)
    flat_kernel = kernel.reshape(-1, n, n)
    for idx in range(0, flat_om.shape[0], 37):
        ref = dF(eig_pair(flat_om[idx], flat_chi[idx]))
        assert np.max(np.abs(flat_kernel[idx] - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref)))


# --- closed forms on real planes (the solver's state) ------------------------------


CONSTANT_OMEGA = {
    1: [[1.7]],
    2: [[2.0, 0.3 + 0.4j], [0.3 - 0.4j, 1.5]],
}


def _reference(omega, chi):
    """Phase as the arctan sum of the LAPACK pencil eigenvalues, and the
    kernel planes of Herm((omega + i chi)^-1) from a LAPACK inverse."""
    g = chi.grid
    n = g.n
    flat = (-1, n, n)
    lam, _ = eig_pair_batch(omega.values.reshape(flat), chi.values.reshape(flat))
    phase = np.sum(np.arctan(lam), axis=-1).reshape(g.shape)
    k = symmetrize(np.linalg.inv(omega.values + 1j * chi.values))
    planes = [k[..., j, j].real for j in range(n)]
    if n == 2:
        planes += [2.0 * k[..., 0, 1].real, 2.0 * k[..., 0, 1].imag]
    return phase, np.stack(planes)


def _assert_closed_forms_match(omega, chi):
    n = chi.grid.n
    w, c = omega.planes, chi.planes
    phase, kernel = _reference(omega, chi)
    assert np.max(np.abs(_phase_planes(w, c, n) - phase)) <= 1e-12
    got = _kernel_weights(w, c, n)
    assert got.shape == kernel.shape
    assert np.max(np.abs(got - kernel)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_plane_closed_forms_match_lapack(n):
    g = TorusGrid(n, 8)
    omega, chi = _random_pencil_fields(g, 70 + n)
    assert omega.planes.shape == (n * n,) + g.shape
    _assert_closed_forms_match(omega, chi)


@pytest.mark.parametrize("n", [1, 2])
def test_constant_omega_collapses_and_matches_lapack(n):
    g = TorusGrid(n, 8)
    _, chi = _random_pencil_fields(g, 80 + n)
    omega = constant_form_field(g, CONSTANT_OMEGA[n])
    w = omega.planes
    assert w.shape == (n * n,) + (1,) * (2 * n)
    _assert_closed_forms_match(omega, chi)


def _bits(planes):
    return planes.view(np.uint64)


@pytest.mark.parametrize("n", [1, 2])
def test_plane_storage_round_trip(n):
    g = TorusGrid(n, 8)
    _, full = _random_pencil_fields(g, 90 + n)
    collapsed = constant_form_field(g, CONSTANT_OMEGA[n])
    x1, yn = g.axis_coordinate("x1"), g.axis_coordinate(f"y{n}")
    v = ScalarField(g, 0.2 * np.cos(x1) + 0.1 * np.sin(yn))
    for f in (collapsed, full):
        back = HermitianFormField(g, f.values)
        assert back.planes.shape == f.planes.shape
        assert np.array_equal(_bits(back.planes), _bits(f.planes))
        vals = f.values
        assert vals.shape == g.shape + (n, n)
        assert np.array_equal(vals, np.conj(np.swapaxes(vals, -1, -2)))
        by_values = HermitianFormField(g, f.values + i_ddbar(v).values, _symmetrized=True)
        assert np.array_equal(_bits((f + i_ddbar(v)).planes), _bits(by_values.planes))
    assert collapsed.planes.shape == (n * n,) + (1,) * (2 * n)
    assert not collapsed.values.flags.writeable


@pytest.mark.parametrize("n", [1, 2])
def test_joint_scaling_keeps_phase_and_scales_kernel(n):
    """The pencil eigenvalues of (s omega, s chi) do not depend on s, so the
    closed forms must give the same phase and a kernel scaled by 1/s over
    the whole supported magnitude range."""
    g = TorusGrid(n, 8)
    full_omega, chi = _random_pencil_fields(g, 95 + n)
    for omega in (constant_form_field(g, CONSTANT_OMEGA[n]), full_omega):
        theta = theta_field(omega, chi).values
        kernel = eta_inverse_values(omega, chi)
        for s in (1e-6, 1.0, 1e60):
            scaled_omega = HermitianFormField(g, s * omega.values)
            scaled_chi = HermitianFormField(g, s * chi.values)
            assert np.max(np.abs(theta_field(scaled_omega, scaled_chi).values - theta)) <= 1e-12
            scaled_kernel = s * eta_inverse_values(scaled_omega, scaled_chi)
            assert np.max(np.abs(scaled_kernel - kernel)) <= 1e-12 * np.max(np.abs(kernel))


# --- averaged angle ------------------------------------------------------------------


def test_hat_theta_zero_chi():
    g = TorusGrid(2, 8)
    result = hat_theta(identity_metric(g), constant_form_field(g, np.zeros((2, 2))))
    assert result.hat_theta == 0.0
    assert result.modulus > 0.0


def test_hat_theta_constant_n1():
    g = TorusGrid(1, 16)
    result = hat_theta(identity_metric(g), constant_form_field(g, [[0.8]]))
    assert abs(result.hat_theta - np.arctan(0.8)) <= 1e-14


def test_hat_theta_invariance_under_hessian_shift():
    g = TorusGrid(2, 8)
    om = identity_metric(g)
    chi0 = constant_form_field(g, 0.4 * np.eye(2))
    base = hat_theta(om, chi0)
    assert base.branch_certificate < np.pi / 2
    rng = np.random.default_rng(2)
    for _ in range(25):
        vals = np.zeros(g.shape)
        for axis in ("x1", "y1", "x2", "y2"):
            coord = g.axis_coordinate(axis)
            vals = vals + rng.uniform(-0.3, 0.3) * np.cos(
                int(rng.integers(1, 3)) * coord + rng.uniform(0, 2 * np.pi)
            )
        chi = HermitianFormField(
            g, chi0.values + i_ddbar(ScalarField(g, vals)).values, _symmetrized=True
        )
        assert abs(hat_theta(om, chi).hat_theta - base.hat_theta) <= 1e-10
