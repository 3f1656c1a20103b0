"""Supercritical arithmetic, subsolution criteria, and the kappa estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym.errors import (
    NotASubsolution,
    NotOnLevelSet,
    PhaseOutOfRange,
    PreconditionFailed,
)
from dhym.phase import (
    PhaseSpec,
    csub_bounded_oracle,
    csub_lattice_check,
    csub_stability_margin,
    is_csub_pointwise,
    level_set_arithmetic_check,
    level_set_sample,
    level_set_sample_batch,
    dichotomy_kappa_estimate,
    _haar_unitary,
    _sample_level_set_tail,
)
from dhym.hermitian import symmetrize


# --- PhaseSpec ----------------------------------------------------------------


def test_phase_spec_validation():
    PhaseSpec(2, np.pi / 2, np.pi / 2)  # margin exactly eps0 is allowed
    with pytest.raises(PhaseOutOfRange):
        PhaseSpec(2, np.pi, 0.1)  # sigma at the top of the band
    with pytest.raises(PhaseOutOfRange):
        PhaseSpec(2, 0.3, 0.4)  # eps0 exceeds the margin
    with pytest.raises(PhaseOutOfRange):
        PhaseSpec(2, 0.3, 0.0)
    with pytest.raises(PhaseOutOfRange):
        PhaseSpec(2, 0.3, float("nan"))


# --- level-set sampling ---------------------------------------------------------


def test_level_set_sample_symmetric_point():
    spec = PhaseSpec(2, np.pi / 2, np.pi / 2)
    assert np.allclose(level_set_sample(spec, [1.0]), [1.0, 1.0])


def test_level_set_sample_reevaluates():
    spec = PhaseSpec(2, np.pi / 2, np.pi / 2)
    pt = level_set_sample(spec, [np.tan(1.4)])
    assert pt is not None
    assert abs(np.sum(np.arctan(pt)) - spec.sigma) <= 1e-12
    assert abs(pt[1] - np.tan(np.pi / 2 - 1.4)) <= 1e-12


def test_level_set_sample_out_of_branch():
    spec = PhaseSpec(2, np.pi / 2, np.pi / 2)
    # residual angle >= pi/2 leaves the principal branch
    assert level_set_sample(spec, [np.tan(-0.2)]) is None


@pytest.mark.parametrize("columns", [0, 1, 3])
def test_level_set_batch_checks_the_free_count(columns):
    spec = PhaseSpec(3, np.pi / 2 + 0.2, 0.2)
    with pytest.raises(PhaseOutOfRange, match="need 2 free values"):
        level_set_sample_batch(spec, np.zeros((4, columns)))
    with pytest.raises(PhaseOutOfRange, match="need 2 free values"):
        level_set_sample(spec, np.zeros(columns))


def test_level_set_batch_matches_scalar(rng):
    spec = PhaseSpec(3, np.pi / 2 + 0.2, 0.2)
    free = np.tan(rng.uniform(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, (500, 2)))
    batch = level_set_sample_batch(spec, free)
    singles = [level_set_sample(spec, f) for f in free]
    singles = [s for s in singles if s is not None]
    assert len(singles) == batch.shape[0]
    assert np.max(np.abs(np.sort(batch, axis=0) - np.sort(singles, axis=0))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_level_set_batch_matches_row_sort(rng, n):
    # reference: every row sorted descending, then summed, as for wide rows
    spec = PhaseSpec(n, (n - 2) * np.pi / 2 + 0.2, 0.2)
    free = np.tan(rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (4000, n - 1)))
    free[:500] = free[:500, :1]  # ties
    free[500:600] = 0.0
    free[600:700, 0] = -0.0
    ordered = np.sort(free, axis=1)[:, ::-1]
    residual = spec.sigma - np.sum(np.arctan(ordered), axis=1)
    ok = np.abs(residual) < np.pi / 2
    last = np.tan(residual[ok])
    ordered = ordered[ok]
    keep = last <= ordered[:, -1]
    expect = np.concatenate([ordered[keep], last[keep, None]], axis=1)
    got = level_set_sample_batch(spec, free)
    assert expect.shape[0] > 100
    assert np.array_equal(got, expect)


# --- level-set arithmetic -------------------------------------------------------


def test_level_set_arithmetic_symmetric_point():
    spec = PhaseSpec(2, np.pi / 2, np.pi / 2)
    rep = level_set_arithmetic_check([1.0, 1.0], spec)
    assert rep.i_holds and rep.ii_holds and rep.iv_holds


def test_level_set_arithmetic_requires_membership():
    spec = PhaseSpec(2, np.pi / 2, np.pi / 2)
    with pytest.raises(NotOnLevelSet):
        level_set_arithmetic_check([1.0, 2.0], spec)


def test_level_set_arithmetic_asymptotic_floor():
    # as the top eigenvalue grows, the bottom one approaches -cot(eps0)
    spec = PhaseSpec(2, 0.3, 0.3)
    for lam1 in (10.0, 1e3, 1e6):
        lam2 = np.tan(spec.sigma - np.arctan(lam1))
        rep = level_set_arithmetic_check([lam1, lam2], spec)
        assert rep.iv_holds
        assert abs(lam2) <= rep.min_lambda_bound
    assert abs(np.tan(0.3 - np.pi / 2) + 1.0 / np.tan(0.3)) <= 1e-12


def test_level_set_arithmetic_sweep_no_violations(rng):
    for n in (2, 3):
        spec = PhaseSpec(n, (n - 2) * np.pi / 2 + 0.2, 0.2)
        free = np.tan(rng.uniform(-np.pi / 2 + 1e-6, np.pi / 2 - 1e-6, (20000, n - 1)))
        pts = level_set_sample_batch(spec, free)
        assert pts.shape[0] > 100
        assert np.all(pts[:, -2] + pts[:, -1] >= np.tan(spec.eps0 / 2) - 1e-12)
        assert np.all(np.sum(pts, axis=1) >= -1e-12)
        if n == 3:
            e1 = np.sum(pts, axis=1)
            e2 = 0.5 * (e1**2 - np.sum(pts**2, axis=1))
            assert np.all(e2 >= -1e-12)


# --- subsolution criterion -------------------------------------------------------


def test_is_csub_examples():
    v = is_csub_pointwise([1.0, 1.0], np.pi / 2)
    assert v.is_csub and abs(v.worst_margin - np.pi / 4) <= 1e-15
    v = is_csub_pointwise([0.0, 0.0], np.pi / 2 + 0.1)
    assert not v.is_csub


def test_is_csub_phase_range():
    with pytest.raises(PhaseOutOfRange):
        is_csub_pointwise([1.0, 1.0], np.pi)


def test_oracle_examples():
    assert csub_bounded_oracle([1.0, 1.0], np.pi / 2) is True
    assert csub_bounded_oracle([0.0, 0.0], np.pi / 2 + 0.1) is False
    # far inside the cone with a low target
    assert csub_bounded_oracle([6.0, 6.0], 0.15) is True


def test_criterion_matches_oracle(rng):
    for n in (2, 3):
        for _ in range(150):
            mus = rng.uniform(-5.0, 5.0, n)
            h = rng.uniform((n - 2) * np.pi / 2 + 0.1, n * np.pi / 2 - 0.1)
            assert is_csub_pointwise(mus, h).is_csub == csub_bounded_oracle(mus, h)


@given(
    bump=st.floats(min_value=0.01, max_value=2.0),
    which=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=100)
def test_margin_monotone_in_mu(bump, which):
    mus = np.array([0.8, 0.3, -0.2])
    h = np.pi / 2 + 0.4
    before = is_csub_pointwise(mus, h).worst_margin
    mus2 = mus.copy()
    mus2[which] += bump
    after = is_csub_pointwise(mus2, h).worst_margin
    assert after >= before - 1e-15


# --- stability and lattice --------------------------------------------------------


def test_stability_margin_replay():
    h = np.pi / 2
    verdicts = [is_csub_pointwise([1.0, 1.0], h)]
    eps = csub_stability_margin(verdicts, h)
    assert abs(eps - np.pi / 4) <= 1e-15
    assert is_csub_pointwise([1.0, 1.0], h + 0.9 * eps).is_csub
    assert not is_csub_pointwise([1.0, 1.0], h + 1.1 * eps).is_csub


def test_stability_margin_requires_subsolutions():
    with pytest.raises(NotASubsolution):
        csub_stability_margin([is_csub_pointwise([0.0, 0.0], np.pi / 2 + 0.1)], 0.0)


def test_lattice_example_and_sweep(rng):
    assert csub_lattice_check([1.0, 1.0], np.pi / 2, np.pi / 2 - 0.1)
    count = 0
    while count < 400:
        n = int(rng.integers(2, 4))
        mus = rng.uniform(-3.0, 5.0, n)
        h1, h2 = rng.uniform((n - 2) * np.pi / 2 + 0.05, n * np.pi / 2 - 0.05, 2)
        if is_csub_pointwise(mus, h1).is_csub and is_csub_pointwise(mus, h2).is_csub:
            assert csub_lattice_check(mus, h1, h2)
            count += 1


# --- kappa estimate -----------------------------------------------------------------


def test_kappa_positive_example():
    spec = PhaseSpec(2, np.pi / 2 + 0.2, 0.2)
    kappa = dichotomy_kappa_estimate(
        np.diag([1.0, 1.0]), spec, delta=0.05, radius=10.0, samples=1000, seed=3
    )
    assert kappa > 0.0


def test_kappa_monotone_in_radius():
    spec = PhaseSpec(2, np.pi / 2 + 0.2, 0.2)
    radii = (20.0, 10.0, 5.0)
    kappas = [
        dichotomy_kappa_estimate(
            np.diag([1.0, 1.0]), spec, delta=0.05, radius=r, samples=1000, seed=3
        )
        for r in radii
    ]
    assert kappas[0] >= kappas[1] >= kappas[2]


def test_kappa_degenerate_base_fails():
    spec = PhaseSpec(2, np.pi / 2 + 0.2, 0.2)
    lam1 = 50.0
    lam2 = np.tan(spec.sigma - np.arctan(lam1))
    with pytest.raises(PreconditionFailed):
        dichotomy_kappa_estimate(
            np.diag([lam1, lam2]), spec, delta=0.05, radius=10.0, samples=1000
        )


def _scalar_haar_unitary(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _scalar_kappa_reference(b_matrix, spec, radius, samples, seed):
    """Per-sample loop of the kappa estimate: its value and every Haar frame."""
    n = spec.n
    b_matrix = symmetrize(np.asarray(b_matrix, dtype=complex))
    rng = np.random.default_rng(seed)
    pool = _sample_level_set_tail(spec, samples, rng)
    frames = [_scalar_haar_unitary(n, rng) for _ in range(pool.shape[0])]
    keep = np.linalg.norm(pool, axis=1) > radius
    kappa_hat = np.inf
    for lam, u in zip(pool[keep], [f for f, k in zip(frames, keep) if k]):
        a = (u * lam) @ u.conj().T
        eta_inv = np.linalg.inv(np.eye(n) + a @ a)
        trace = float(np.trace(eta_inv).real)
        k1 = float(np.trace(eta_inv @ (b_matrix - a)).real) / trace
        k2 = float(np.min(np.diagonal(eta_inv).real)) / trace
        kappa_hat = min(kappa_hat, max(k1, k2))
    return float(kappa_hat), np.array(frames)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [3, 12345])
def test_kappa_matches_scalar_loop(n, seed):
    spec = PhaseSpec(n, (n - 1) * np.pi / 2 + 0.2, 0.2)
    b = np.diag((n - 1) * np.linspace(1.0, 0.8, n)).astype(complex)
    b[0, 1], b[1, 0] = 0.3 - 0.2j, 0.3 + 0.2j
    kappa_ref, frames_ref = _scalar_kappa_reference(b, spec, 10.0, 2000, seed)
    kappa = dichotomy_kappa_estimate(b, spec, 0.05, 10.0, samples=2000, seed=seed)
    assert kappa == kappa_ref
    rng = np.random.default_rng(seed)
    _sample_level_set_tail(spec, 2000, rng)
    frames = _haar_unitary(n, frames_ref.shape[0], rng)
    assert np.array_equal(frames, frames_ref)
