"""Invariant surface catalog: brackets, forms, trace formula, conformal bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym.errors import BadRange, NotPositiveDefinite, UnknownSurface
from dhym.surfaces import (
    InvariantMetric,
    catalog,
    conformal_bound,
    conformal_min_on_endpoints,
    csub_on_surface,
    trace_formula,
)

PARAM_SAMPLES = [
    ("inoue-sm", {"alpha": a, "beta": b})
    for a in (1.0, -1.0, 2.0, -2.0)
    for b in (0.0, 1.0)
] + [("inoue-pm", {"q": q}) for q in (0.0, 0.5, -0.5)] + [("kodaira", {})]


def test_catalog_invariants_across_parameters():
    for name, params in PARAM_SAMPLES:
        model = catalog(name, **params)
        assert model.jacobi_residual() <= 1e-14
        assert model.j_squared_residual() <= 1e-14
        assert model.holomorphic_frame_residual() <= 1e-14
        assert model.bc_dim == 1


def test_catalog_inoue_sm_brackets():
    model = catalog("inoue-sm", alpha=1.0, beta=0.0)
    c = model.structure_constants
    assert c[0, 3, 0] == -1.0  # [e1, e4] = -alpha e1
    assert c[2, 3, 2] == 2.0  # [e3, e4] = 2 alpha e3
    assert c[3, 2, 2] == -2.0  # antisymmetry
    assert model.bc_generator == "phi2"


def test_catalog_kodaira_generator():
    model = catalog("kodaira")
    assert model.bc_generator == "phi1"
    assert model.structure_constants[0, 1, 2] == -1.0  # [e1, e2] = -e3


def test_catalog_inoue_pm_form():
    model = catalog("inoue-pm", q=0.5)
    # phi1 = e1 + i e2 + i q e4
    assert np.allclose(model.invariant_forms[0], [1.0, 1.0j, 0.0, 0.5j])


def test_catalog_unknown_name():
    with pytest.raises(UnknownSurface):
        catalog("unknown")


def test_catalog_rejects_zero_alpha():
    with pytest.raises(BadRange):
        catalog("inoue-sm", alpha=0.0)


# --- trace formula ---------------------------------------------------------------


def test_trace_formula_trivials():
    assert trace_formula(InvariantMetric(1.0, 1.0), 1.0) == 1.0
    assert trace_formula(InvariantMetric(2.0, 1.0), 2.0) == 2.0


def test_trace_formula_positive(rng):
    for _ in range(200):
        w11 = rng.uniform(0.1, 4.0)
        w22 = rng.uniform(0.1, 4.0)
        cap = np.sqrt(w11 * w22)
        w12 = rng.uniform(0, 0.95 * cap) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        c = rng.uniform(0.01, 5.0)
        assert trace_formula(InvariantMetric(w11, w22, w12), c) > 0.0


def test_trace_formula_linearity_and_scaling():
    m = InvariantMetric(1.5, 0.8, 0.3 + 0.2j)
    assert abs(trace_formula(m, 3.0) - 3.0 * trace_formula(m, 1.0)) <= 1e-15
    s = 2.5
    scaled = InvariantMetric(s * m.w11, s * m.w22, s * m.w12)
    assert abs(trace_formula(scaled, 1.0) - trace_formula(m, 1.0) / s) <= 1e-15


def test_metric_positivity_enforced():
    with pytest.raises(NotPositiveDefinite):
        InvariantMetric(1.0, 1.0, 1.5)
    with pytest.raises(NotPositiveDefinite):
        InvariantMetric(-1.0, 1.0)


# --- conformal bound ---------------------------------------------------------------


def test_conformal_bound_trivial_factor():
    for l1, l2 in ((1.0, 0.5), (2.0, -0.3), (-0.4, -0.1)):
        assert conformal_bound(l1, l2, 1.0, 1.0) == np.arctan(l1) + np.arctan(l2)


def test_conformal_bound_example():
    val = conformal_bound(1.0, 1.0, 0.5, 2.0)
    assert abs(val - 2.0 * np.arctan(0.5)) <= 1e-12
    assert abs(val - 0.92730) <= 1e-5


def test_conformal_bound_bad_range():
    with pytest.raises(BadRange):
        conformal_bound(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(BadRange):
        conformal_bound(1.0, 1.0, 2.0, 1.0)
    for m, big_m in ((float("nan"), 1.0), (1.0, float("nan")), (1.0, float("inf"))):
        with pytest.raises(BadRange):
            conformal_bound(1.0, 1.0, m, big_m)


def test_conformal_bound_never_exceeded_for_positive_pairs(rng):
    for _ in range(2000):
        l1, l2 = rng.uniform(0.01, 6.0, 2)
        m, big_m = np.sort(rng.uniform(0.2, 3.0, 2))
        bound = conformal_bound(l1, l2, m, big_m)
        g = np.exp(rng.uniform(np.log(m), np.log(big_m), 32))
        sampled = np.arctan(g * l1) + np.arctan(g * l2)
        assert np.all(sampled >= bound - 1e-12)


@given(
    l1=st.floats(min_value=0.05, max_value=5.0),
    l2=st.floats(min_value=0.05, max_value=5.0),
    m=st.floats(min_value=0.2, max_value=1.5),
    spread=st.floats(min_value=0.0, max_value=2.0),
)
@settings(max_examples=150)
def test_conformal_endpoint_minimum_for_positive_pairs(l1, l2, m, spread):
    bound, sampled, attained = conformal_min_on_endpoints(l1, l2, m, m + spread)
    assert attained
    assert sampled >= bound - 1e-12


# --- surface subsolution verdict -----------------------------------------------------


def test_csub_rank_one_identity_metric():
    v = csub_on_surface("inoue-sm", InvariantMetric(1.0, 1.0), 1.0, alpha=1.0)
    assert abs(v.lambdas[0] - 1.0) <= 1e-14
    assert abs(v.lambdas[1]) <= 1e-14
    assert abs(v.phase_bound - np.pi / 4) <= 1e-14
    assert v.csub_certified


def test_csub_zero_class_is_trivial():
    v = csub_on_surface("kodaira", InvariantMetric(1.0, 1.0), 0.0)
    assert v.trivial and v.phase_bound == 0.0 and v.csub_certified


def test_csub_sign_mirror():
    plus = csub_on_surface("inoue-pm", InvariantMetric(1.3, 0.7, 0.2), 1.0, q=0.5)
    minus = csub_on_surface("inoue-pm", InvariantMetric(1.3, 0.7, 0.2), -1.0, q=0.5)
    assert abs(plus.phase_bound + minus.phase_bound) <= 1e-14
    assert plus.csub_certified == minus.csub_certified


def test_csub_trace_consistency():
    # for the phi2 generator the top eigenvalue is the trace formula value
    metric = InvariantMetric(1.7, 0.9, 0.3 - 0.1j)
    v = csub_on_surface("inoue-sm", metric, 2.0, alpha=1.0)
    assert abs(sum(v.lambdas) - trace_formula(metric, 2.0)) <= 1e-12
