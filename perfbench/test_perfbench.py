"""Tests of the benchmark's own machinery (no impactdesk import needed)."""

import types

import numpy as np

import inputs
import run
import spans


def test_same_seed_same_inputs():
    for seed in (0, 7):
        assert inputs.ensemble_seed(seed, 3) == inputs.ensemble_seed(seed, 3)
        assert inputs.strong_noise_seed(seed, 3) \
            == inputs.strong_noise_seed(seed, 3)
        np.testing.assert_array_equal(inputs.query_states(seed, 2, 50),
                                      inputs.query_states(seed, 2, 50))
        a, b = (inputs.certify_grids(seed, 2, 11, 12) for _ in range(2))
        for x, y in zip(a + b, b + a):
            for u, v in zip(x, y):
                np.testing.assert_array_equal(u, v)
    assert inputs.ensemble_seed(0, 0) != inputs.ensemble_seed(1, 0)
    assert inputs.ensemble_seed(0, 0) != inputs.ensemble_seed(0, 1)
    assert not np.array_equal(inputs.query_states(0, 0, 50),
                              inputs.query_states(1, 0, 50))
    assert not np.array_equal(inputs.query_states(0, 0, 50),
                              inputs.query_states(0, 1, 50))


def test_numpy_shim_is_a_no_op_when_trapz_exists():
    def trapz():
        pass

    fake = types.SimpleNamespace(trapz=trapz, trapezoid=np.trapezoid)
    assert run.apply_numpy_shim(fake) is False
    assert fake.trapz is trapz


def test_numpy_shim_aliases_trapezoid_when_trapz_is_missing():
    fake = types.SimpleNamespace(trapezoid=np.trapezoid)
    assert run.apply_numpy_shim(fake) is True
    assert fake.trapz is np.trapezoid


def test_self_time_on_a_synthetic_span_tree():
    # 0 root [0, 10]; 1 child [1, 3]; 2 child [4, 9] with grandchildren
    # 3 [5, 6] and 4 [6.5, 8]; 5 a second root [12, 13]
    start = np.array([0.0, 1.0, 4.0, 5.0, 6.5, 12.0])
    end = np.array([10.0, 3.0, 9.0, 6.0, 8.0, 13.0])
    parent = np.array([-1, 0, 0, 2, 2, -1])
    np.testing.assert_allclose(spans.self_times(start, end, parent),
                               [3.0, 2.0, 2.5, 1.0, 1.5, 1.0])
    code = spans.SITES.index("sde._conjugate_batch")
    site = np.array([0, code, 0, 0, 0, 0])
    np.testing.assert_array_equal(spans.inside(site, parent, [code]),
                                  [False, False, False, False, False, False])
    site = np.array([0, 0, code, 0, 0, 0])
    np.testing.assert_array_equal(spans.inside(site, parent, [code]),
                                  [False, False, False, True, True, False])


def test_layer_counts_on_a_synthetic_span_tree():
    # one field evaluation inside a conjugate solve, one outside; each
    # calls the sharing rule once on 6 points, with 2 and 1 inverse calls
    # per member (2 members)
    s = spans.SITES.index
    site = [s("sde._conjugate_batch"), s("fields.field_core"),
            s("fields.sharing_derivatives")] + \
        [s("pareto.inverse_log_marginal")] * 4 + \
        [s("sde.field_core"), s("fields.sharing_derivatives")] + \
        [s("pareto.inverse_log_marginal")] * 2
    parent = [-1, 0, 1, 2, 2, 2, 2, -1, 7, 8, 8]
    work = [3, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6]
    n = len(site)
    counts = spans.layer_counts(
        {"site": np.array(site), "parent": np.array(parent),
         "start": np.zeros(n), "end": np.zeros(n),
         "work": np.array(work, dtype=float)}, members=2)
    assert counts["fields.field_core_calls"] == 2
    assert counts["fields.conjugate_evals_per_call"] == 1.0
    assert counts["fields.reeval_share"] == 0.5
    assert counts["pareto.residual_evals_per_call"] == 1.5
    assert counts["pareto.inverse_elems_per_point"] == 1.5
    assert counts["conditions.single_row_solves"] == 0
