"""The verification suite's own machinery: the batched property draws and
the search determinism check."""

import tracemalloc

import numpy as np
import pytest

from qgames import states, verify
from qgames.strategies import Family

PRESERVATION = ("state-norm-preservation", "density-trace-preservation")


def by_name(results):
    return {result.name: result for result in results}


def record_draws(monkeypatch):
    """Spy on the suite's kernel and dense calls; returns their argument lists."""
    kernel_calls, dense_calls = [], []
    kernel, dense = verify.apply_local_batch, verify._dense_trace_residual

    def spy_kernel(ops, amplitudes, d):
        kernel_calls.append((ops, amplitudes))
        return kernel(ops, amplitudes, d)

    def spy_dense(ops, psi, fs):
        dense_calls.append((ops, psi, fs))
        return dense(ops, psi, fs)

    monkeypatch.setattr(verify, "apply_local_batch", spy_kernel)
    monkeypatch.setattr(verify, "_dense_trace_residual", spy_dense)
    return kernel_calls, dense_calls


def concatenated(calls):
    """Each argument of the recorded calls, flattened and joined over the calls."""
    return [np.concatenate([call[k].ravel() for call in calls]) for k in range(len(calls[0]))]


class TestPropertySuite:
    def test_every_draw_goes_through_the_kernel(self, monkeypatch):
        kernel_calls, dense_calls = record_draws(monkeypatch)
        assert all(result.passed for result in verify.check_property_suites())
        assert sum(len(ops) for ops, _ in kernel_calls) == 999
        assert sum(len(fs) for _, _, fs in dense_calls) == 252

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 16])
    def test_sample_does_not_depend_on_the_budget(self, monkeypatch, budget):
        kernel_calls, dense_calls = record_draws(monkeypatch)
        default = by_name(verify.check_property_suites())
        default_draws = concatenated(kernel_calls) + concatenated(dense_calls)
        kernel_calls.clear()
        dense_calls.clear()
        monkeypatch.setattr(states, "BATCH_BUDGET", budget)
        patched = by_name(verify.check_property_suites())
        for name in PRESERVATION:
            assert abs(patched[name].observed - default[name].observed) <= 1e-15
        patched_draws = concatenated(kernel_calls) + concatenated(dense_calls)
        for left, right in zip(default_draws, patched_draws, strict=True):
            np.testing.assert_array_equal(left, right)

    def test_warm_call_stays_under_one_megabyte(self):
        verify.check_property_suites()
        tracemalloc.start()
        try:
            verify.check_property_suites()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_kernel_that_scales_its_output_fails_the_norm_check(self, monkeypatch):
        kernel = verify.apply_local_batch
        monkeypatch.setattr(verify, "apply_local_batch",
                            lambda ops, amplitudes, d: kernel(ops, amplitudes, d) * (1 + 1e-6))
        results = by_name(verify.check_property_suites())
        assert not results["state-norm-preservation"].passed

    def test_scaled_su2_draws_fail_their_checks(self, monkeypatch):
        draws = verify._random_family_batches

        def scaled(rng):
            for family, mats in draws(rng):
                yield family, mats * (1 + 1e-6) if family is Family.FULL_SU2 else mats

        monkeypatch.setattr(verify, "_random_family_batches", scaled)
        results = by_name(verify.check_property_suites())
        for name in ("strategy-unitarity", *PRESERVATION):
            assert not results[name].passed, name


class TestSearchDeterminism:
    def test_checks_that_threads_stay_output_neutral(self):
        # --threads is accepted and ignored; the check's report text is unchanged
        [result] = verify.check_search_determinism()
        assert result.passed
        assert result.expected == "byte-identical reports at --threads 1 and 8 for an exact search"
