"""The verification suite's own machinery: the batched property draws, the
SplitMix64 stream they come from and the search determinism check."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qgames import states, verify
from qgames.strategies import Family

PRESERVATION = ("state-norm-preservation", "density-trace-preservation")


def by_name(results):
    return {result.name: result for result in results}


def record_draws(monkeypatch):
    """Spy on the suite's core and dense calls; returns their argument lists."""
    core_calls, dense_calls = [], []
    core, dense = verify.protocol_amplitudes, verify._dense_trace_residual

    def spy_core(game, moves):
        # recorded as (B, n, d, d) per-row profiles, the draws in row order
        core_calls.append((np.stack(moves, axis=1),))
        return core(game, moves)

    def spy_dense(ops, psi, fs):
        dense_calls.append((ops, psi, fs))
        return dense(ops, psi, fs)

    monkeypatch.setattr(verify, "protocol_amplitudes", spy_core)
    monkeypatch.setattr(verify, "_dense_trace_residual", spy_dense)
    return core_calls, dense_calls


def concatenated(calls):
    """Each argument of the recorded calls, flattened and joined over the calls."""
    return [np.concatenate([call[k].ravel() for call in calls]) for k in range(len(calls[0]))]


class TestPropertySuite:
    def test_every_draw_goes_through_the_core(self, monkeypatch):
        core_calls, dense_calls = record_draws(monkeypatch)
        assert all(result.passed for result in verify.check_property_suites())
        assert sum(len(ops) for ops, in core_calls) == 999
        assert sum(len(fs) for _, _, fs in dense_calls) == 252

    @pytest.mark.parametrize("budget", [1 << 10, 1 << 16])
    def test_sample_does_not_depend_on_the_budget(self, monkeypatch, budget):
        core_calls, dense_calls = record_draws(monkeypatch)
        default = by_name(verify.check_property_suites())
        default_draws = concatenated(core_calls) + concatenated(dense_calls)
        core_calls.clear()
        dense_calls.clear()
        monkeypatch.setattr(states, "BATCH_BUDGET", budget)
        patched = by_name(verify.check_property_suites())
        for name in PRESERVATION:
            assert patched[name].observed == default[name].observed
        patched_draws = concatenated(core_calls) + concatenated(dense_calls)
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

    def test_core_that_scales_its_output_fails_the_norm_check(self, monkeypatch):
        core = verify.protocol_amplitudes
        monkeypatch.setattr(verify, "protocol_amplitudes",
                            lambda game, moves: core(game, moves) * (1 + 1e-6))
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


def splitmix64_doubles(seed, count):
    """A scalar SplitMix64 on Python ints mod 2**64, as doubles (z >> 11) * 2**-53."""
    mask = (1 << 64) - 1
    state, out = seed, []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append((z >> 11) * 2.0 ** -53)
    return out


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, verify._PROPERTY_SEED, (1 << 64) - 1])
    def test_matches_the_scalar_generator(self, seed):
        assert verify._SplitMix64(seed).random(64).tolist() == splitmix64_doubles(seed, 64)

    def test_first_output_at_seed_zero_is_the_published_one(self):
        # splitmix64.c (Vigna) seeded with 0 first returns 0xe220a8397b1dcdaf
        assert verify._SplitMix64(0).random(1)[0] == (0xE220A8397B1DCDAF >> 11) * 2.0 ** -53

    def test_split_draws_equal_one_draw(self):
        split = verify._SplitMix64(7)
        whole = verify._SplitMix64(7)
        np.testing.assert_array_equal(np.concatenate([split.random(100), split.random(200)]),
                                      whole.random(300))
        np.testing.assert_array_equal(
            np.concatenate([split.standard_normal(100), split.standard_normal((10, 20)).ravel()]),
            whole.standard_normal(300))

    def test_ranges(self):
        rng = verify._SplitMix64(verify._PROPERTY_SEED)
        u = rng.random((100, 100))
        assert u.shape == (100, 100) and u.min() >= 0.0 and u.max() < 1.0
        x = rng.uniform(-2.0, 3.0, 10_000)
        assert x.min() >= -2.0 and x.max() < 3.0
        for n in (1, 2, 7, 1000):
            picks = rng.integers(n, size=(100, 40))
            assert picks.shape == (100, 40) and picks.dtype == np.intp
            assert picks.min() >= 0 and picks.max() < n
        assert np.unique(rng.integers(7, size=1000)).tolist() == list(range(7))
        z = rng.standard_normal((20_000, 3))
        assert z.shape == (20_000, 3) and np.all(np.isfinite(z))
        assert abs(z.mean()) < 0.02 and abs(z.var() - 1.0) < 0.03

    def test_largest_draw_stays_in_range(self):
        # u = (2**53 - 1) * 2**-53 < 1 gives floor(u * n) = n - 1, never n
        rng = verify._SplitMix64(0)
        rng.random = lambda size: np.full(size, 1.0 - 2.0 ** -53)
        assert rng.integers(1000, size=3).tolist() == [999] * 3
        assert rng.integers((1 << 53) - 1, size=1)[0] < (1 << 53) - 1

    def test_zero_draw_gives_a_finite_normal(self):
        rng = verify._SplitMix64(0)
        rng.random = lambda size: np.zeros(size)
        assert rng.standard_normal(4).tolist() == [0.0] * 4


def test_verify_loads_no_numpy_random():
    # the property draws come from the in-package SplitMix64 stream
    src = os.path.dirname(os.path.dirname(verify.__file__))
    code = ("import io, sys, qgames.cli as cli\n"
            "assert cli.run(['verify', '--json'], io.StringIO()) == 0\n"
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "False\n"


class TestSearchDeterminism:
    def test_checks_that_threads_stay_output_neutral(self):
        # --threads is accepted and ignored; the check's report text is unchanged
        [result] = verify.check_search_determinism()
        assert result.passed
        assert result.expected == "byte-identical reports at --threads 1 and 8 for an exact search"
