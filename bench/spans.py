"""Spans at the module boundaries of ``qgames``, recorded from outside.

The tracer replaces public functions by module attribute with a wrapper that
records one span per call: key, parent span, start, end, and one measured
quantity (rows built, evaluations, bytes written, ...).  Only the benchmark
process is touched; the package's files are not.  Spans stay in memory until
the traced pass ends, then :func:`layer_metrics` folds them into per-layer
figures.
Self time is a span's duration minus the durations of its child spans.

The program runs single-threaded under the benchmark (threads=1, BLAS pinned),
so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

_DENSE_BYTES = 16  # complex128


def _rows(args, kwargs, result):
    return int(np.broadcast(*args, *kwargs.values()).size)


def _evaluations(args, kwargs, result):
    return int(result.evaluations)


def _density_bytes(args, kwargs, result):
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    return rho.shape.dim ** 2 * _DENSE_BYTES


def _noise_bytes(args, kwargs, result):
    psi = args[0] if args else kwargs["psi"]
    return psi.shape.dim ** 2 * _DENSE_BYTES


def _stdout_bytes(args, kwargs, result):
    out = args[1] if len(args) > 1 else kwargs.get("out")
    return len(out.getvalue().encode("utf-8")) if hasattr(out, "getvalue") else 0


_BATCH_CALLERS = ("qgames.solver", "qgames.verify")

# (home module, function, caller modules or None for every qgames module, measure)
TARGETS = (
    ("strategies", "su2_full_batch", _BATCH_CALLERS, _rows),
    ("strategies", "su2_eisert_batch", _BATCH_CALLERS, _rows),
    ("strategies", "su3_frame_batch", _BATCH_CALLERS, _rows),
    ("games", "payoff_diagonal", None, None),
    ("games", "payoff_operator", None, None),
    ("games", "play_profile", None, None),
    ("games", "play_symmetric", None, None),
    ("games", "play_pd", None, None),
    ("games", "classical_embedding_check", None, None),
    ("states", "conjugate_density", None, _density_bytes),
    ("states", "expectation", None, None),
    ("states", "add_noise", None, _noise_bytes),
    ("linalg", "kron", None, None),
    ("linalg", "kron_all", None, None),
    ("linalg", "require_unitary", None, None),
    ("linalg", "hermitian_residual", None, None),
    ("solver", "best_response", None, _evaluations),
    ("solver", "verify_nash", None, None),
    ("solver", "pareto_check_symmetric", None, None),
    ("solver", "fidelity_sweep", None, None),
    ("verify", "run_all_checks", None, None),
    ("cli", "run", None, _stdout_bytes),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, key: str, fn, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, parent, start, end, 0)
            if measure is not None:
                try:
                    value = measure(args, kwargs, result)
                except Exception:  # a changed signature loses the figure, not the call
                    value = 0
                spans[index] = (key, parent, start, end, value)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the targets the package no longer has."""
        for home in {target[0] for target in TARGETS}:
            try:
                importlib.import_module(f"qgames.{home}")
            except ModuleNotFoundError:
                pass
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qgames" or name.startswith("qgames.")}
        absent = []
        for home, name, callers, measure in TARGETS:
            original = getattr(modules.get(f"qgames.{home}"), name, None)
            if not callable(original):
                absent.append(f"{home}.{name}")
                continue
            wrapped = self.wrap(f"{home}.{name}", original, measure)
            for mod_name in callers or modules:
                mod = modules.get(mod_name)
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)
        return absent

    def take(self) -> list[tuple]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


class _Stat:
    __slots__ = ("calls", "self_s", "measured", "single")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.measured = 0
        self.single = 0


def fold(spans: list[tuple]) -> tuple[dict[str, _Stat], float]:
    """Per-key call counts and self times, plus the time top-level spans cover."""
    child_time = defaultdict(float)
    for key, parent, start, end, value in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, _Stat] = defaultdict(_Stat)
    covered = 0.0
    for index, (key, parent, start, end, value) in enumerate(spans):
        stat = stats[key]
        stat.calls += 1
        stat.self_s += (end - start) - child_time[index]
        stat.measured += value
        stat.single += value == 1
        if parent < 0:
            covered += end - start
    return stats, covered


_BATCH = ("strategies.su2_full_batch", "strategies.su2_eisert_batch",
          "strategies.su3_frame_batch")


def layer_metrics(spans: list[tuple], traced_pass_s: float,
                  untraced_pass_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    stats, covered = fold(spans)

    def calls(*keys):
        return sum(stats[k].calls for k in keys if k in stats)

    def self_s(*keys):
        return sum((stats[k].self_s for k in keys if k in stats), 0.0)

    def measured(*keys):
        return sum(stats[k].measured for k in keys if k in stats)

    single = sum(stats[k].single for k in _BATCH if k in stats)
    plays = ("games.play_profile", "games.play_symmetric", "games.play_pd")
    return {
        "strategies.batch_calls": (calls(*_BATCH) - single, "count"),
        "strategies.single_row_calls": (single, "count"),
        "strategies.rows_built": (measured(*_BATCH), "count"),
        "strategies.batch_s": (self_s(*_BATCH), "s"),
        "games.payoff_diagonal_calls": (calls("games.payoff_diagonal"), "count"),
        "games.payoff_diagonal_s": (
            self_s("games.payoff_diagonal", "games.payoff_operator"), "s"),
        "games.play_calls": (calls("games.play_profile"), "count"),
        "games.play_s": (self_s(*plays), "s"),
        "games.embedding_s": (self_s("games.classical_embedding_check"), "s"),
        "states.conjugate_calls": (calls("states.conjugate_density"), "count"),
        "states.conjugate_s": (self_s("states.conjugate_density"), "s"),
        "states.expectation_s": (self_s("states.expectation"), "s"),
        "states.noise_s": (self_s("states.add_noise"), "s"),
        "states.dense_mb": (
            measured("states.conjugate_density", "states.add_noise") / 2 ** 20, "MB"),
        "linalg.kron_s": (self_s("linalg.kron", "linalg.kron_all"), "s"),
        "linalg.checks_s": (
            self_s("linalg.require_unitary", "linalg.hermitian_residual"), "s"),
        "solver.best_response_calls": (calls("solver.best_response"), "count"),
        "solver.evaluations": (measured("solver.best_response"), "count"),
        "solver.self_s": (self_s("solver.best_response"), "s"),
        "solver.pareto_s": (self_s("solver.pareto_check_symmetric"), "s"),
        "solver.nash_s": (self_s("solver.verify_nash"), "s"),
        "solver.sweep_s": (self_s("solver.fidelity_sweep"), "s"),
        "verify.run_s": (self_s("verify.run_all_checks"), "s"),
        "cli.run_calls": (calls("cli.run"), "count"),
        "cli.self_s": (self_s("cli.run"), "s"),
        "cli.stdout_bytes": (measured("cli.run"), "bytes"),
        "bench.untraced_s": (traced_pass_s - covered, "s"),
        "bench.trace_overhead_s": (traced_pass_s - untraced_pass_s, "s"),
    }
