"""The traced run's accounting: self time, counts and absent targets.

Run with ``python3 -m pytest bench/test_spans.py`` from the repository root.
The last test wraps the package in this process; nothing else here uses it.
"""

import math
import sys
from pathlib import Path

import pytest

import spans


def _busy(n=20000):
    return sum(i * i for i in range(n))


def test_self_time_is_duration_minus_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: _busy(), None)
    outer = tracer.wrap("outer", lambda: (inner(), _busy(), inner()), None)
    outer()
    recorded = tracer.take()
    stats, covered = spans.fold(recorded)
    assert (stats["outer"].calls, stats["inner"].calls) == (1, 2)
    key, parent, start, end, _ = recorded[0]
    assert key == "outer" and parent == -1
    assert covered == end - start
    assert stats["outer"].self_s + stats["inner"].self_s == pytest.approx(end - start, abs=1e-12)
    assert 0 < stats["outer"].self_s < end - start
    assert tracer.take() == []


def test_a_raising_call_still_closes_its_span():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    wrapped = tracer.wrap("fail", fail, lambda args, kwargs, result: 7)
    with pytest.raises(ValueError):
        wrapped()
    after = tracer.wrap("after", lambda: None, None)
    after()
    (k1, p1, *_, v1), (k2, p2, *_) = tracer.take()
    assert (k1, p1, v1) == ("fail", -1, 0)
    assert (k2, p2) == ("after", -1)


def test_install_counts_one_play_and_reports_absent(monkeypatch):
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import qgames

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("games", "no_such_function", None, None),))
    tracer = spans.Tracer()
    assert tracer.install() == ["games.no_such_function"]
    game = qgames.minority(4)
    qgames.play_symmetric(game, qgames.su2_full(math.pi / 2, -math.pi / 8, math.pi / 8))
    layers = spans.layer_metrics(tracer.take(), 1.0, 1.0)
    assert layers["games.play_calls"] == (1, "count")
    assert layers["games.payoff_diagonal_calls"] == (4, "count")
    assert layers["states.conjugate_calls"] == (1, "count")
    # add_noise and conjugate_density each hold one 16x16 complex matrix
    assert layers["states.dense_mb"] == (2 * 16 ** 2 * 16 / 2 ** 20, "MB")
    assert layers["strategies.rows_built"] == (0, "count")
    assert layers["bench.trace_overhead_s"] == (0.0, "s")
