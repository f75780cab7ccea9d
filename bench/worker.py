"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread.  With
``--setup-only`` it stops once the workload is ready.  Otherwise it runs whole
passes over the workload's operations until the next pass would end after
``--seconds`` (at least one pass), checks every output outside the timed
region, and prints one JSON line.  With ``--trace 1`` it first runs untraced
passes, then wraps the package's public functions and runs as many traced
passes, and reports the per-layer figures of the traced ones.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MAX_PROBLEMS = 20


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import qgames

    if not Path(qgames.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"imported qgames from {qgames.__file__}, not from this checkout")
    return qgames


def _run_pass(ops):
    outputs = []
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.call())
        except Exception as exc:  # one failed operation must not end the run
            outputs.append(exc)
    return time.perf_counter() - start, outputs


class Tally:
    """Operations attempted, those that raised, and outputs that were wrong."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []

    def check(self, ops, outputs) -> None:
        for op, out in zip(ops, outputs):
            self.attempted += 1
            if isinstance(out, Exception):
                self.errors.append(f"{op.label}: raised {out!r}")
                continue
            try:
                self.wrong.extend(op.check(out))
            except Exception as exc:  # a malformed output is a wrong output
                self.wrong.append(f"{op.label}: output could not be checked: {exc!r}")


def _measure(ops, tally: Tally, seconds: float) -> list[float]:
    passes: list[float] = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin + statistics.median(passes) <= seconds:
        elapsed, outputs = _run_pass(ops)
        passes.append(elapsed)
        tally.check(ops, outputs)
    return passes


def _environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before it started us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    qgames = _import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](qgames, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    import spans

    ops = workload.operations()
    tally = Tally()
    result = {"setup_s": setup_s, "environment": _environment(numpy)}
    if args.trace:
        untraced = _measure(ops, tally, args.seconds / 2)
        tracer = spans.Tracer()
        result["absent"] = tracer.install()
        layers = []
        for _ in untraced:
            elapsed, outputs = _run_pass(ops)
            layers.append(spans.layer_metrics(tracer.take(), elapsed,
                                              statistics.median(untraced)))
            tally.check(ops, outputs)
        result["untraced_pass_s"] = untraced
        # counts repeat exactly from pass to pass; times take the median pass
        result["layers"] = {
            name: (statistics.median(layer[name][0] for layer in layers) if unit == "s"
                   else value, unit)
            for name, (value, unit) in layers[0].items()}
    else:
        result["pass_s"] = _measure(ops, tally, args.seconds)
    result.update(
        attempted=tally.attempted,
        failed=len(tally.errors),
        correct=not tally.wrong,
        problems=(tally.errors + tally.wrong)[:MAX_PROBLEMS],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
