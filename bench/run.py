"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload su3-search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload runs in fresh single-threaded processes: BLAS and OpenMP are
pinned to one thread before numpy loads and ``QGAMES_THREADS`` is unset.
``setup_s`` is the median over SETUP_SAMPLES fresh processes of the time from
start to ready; the last of them goes on to the timed passes.  The last line
of stdout is the result as JSON; the full record, with the machine, Python,
numpy and BLAS configuration, goes to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("su3-search", "qubit-search", "ghz-play")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("QGAMES_THREADS", "PYTHONPATH")}
    env.update({name: "1" for name in PINNED})
    return env


def _spawn(args, deadline: float, setup_only: bool) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for a {args.workload} process")
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
                          text=True, timeout=remaining)
    if done.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qgames" / "__init__.py").is_file():
        print(f"no qgames package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        samples = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [_spawn(args, deadline, True)["setup_s"] for _ in range(samples)]
        record = _spawn(args, deadline, False)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(record["setup_s"])

    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in record["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "pass_s": {"value": statistics.median(record["pass_s"]), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "setup_samples_s": setups, **record, "result": result}
    (out_dir / name).write_text(json.dumps(full, indent=1) + "\n")

    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    for missing in record.get("absent", []):
        print(f"absent from the package, not traced: {missing}", file=sys.stderr)
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {env['machine']}, nproc {env['nproc']}, "
          f"python {env['python']}, numpy {env['numpy']}, {env['blas'].get('name')} "
          f"{env['blas'].get('version')}; record in .bench_results/{name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
