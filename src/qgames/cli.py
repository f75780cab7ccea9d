"""Command-line front door.

Subcommands: pd, minority, kolkata, sweep, search, verify.  Reports go to
stdout (JSON by default, CSV for sweeps), diagnostics to stderr.  Exit codes:
0 success, 1 verification failure, 2 input error (with a one-line JSON error
report on stdout).  Every move a literal builds is checked: one that is not a
unitary of the game's local dimension is an input error.

Identical invocations produce byte-identical output: floats are rendered at
12 significant digits, key order is fixed, and searches are deterministic for
a given seed.  Every search runs in one thread: ``search --threads N`` has
no effect and stays only because the bench workloads pass it, and
``QGAMES_THREADS`` is ignored.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import IO, Sequence

import numpy as np

from .games import GameSpec, game_by_name, game_to_json, play_profile, play_symmetric
from .solver import (
    _MAX_SWEEP_POINTS,
    SearchConfig,
    best_response,
    fidelity_sweep,
    pareto_check_symmetric,
    sweep_to_csv,
    verify_nash,
)
from .strategies import Family, StrategySpec, parse_strategy

_DEFAULT_PROFILE_LITERAL = {
    "pd": "eisert:0,pi/2",
    "minority": "full:pi/2,-pi/8,pi/8",
    "kolkata": "su3:table2",
}
_DEFAULT_SPACE = {"pd": "eisert", "minority": "full", "kolkata": "su3"}


def format_float(value: float) -> str:
    return format(float(value), ".12g")


def render_json(obj) -> str:
    """Canonical one-pass JSON: stable key order, 12-digit floats."""
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(render_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        body = ", ".join(
            f"{json.dumps(str(k))}: {render_json(v)}" for k, v in obj.items()
        )
        return "{" + body + "}"
    raise TypeError(f"cannot render {type(obj).__name__} as JSON")


def _render_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, value in obj.items():
            if isinstance(value, (dict, list, tuple)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
        return "\n".join(lines)
    if isinstance(obj, (list, tuple)):
        return "\n".join(
            _render_text(v, indent) if isinstance(v, (dict, list, tuple))
            else f"{pad}- {_scalar_text(v)}"
            for v in obj
        )
    return f"{pad}{_scalar_text(obj)}"


def _scalar_text(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    return str(value)


def _emit(report: dict, fmt: str, out: IO[str]) -> None:
    if fmt == "json":
        out.write(render_json(report) + "\n")
    else:
        out.write(_render_text(report) + "\n")


def _parse_profile(game: GameSpec, literals: Sequence[str]) -> list[StrategySpec]:
    specs = [parse_strategy(text) for text in literals]
    if len(specs) == 1 and game.shape.n > 1:
        specs = specs * game.shape.n
    if len(specs) != game.shape.n:
        raise ValueError(
            f"{game.name} needs {game.shape.n} strategies, got {len(specs)}"
        )
    return specs


def _config_from_args(args) -> SearchConfig:
    return SearchConfig(
        grid_points_per_axis=args.grid,
        refine_iterations=args.refine_iterations,
        refine_initial_step=args.refine_step,
        epsilon_nash=args.epsilon,
        seed=args.seed,
    )


def _cmd_game(args, out: IO[str]) -> int:
    if args.command == "pd":
        game = game_by_name("pd")
        if args.dump_payoffs:
            _emit(game_to_json(game), args.format, out)
            return 0
        alice = parse_strategy(args.alice)
        bob = parse_strategy(args.bob)
        report = play_profile(game, [bob.matrix(), alice.matrix()])
        payload = {
            "game": "pd",
            "alice": alice.literal(),
            "bob": bob.literal(),
            "fidelity": report.fidelity,
            "payoffs": list(report.payoffs),
            "probabilities": report.probabilities,
        }
        _emit(payload, args.format, out)
        return 0

    game = game_by_name(args.command, getattr(args, "n", None))
    if args.dump_payoffs:
        _emit(game_to_json(game), args.format, out)
        return 0
    payload = {"game": game.name, "n": game.shape.n, "d": game.shape.d}
    if args.profile:
        specs = _parse_profile(game, args.profile)
        ops = [spec.matrix() for spec in reversed(specs)]
        report = play_profile(game, ops, fidelity=args.fidelity)
        payload["profile"] = [spec.literal() for spec in specs]
    else:
        spec = parse_strategy(args.strategy)
        report = play_symmetric(game, spec.matrix(), fidelity=args.fidelity)
        payload["strategy"] = spec.literal()
    payload.update(
        {
            "fidelity": report.fidelity,
            "payoffs": list(report.payoffs),
            "probabilities": report.probabilities,
        }
    )
    _emit(payload, args.format, out)
    return 0


def _parse_fidelity(position: int, text: str) -> float:
    if not text.strip():
        raise ValueError(f"--fidelities entry {position} is empty")
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--fidelities entry {position} is not a number: {text!r}") from None


def _cmd_sweep(args, out: IO[str]) -> int:
    game = game_by_name(args.game, args.n)
    if game.name == "pd":
        raise ValueError("fidelity sweeps apply to the GHZ games, not pd")
    spec = parse_strategy(args.strategy)
    if args.fidelities is not None:
        grid = [_parse_fidelity(i, text) for i, text in enumerate(args.fidelities.split(","), 1)]
    else:
        points = args.points
        if points < 2:
            raise ValueError("sweep needs at least 2 fidelity points")
        if points > _MAX_SWEEP_POINTS:
            raise ValueError(
                f"a sweep takes at most {_MAX_SWEEP_POINTS} fidelities, got {points}")
        grid = [i / (points - 1) for i in range(points)]
    sweep = fidelity_sweep(game, spec, grid)
    if args.format == "csv":
        out.write(sweep_to_csv(sweep))
        return 0
    payload = {
        "game": game.name,
        "strategy": spec.literal(),
        "fidelities": list(sweep.fidelities),
        "payoffs": [list(row) for row in sweep.payoffs],
        "fit": {
            "slope": sweep.slope,
            "intercept": sweep.intercept,
            "max_residual": sweep.max_residual,
        },
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_search(args, out: IO[str]) -> int:
    game = game_by_name(args.game, args.n)
    space = Family(args.space)
    cfg = _config_from_args(args)
    literals = args.profile or [_DEFAULT_PROFILE_LITERAL[game.name]]
    profile = _parse_profile(game, literals)
    payload = {
        "game": game.name,
        "n": game.shape.n,
        "space": space.value,
        "mode": args.mode,
        "fidelity": args.fidelity,
        "profile": [spec.literal() for spec in profile],
        "config": cfg.to_json(),
    }
    if args.mode == "nash":
        verdict = verify_nash(game, profile, space, cfg, args.fidelity)
        payload.update(
            {
                "is_equilibrium": verdict.is_equilibrium,
                "max_unilateral_gain": verdict.max_unilateral_gain,
                "players": [
                    {
                        "player": i + 1,
                        "profile_payoff": verdict.profile_payoffs[i],
                        "deviation_payoff": verdict.deviation_payoffs[i],
                        "gain": verdict.gains[i],
                        "best_deviation": verdict.best_deviations[i].literal(),
                        "certificate": verdict.certificates[i],
                    }
                    for i in range(game.shape.n)
                ],
            }
        )
    elif args.mode == "best-response":
        result = best_response(game, profile, args.player, space, cfg, args.fidelity)
        payload.update(
            {
                "player": args.player,
                "best_strategy": result.strategy.literal(),
                "payoff": result.payoff,
                "evaluations": result.evaluations,
                "certificate": result.certificate,
            }
        )
    else:  # pareto
        result = pareto_check_symmetric(game, args.payoff, space, cfg, args.fidelity)
        payload.update(
            {
                "target_payoff": args.payoff,
                "is_pareto_optimal": result.is_optimal,
                "certificate": result.certificate,
                "witness": result.witness.literal() if result.witness else None,
                "witness_payoff": result.witness_payoff,
            }
        )
    _emit(payload, args.format, out)
    return 0


def _cmd_verify(args, out: IO[str]) -> int:
    from . import verify as verify_module

    results = verify_module.run_all_checks()
    if args.json:
        payload = [
            {
                "check": r.name,
                "expected": r.expected,
                "observed": r.observed,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in results
        ]
        out.write(render_json(payload) + "\n")
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            tol = "" if r.tolerance is None else f" tol={format_float(r.tolerance)}"
            out.write(
                f"[{status}] {r.name}: expected {_scalar_text(r.expected)}, "
                f"observed {_scalar_text(r.observed)}{tol}\n"
            )
        failed = sum(1 for r in results if not r.passed)
        out.write(f"{len(results) - failed}/{len(results)} checks passed\n")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise, to be reported as one JSON line."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qgames argument parser, built once per process and shared by every run."""
    parser = _Parser(
        prog="qgames",
        description="Quantum game engine: entangled dilemma, minority and "
                    "Kolkata restaurant protocols with equilibrium search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("json", "text"), default="json"):
        p.add_argument("--format", choices=choices, default=default)

    pd = sub.add_parser("pd", help="play one round of the entangled dilemma")
    pd.add_argument("--alice", default="eisert:0,0", help="player 1 strategy literal")
    pd.add_argument("--bob", default="eisert:0,0", help="player 2 strategy literal")
    pd.add_argument("--dump-payoffs", action="store_true",
                    help="print the classical payoff table as JSON")
    add_format(pd)

    mino = sub.add_parser("minority", help="play the n-player minority game")
    mino.add_argument("-n", type=int, default=4, help="number of players")
    mino.add_argument("--strategy", default=_DEFAULT_PROFILE_LITERAL["minority"],
                      help="symmetric strategy literal")
    mino.add_argument("--profile", nargs="+",
                      help="per-player literals, player 1 first")
    mino.add_argument("--fidelity", type=float, default=1.0)
    mino.add_argument("--dump-payoffs", action="store_true")
    add_format(mino)

    kol = sub.add_parser("kolkata", help="play the 3-player restaurant game")
    kol.add_argument("--strategy", default=_DEFAULT_PROFILE_LITERAL["kolkata"],
                     help="symmetric strategy literal")
    kol.add_argument("--profile", nargs="+",
                     help="per-player literals, player 1 first")
    kol.add_argument("--fidelity", type=float, default=1.0)
    kol.add_argument("--dump-payoffs", action="store_true")
    add_format(kol)

    sweep = sub.add_parser("sweep", help="payoffs across a fidelity grid")
    sweep.add_argument("--game", choices=("pd", "minority", "kolkata"),
                       default="kolkata")
    sweep.add_argument("-n", type=int, default=None)
    sweep.add_argument("--strategy", required=True)
    sweep.add_argument("--points", type=int, default=11,
                       help="equispaced fidelity count over [0, 1]")
    sweep.add_argument("--fidelities",
                       help="comma-separated explicit fidelity values")
    add_format(sweep, choices=("csv", "json", "text"), default="csv")

    search = sub.add_parser("search", help="best response / Nash / Pareto scans")
    search.add_argument("--game", choices=("pd", "minority", "kolkata"),
                        required=True)
    search.add_argument("-n", type=int, default=None)
    search.add_argument("--space", choices=[f.value for f in Family], default=None)
    search.add_argument("--mode", choices=("nash", "best-response", "pareto"),
                        default="nash")
    search.add_argument("--profile", nargs="+",
                        help="per-player literals, player 1 first "
                             "(one literal is broadcast to all players)")
    search.add_argument("--player", type=int, default=1,
                        help="deviating player for best-response mode")
    search.add_argument("--payoff", type=float, default=None,
                        help="target common payoff for pareto mode")
    search.add_argument("--fidelity", type=float, default=1.0)
    search.add_argument("--grid", type=int, default=24,
                        help="grid points per axis, 2..256 (SU(3) uses at most 6 on 6 free "
                             "axes); a periodic axis drops its repeated endpoint")
    search.add_argument("--refine-iterations", type=int, default=200)
    search.add_argument("--refine-step", type=float, default=0.1)
    search.add_argument("--epsilon", type=float, default=1e-6)
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    add_format(search)

    verify = sub.add_parser("verify", help="run the full verification suite")
    verify.add_argument("--json", action="store_true",
                        help="machine-readable check report")
    return parser


def run(argv: Sequence[str] | None = None, out: IO[str] | None = None) -> int:
    """Parse and dispatch; returns the process exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("pd", "minority", "kolkata"):
            return _cmd_game(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        if args.command == "search":
            if args.space is None:
                args.space = _DEFAULT_SPACE[args.game]
            if args.mode == "pareto" and args.payoff is None:
                raise ValueError("pareto mode needs --payoff")
            return _cmd_search(args, out)
        return _cmd_verify(args, out)
    except (ValueError, ArithmeticError) as exc:
        out.write(render_json({"error": str(exc)}) + "\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
