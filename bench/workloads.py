"""The three workloads: set-up, the fixed list of operations, and the checks.

A workload is built once per process from the seed.  Its constructor is the
timed set-up: it builds every ``GameSpec``, parses every strategy literal and
makes one warm call of each evaluator on its smallest input.  ``operations``
returns the pass as a list of :class:`Op`; every call looks the program's
function up by module attribute when it runs, so the traced run sees it.
Each op's ``check`` compares its output with the oracle, or with a property
the method must have, and returns what is wrong.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracle

PAYOFF_ATOL = 1e-9        # any reported payoff against the oracle
OPTIMUM_ATOL = 1e-6       # a full SU(2) search against the exact optimum
NEGATIVE_ATOL = 1e-12     # round-off allowed below zero in a probability


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]


def _close(problems: list[str], what: str, got: float, want: float,
           atol: float = PAYOFF_ATOL) -> None:
    if not abs(got - want) <= atol:
        problems.append(f"{what}: got {got!r}, oracle {want!r}")


def _at_least(problems: list[str], what: str, got: float, floor: float) -> None:
    if not got >= floor - PAYOFF_ATOL:
        problems.append(f"{what}: {got!r} below {floor!r}")


def _at_most(problems: list[str], what: str, got: float, ceiling: float) -> None:
    if not got <= ceiling + PAYOFF_ATOL:
        problems.append(f"{what}: {got!r} above {ceiling!r}")


def _literal(family: str, params) -> str:
    return family + ":" + ",".join(format(float(p), ".17g") for p in params)


# --- su3-search ----------------------------------------------------------------

class Su3Search:
    """Kolkata SU(3) searches at the default SearchConfig."""

    def __init__(self, qgames, seed: int):
        self.qgames = qgames
        self.game = qgames.kolkata()
        self.table2 = qgames.parse_strategy("su3:table2")
        self.cfg = qgames.SearchConfig(seed=seed)
        c3 = qgames.Family.CYCLIC_C3
        qgames.play_symmetric(self.game, self.table2.matrix())
        qgames.best_response(self.game, [self.table2] * 3, 1, c3, self.cfg)
        qgames.pareto_check_symmetric(self.game, 4 / 9, c3, self.cfg)

    def operations(self) -> list[Op]:
        solver, su3 = self.qgames.solver, self.qgames.Family.FRAME_SU3
        game, cfg, profile = self.game, self.cfg, [self.table2] * 3
        return [
            Op("pareto kolkata 4/9 su3",
               lambda: solver.pareto_check_symmetric(game, 4 / 9, su3, cfg, threads=1),
               self._check_pareto),
            Op("best-response kolkata su3:table2 player 1",
               lambda: solver.best_response(game, profile, 1, su3, cfg, threads=1),
               self._check_best_response),
        ]

    def _check_pareto(self, out) -> list[str]:
        if out.is_optimal or out.certificate != "symmetric-witness" or out.witness is None:
            return [f"pareto: expected a symmetric witness, got {out!r}"]
        problems: list[str] = []
        game, u = oracle.kolkata(), oracle.su3(*oracle.KOLKATA_TABLE2)
        if not out.witness_payoff > 4 / 9 + self.cfg.epsilon_nash:
            problems.append(f"pareto: witness {out.witness_payoff!r} does not beat 4/9")
        _at_least(problems, "pareto witness vs su3:table2", out.witness_payoff,
                  float(oracle.payoffs(game, [u] * 3)[0]))
        w = oracle.strategy(out.witness.family.value, out.witness.params)
        _close(problems, "pareto witness payoff", out.witness_payoff,
               float(oracle.payoffs(game, [w] * 3)[0]))
        return problems

    def _check_best_response(self, out) -> list[str]:
        problems: list[str] = []
        game, u = oracle.kolkata(), oracle.su3(*oracle.KOLKATA_TABLE2)
        w = oracle.strategy(out.strategy.family.value, out.strategy.params)
        _close(problems, "best response payoff", out.payoff,
               float(oracle.payoffs(game, [w, u, u])[0]))
        _at_least(problems, "best response vs profile", out.payoff,
                  float(oracle.payoffs(game, [u] * 3)[0]))
        _at_least(problems, "best response vs 2/3", out.payoff, 2 / 3)
        _at_most(problems, "best response vs 3*lambda_max", out.payoff,
                 oracle.su3_upper_bound(game, [u] * 3, 1))
        return problems


# --- qubit-search ----------------------------------------------------------------

# (game, n, space, mode, (profile literal, its family, its radian parameters))
_PD_PROFILE = ("eisert:0,pi/2", "eisert", oracle.PD_EQUILIBRIUM)
_MINORITY_PROFILE = ("full:pi/2,-pi/8,pi/8", "full", oracle.MINORITY_OPTIMAL)
_SEARCHES = (
    ("pd", 2, "eisert", "nash", _PD_PROFILE),
    ("pd", 2, "full", "best-response", _PD_PROFILE),
    *(("minority", n, "full", "nash", _MINORITY_PROFILE) for n in range(4, 10)),
)


class QubitSearch:
    """Qubit searches and ``qgames verify`` through the CLI, as users run them."""

    def __init__(self, qgames, seed: int):
        from qgames import cli, verify  # noqa: F401  (the CLI imports verify lazily)

        self.cli = cli
        self.runs = []
        for game, n, space, mode, (literal, family, params) in _SEARCHES:
            qgames.game_by_name(game, n)
            qgames.parse_strategy(literal)
            argv = ["search", "--game", game, "--space", space, "--mode", mode,
                    "--profile", literal, "--seed", str(seed), "--threads", "1"]
            if game == "minority":
                argv[3:3] = ["-n", str(n)]
            ogame = oracle.pd() if game == "pd" else oracle.minority(n)
            ops = [oracle.strategy(family, params)] * ogame.n
            self.runs.append((f"search {game} n={n} {space} {mode}", argv, ogame, ops, space))
        self._call(["pd", "--alice", _PD_PROFILE[0], "--bob", _PD_PROFILE[0]])
        self._call(["search", "--game", "pd", "--space", "bit", "--mode", "best-response",
                    "--threads", "1"])

    def _call(self, argv):
        buffer = io.StringIO()
        code = self.cli.run(argv, buffer)
        return code, buffer.getvalue()

    def operations(self) -> list[Op]:
        ops = [Op(label, lambda argv=argv: self._call(argv),
                  lambda out, label=label, game=game, profile=profile, space=space:
                  _check_search(label, out, game, profile, space))
               for label, argv, game, profile, space in self.runs]
        ops.append(Op("verify", lambda: self._call(["verify", "--json"]), _check_verify))
        return ops


def _check_verify(out) -> list[str]:
    code, text = out
    report = json.loads(text)
    failed = [c["check"] for c in report if c["pass"] is not True]
    if code != 0 or failed or not report:
        return [f"verify: exit code {code}, failed checks {failed}"]
    return []


def _check_search(label, out, game, profile, space) -> list[str]:
    code, text = out
    if code != 0:
        return [f"{label}: exit code {code}: {text.strip()[:200]}"]
    report = json.loads(text)
    base = oracle.payoffs(game, profile)
    problems: list[str] = []
    if report["mode"] == "best-response":
        player = report["player"]
        _check_deviation(problems, label, game, profile, player, space,
                         report["best_strategy"], report["payoff"], float(base[player - 1]))
        return problems
    gains = []
    for row in report["players"]:
        i = row["player"]
        what = f"{label} player {i}"
        _close(problems, f"{what} profile payoff", row["profile_payoff"], float(base[i - 1]))
        _check_deviation(problems, what, game, profile, i, space, row["best_deviation"],
                         row["deviation_payoff"], float(base[i - 1]))
        _close(problems, f"{what} gain", row["gain"],
               row["deviation_payoff"] - row["profile_payoff"])
        gains.append(row["gain"])
    _close(problems, f"{label} max gain", report["max_unilateral_gain"], max(gains))
    if report["is_equilibrium"] != (report["max_unilateral_gain"] <= 1e-6):
        problems.append(f"{label}: is_equilibrium disagrees with its gain")
    return problems


def _check_deviation(problems, what, game, profile, player, space, literal, payoff, base):
    trial = list(profile)
    trial[player - 1] = oracle.parse_literal(literal)
    _close(problems, f"{what} deviation payoff", payoff,
           float(oracle.payoffs(game, trial)[player - 1]))
    _at_least(problems, f"{what} deviation vs profile", payoff, base)
    optimum = oracle.su2_best_response(game, profile, player)
    if space == "full":
        _close(problems, f"{what} vs exact SU(2) optimum", payoff, optimum, OPTIMUM_ATOL)
    else:
        _at_most(problems, f"{what} vs exact SU(2) optimum", payoff, optimum)


# --- ghz-play --------------------------------------------------------------------

class GhzPlay:
    """The GHZ protocol with no search: dense plays next to many small ones.

    Minority n = 4..9: a symmetric and a per-player ``full`` profile at
    fidelity 1 and at two seeded fidelities.  n = 10: both profiles at one
    seeded fidelity.  n = 11: one per-player profile (D = 2048).  Kolkata:
    seeded symmetric and per-player ``su3`` plays at two seeded fidelities,
    the fidelity sweep at su3:table2 over a seeded grid, and the classical
    embedding checks of minority(8) and kolkata.
    """

    def __init__(self, qgames, seed: int):
        self.qgames = qgames
        rng = np.random.default_rng(seed)

        def full_params():
            return (rng.uniform(0, math.pi), *rng.uniform(-math.pi, math.pi, 2))

        def su3_params():
            return (*rng.uniform(0, math.pi / 2, 3), *rng.uniform(0, 2 * math.pi, 5))

        self.plays = []
        for n in range(4, 12):
            game = qgames.minority(n)
            fidelities = [1.0, *rng.uniform(0, 1, 2)] if n <= 9 else [rng.uniform(0, 1)]
            symmetric = full_params()
            profile = [full_params() for _ in range(n)]
            for f in fidelities:
                if n <= 10:
                    self._add_play(game, oracle.minority(n), "full", [symmetric] * n, f, True)
                self._add_play(game, oracle.minority(n), "full", profile, f, False)
        self.kolkata = qgames.kolkata()
        for f in rng.uniform(0, 1, 2):
            self._add_play(self.kolkata, oracle.kolkata(), "su3", [su3_params()] * 3, f, True)
            self._add_play(self.kolkata, oracle.kolkata(), "su3",
                           [su3_params() for _ in range(3)], f, False)
        self.table2 = qgames.parse_strategy("su3:table2")
        self.sweep_grid = [0.0, *sorted(rng.uniform(0, 1, 9)), 1.0]
        self.embedded = [qgames.minority(8), self.kolkata]

        qgames.play_symmetric(qgames.minority(4), self.plays[0][1][0], fidelity=1.0)
        qgames.fidelity_sweep(self.kolkata, self.table2, [0.0, 1.0])
        qgames.classical_embedding_check(qgames.minority(2))

    def _add_play(self, game, oracle_game, family, params, fidelity, symmetric):
        matrices = [self.qgames.parse_strategy(_literal(family, p)).matrix() for p in params]
        expected_ops = [oracle.strategy(family, p) for p in params]
        self.plays.append((game, matrices, oracle_game, expected_ops, float(fidelity), symmetric))

    def operations(self) -> list[Op]:
        games, solver = self.qgames.games, self.qgames.solver
        ops = []
        for game, matrices, oracle_game, expected_ops, f, symmetric in self.plays:
            kind = "symmetric" if symmetric else "profile"
            label = f"play {game.name} n={game.shape.n} {kind} f={f:.4f}"
            if symmetric:
                call = lambda g=game, m=matrices[0], f=f: games.play_symmetric(g, m, fidelity=f)
            else:
                call = lambda g=game, m=matrices[::-1], f=f: games.play_profile(g, m, fidelity=f)
            ops.append(Op(label, call, lambda out, label=label, g=oracle_game,
                          e=expected_ops, f=f: _check_play(label, out, g, e, f)))
        ops.append(Op("sweep kolkata su3:table2",
                      lambda: solver.fidelity_sweep(self.kolkata, self.table2, self.sweep_grid),
                      self._check_sweep))
        for game in self.embedded:
            label = f"embedding {game.name} n={game.shape.n}"
            ops.append(Op(label, lambda g=game: games.classical_embedding_check(g),
                          lambda out, label=label, size=game.shape.dim:
                          _check_embedding(label, out, size)))
        return ops

    def _check_sweep(self, out) -> list[str]:
        problems: list[str] = []
        game, u = oracle.kolkata(), oracle.su3(*oracle.KOLKATA_TABLE2)
        if len(out.payoffs) != len(self.sweep_grid):
            return [f"sweep: {len(out.payoffs)} rows for {len(self.sweep_grid)} fidelities"]
        for f, row in zip(self.sweep_grid, out.payoffs):
            want = oracle.payoffs(game, [u] * 3, f)
            for i, got in enumerate(row):
                _close(problems, f"sweep f={f} player {i + 1}", got, float(want[i]))
                _close(problems, f"sweep f={f} vs 2/9(f+2)", got, 2 / 9 * (f + 2))
        _close(problems, "sweep slope", out.slope, 2 / 9)
        _close(problems, "sweep intercept", out.intercept, 4 / 9)
        _at_most(problems, "sweep residual", out.max_residual, 0.0)
        return problems


def _check_play(label, out, game, ops, fidelity) -> list[str]:
    problems: list[str] = []
    for i, (got, want) in enumerate(zip(out.payoffs, oracle.payoffs(game, ops, fidelity),
                                        strict=True)):
        _close(problems, f"{label} player {i + 1}", got, float(want))
    got = np.zeros(game.dim)
    for key, p in out.probabilities.items():
        got[int(key, game.d)] = p
    if len(out.probabilities) != game.dim or got.min() < -NEGATIVE_ATOL:
        problems.append(f"{label}: probabilities are not a distribution over every outcome")
    _close(problems, f"{label} probability total", float(got.sum()), 1.0)
    _close(problems, f"{label} largest probability error",
           float(np.max(np.abs(got - oracle.probabilities(game, ops, fidelity)))), 0.0)
    if out.fidelity != fidelity:
        problems.append(f"{label}: fidelity {out.fidelity!r} != {fidelity!r}")
    return problems


def _check_embedding(label, out, profiles) -> list[str]:
    if not out.ok or not out.max_abs_error <= PAYOFF_ATOL or out.profiles_checked != profiles:
        return [f"{label}: {out!r}, expected all {profiles} profiles within {PAYOFF_ATOL}"]
    return []


WORKLOADS = {
    "su3-search": Su3Search,
    "qubit-search": QubitSearch,
    "ghz-play": GhzPlay,
}
