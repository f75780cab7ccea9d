"""Verification suite: every quantitative claim the engine must reproduce.

Each check compares an engine result against its independently known value
at a fixed tolerance.  ``run_all_checks`` powers both ``qgames verify`` and
the acceptance test module.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .games import (
    classical_embedding_check,
    classical_uniform_payoff,
    kolkata,
    minority,
    play_symmetric,
    prisoners_dilemma,
)
from .solver import (
    SearchConfig,
    best_response,
    fidelity_sweep,
    pareto_check_symmetric,
    verify_nash,
)
from .states import PureState, SystemShape, apply_local_pure
from .strategies import (
    Family,
    KOLKATA_OPTIMAL_PARAMS,
    MINORITY_OPTIMAL_PARAMS,
    PD_EQUILIBRIUM_PARAMS,
    StrategySpec,
    su2_eisert_batch,
    su2_full_batch,
    su3_frame_batch,
)

PROPERTY_DRAWS = 1000
_PROPERTY_SEED = 20240917


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: object
    observed: object
    tolerance: float | None


def _tolerance_check(name: str, observed: float, tolerance: float,
                     expected: object = 0.0) -> CheckResult:
    return CheckResult(name, bool(observed <= tolerance), expected,
                       float(observed), tolerance)


# --- criterion 1: dilemma classical embedding ---------------------------------

def check_pd_classical_embedding() -> list[CheckResult]:
    result = classical_embedding_check(prisoners_dilemma())
    return [
        _tolerance_check(
            "pd-classical-embedding", result.max_abs_error, 1e-9,
            expected="payoff table reproduced by all 4 {I,X} profiles",
        )
    ]


# --- criterion 2: dilemma quantum equilibrium ----------------------------------

def check_pd_quantum_equilibrium() -> list[CheckResult]:
    game = prisoners_dilemma()
    spec = StrategySpec(Family.EISERT_SU2, PD_EQUILIBRIUM_PARAMS)
    report = play_symmetric(game, spec.matrix())
    payoff_error = max(abs(p - 3.0) for p in report.payoffs)
    verdict = verify_nash(game, [spec, spec], Family.EISERT_SU2, SearchConfig())
    return [
        _tolerance_check("pd-equilibrium-payoff", payoff_error, 1e-9, expected=3.0),
        _tolerance_check(
            "pd-equilibrium-nash-gain", verdict.max_unilateral_gain, 1e-6
        ),
    ]


# --- criterion 3: full-SU(2) destabilization -----------------------------------

def check_pd_full_su2_destabilization() -> list[CheckResult]:
    game = prisoners_dilemma()
    spec = StrategySpec(Family.EISERT_SU2, PD_EQUILIBRIUM_PARAMS)
    base = play_symmetric(game, spec.matrix()).payoffs[0]
    response = best_response(game, [spec, spec], 1, Family.FULL_SU2, SearchConfig())
    gain = response.payoff - base
    return [
        CheckResult(
            "pd-su2-destabilization-gain",
            bool(gain > 0.1),
            "unilateral gain > 0.1 over the restricted equilibrium",
            float(gain),
            None,
        )
    ]


# --- criterion 4: minority game -------------------------------------------------

def check_minority() -> list[CheckResult]:
    game = minority(4)
    classical = classical_uniform_payoff(game)
    oracle_ok = all(value == Fraction(1, 8) for value in classical)

    spec = StrategySpec(Family.FULL_SU2, MINORITY_OPTIMAL_PARAMS)
    report = play_symmetric(game, spec.matrix())
    payoff_error = max(abs(p - 0.25) for p in report.payoffs)
    tie_mass = sum(
        p for label, p in report.probabilities.items() if label.count("1") == 2
    )
    verdict = verify_nash(game, [spec] * 4, Family.FULL_SU2, SearchConfig())
    pareto = pareto_check_symmetric(game, 0.25, Family.FULL_SU2, SearchConfig())
    return [
        CheckResult("minority-classical-oracle", oracle_ok, "1/8",
                    str(classical[0]), None),
        _tolerance_check("minority-optimal-payoff", payoff_error, 1e-9,
                         expected=0.25),
        _tolerance_check("minority-tie-elimination", tie_mass, 1e-12),
        _tolerance_check("minority-nash-gain", verdict.max_unilateral_gain, 1e-6),
        CheckResult(
            "minority-pareto-bound",
            pareto.is_optimal and pareto.certificate == "payoff-sum-bound",
            "1/4 certified optimal by the payoff sum bound",
            pareto.certificate,
            None,
        ),
    ]


# --- criterion 5: Kolkata payoffs and fidelity law ------------------------------

def check_kolkata() -> list[CheckResult]:
    game = kolkata()
    classical = classical_uniform_payoff(game)
    oracle_ok = all(value == Fraction(4, 9) for value in classical)

    spec = StrategySpec(Family.FRAME_SU3, KOLKATA_OPTIMAL_PARAMS)
    report = play_symmetric(game, spec.matrix())
    payoff_error = max(abs(p - 2.0 / 3.0) for p in report.payoffs)

    sweep = fidelity_sweep(game, spec, [i / 10 for i in range(11)])
    law_error = max(
        abs(sweep.slope - 2.0 / 9.0),
        abs(sweep.intercept - 4.0 / 9.0),
        sweep.max_residual,
    )
    return [
        CheckResult("kolkata-classical-oracle", oracle_ok, "4/9",
                    str(classical[0]), None),
        _tolerance_check("kolkata-optimal-payoff", payoff_error, 1e-9,
                         expected=2.0 / 3.0),
        _tolerance_check("kolkata-fidelity-law", law_error, 1e-9,
                         expected="payoff(f) = 2/9 * (f + 2)"),
    ]


# --- criterion 6: Kolkata classical embedding -----------------------------------

def check_kolkata_classical_embedding() -> list[CheckResult]:
    result = classical_embedding_check(kolkata())
    return [
        _tolerance_check(
            "kolkata-classical-embedding", result.max_abs_error, 1e-9,
            expected="payoff table reproduced by all 27 shift profiles",
        )
    ]


# --- criterion 7: property suites ------------------------------------------------

def _random_family_batches(rng: np.random.Generator):
    draws = PROPERTY_DRAWS
    yield Family.FULL_SU2, su2_full_batch(
        rng.uniform(0, np.pi, draws),
        rng.uniform(-np.pi, np.pi, draws),
        rng.uniform(-np.pi, np.pi, draws),
    )
    yield Family.EISERT_SU2, su2_eisert_batch(
        rng.uniform(0, np.pi, draws), rng.uniform(0, np.pi / 2, draws)
    )
    yield Family.FRAME_SU3, su3_frame_batch(
        *(rng.uniform(0, np.pi / 2, draws) for _ in range(3)),
        *(rng.uniform(0, 2 * np.pi, draws) for _ in range(5)),
    )


def _batch_unitarity_residual(mats: np.ndarray) -> float:
    d = mats.shape[-1]
    products = np.einsum("gji,gjk->gik", mats.conj(), mats)
    return float(np.max(np.abs(products - np.eye(d))))


def check_property_suites() -> list[CheckResult]:
    rng = np.random.default_rng(_PROPERTY_SEED)

    worst_residual = 0.0
    worst_det = 0.0
    batches = {}
    for family, mats in _random_family_batches(rng):
        batches[family] = mats
        worst_residual = max(worst_residual, _batch_unitarity_residual(mats))
        if family in (Family.FULL_SU2, Family.FRAME_SU3):
            worst_det = max(worst_det, float(np.max(np.abs(np.linalg.det(mats) - 1))))

    # norm / trace preservation over random states and random local unitaries
    shapes = [SystemShape(2, 2), SystemShape(4, 2), SystemShape(3, 3)]
    worst_norm = 0.0
    worst_trace = 0.0
    per_shape = PROPERTY_DRAWS // len(shapes)
    for shape in shapes:
        source = batches[Family.FULL_SU2 if shape.d == 2 else Family.FRAME_SU3]
        for i in range(per_shape):
            raw = rng.standard_normal(shape.dim) + 1j * rng.standard_normal(shape.dim)
            psi = PureState(shape, raw / np.linalg.norm(raw))
            ops = [source[rng.integers(len(source))] for _ in range(shape.n)]
            moved = apply_local_pure(ops, psi)
            worst_norm = max(worst_norm, abs(np.linalg.norm(moved.amplitudes) - 1.0))
            if i % 4 == 0:
                # the dense path: f |psi><psi| + (1-f)/D I conjugated by U_n (x) ... (x) U_1
                f = float(rng.uniform(0, 1))
                amp = psi.amplitudes
                rho = f * np.outer(amp, amp.conj()) + (1.0 - f) / shape.dim * np.eye(shape.dim)
                full = reduce(np.kron, ops)
                rho_out = full @ rho @ full.conj().T
                worst_trace = max(worst_trace, abs(complex(np.trace(rho_out)) - 1.0))

    # the float payoff tables equal the exact numerators over the denominator
    worst_table = 0.0
    for game in (prisoners_dilemma(), minority(4), kolkata()):
        exact = np.array([[float(Fraction(int(v), game.denominator)) for v in row]
                          for row in game.numerators])
        worst_table = max(worst_table, float(np.max(np.abs(game.payoffs - exact))))

    return [
        _tolerance_check("strategy-unitarity", worst_residual, 1e-9,
                         expected=f"{PROPERTY_DRAWS} draws per family"),
        _tolerance_check("strategy-determinant", worst_det, 1e-9,
                         expected="det = 1 for full/su3 families"),
        _tolerance_check("state-norm-preservation", worst_norm, 1e-9),
        _tolerance_check("density-trace-preservation", worst_trace, 1e-9),
        CheckResult("payoff-operator-tables", worst_table == 0.0,
                    "diagonals equal classical tables exactly",
                    float(worst_table), None),
    ]


# --- criterion 8: search determinism ---------------------------------------------

_DETERMINISM_ARGS = [
    "search", "--game", "pd", "--space", "eisert", "--mode", "nash",
    "--profile", "eisert:0,pi/2", "--seed", "11",
]


def check_search_determinism() -> list[CheckResult]:
    from . import cli

    outputs = []
    for threads in ("1", "8"):
        buffer = io.StringIO()
        code = cli.run(_DETERMINISM_ARGS + ["--threads", threads], buffer)
        outputs.append((code, buffer.getvalue()))
    identical = outputs[0] == outputs[1] and outputs[0][0] == 0
    return [
        CheckResult(
            "search-thread-determinism",
            bool(identical),
            "byte-identical reports at --threads 1 and 8",
            "identical" if identical else "different",
            None,
        )
    ]


CHECKS = (
    check_pd_classical_embedding,
    check_pd_quantum_equilibrium,
    check_pd_full_su2_destabilization,
    check_minority,
    check_kolkata,
    check_kolkata_classical_embedding,
    check_property_suites,
    check_search_determinism,
)


def run_all_checks() -> list[CheckResult]:
    results: list[CheckResult] = []
    for check in CHECKS:
        results.extend(check())
    return results
