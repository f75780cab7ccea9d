"""Verification suite: every quantitative claim the engine must reproduce.

Each check compares an engine result against its independently known value
at a fixed tolerance.  ``run_all_checks`` powers both ``qgames verify`` and
the acceptance test module.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .games import (
    GameSpec,
    classical_embedding_check,
    classical_uniform_payoff,
    kolkata,
    minority,
    play_symmetric,
    prisoners_dilemma,
    protocol_amplitudes,
)
from .solver import (
    SearchConfig,
    best_response,
    fidelity_sweep,
    pareto_check_symmetric,
    verify_nash,
)
from .states import batch_rows, unitarity_residuals
from .strategies import (
    Family,
    KOLKATA_OPTIMAL_PARAMS,
    MINORITY_OPTIMAL_PARAMS,
    PD_EQUILIBRIUM_PARAMS,
    StrategySpec,
    parameter_box,
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

    u = StrategySpec(Family.FRAME_SU3, KOLKATA_OPTIMAL_PARAMS).matrix()
    report = play_symmetric(game, u)
    payoff_error = max(abs(p - 2.0 / 3.0) for p in report.payoffs)

    # the sweep's rows come from the law, so each is checked against a noisy play
    sweep = fidelity_sweep(game, u, [i / 10 for i in range(11)])
    played = [play_symmetric(game, u, fidelity=f).payoffs for f in sweep.fidelities]
    law_error = max(
        abs(sweep.slope - 2.0 / 9.0),
        abs(sweep.intercept - 4.0 / 9.0),
        sweep.max_residual,
        float(np.max(np.abs(np.subtract(sweep.payoffs, played)))),
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

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


class _SplitMix64:
    """The property draws' counter-based stream (Steele, Lea and Flood, OOPSLA 2014).

    Draw k is the SplitMix64 finaliser of ``seed + (k + 1) * 0x9E3779B97F4A7C15``
    mod 2**64, read as the double ``(z >> 11) * 2**-53`` in [0, 1).  Each call
    takes the next block of k, so the stream does not depend on how it is split.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed)
        self._drawn = 0

    def random(self, size) -> np.ndarray:
        count = math.prod(size) if isinstance(size, tuple) else size
        # in place throughout: one temporary of the draw's size at a time
        z = np.arange(self._drawn + 1, self._drawn + count + 1, dtype=np.uint64)
        self._drawn += count
        z *= _GOLDEN
        z += self._seed
        z ^= z >> np.uint64(30)
        z *= _MIX[0]
        z ^= z >> np.uint64(27)
        z *= _MIX[1]
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        return (z * 2.0 ** -53).reshape(size)

    def uniform(self, lo: float, hi: float, size) -> np.ndarray:
        return lo + (hi - lo) * self.random(size)

    def integers(self, n: int, size) -> np.ndarray:
        """floor(u * n), in [0, n): fl(u * n) < n for every double u < 1 and integer n."""
        return (self.random(size) * n).astype(np.intp)

    def standard_normal(self, size) -> np.ndarray:
        """Box-Muller on consecutive pairs of draws, so the count must be even."""
        u = self.random(size).reshape(-1, 2)
        # log1p(-u) is finite on [0, 1): u = 0 gives radius 0
        radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))
        # an angle on [-pi, pi): numpy's sin and cos are faster there than on [0, 2 pi)
        angle = np.pi * (2.0 * u[:, 1] - 1.0)
        u[:, 0] = radius * np.cos(angle)
        u[:, 1] = radius * np.sin(angle)
        return u.reshape(size)


def _random_family_batches(rng: _SplitMix64):
    """PROPERTY_DRAWS uniform draws per parameter over each family's box."""
    for family, build in ((Family.FULL_SU2, su2_full_batch),
                          (Family.EISERT_SU2, su2_eisert_batch),
                          (Family.FRAME_SU3, su3_frame_batch)):
        draws = (rng.uniform(lo, hi, PROPERTY_DRAWS) for lo, hi in parameter_box(family))
        yield family, build(*draws)


def _dense_trace_residual(ops: np.ndarray, psi: np.ndarray, fs: np.ndarray) -> float:
    """max |tr(U rho U-dagger) - 1| over a batch, on the dense D x D path.

    Row k has rho = f_k |psi_k><psi_k| + (1 - f_k)/D I and U the dense
    U_n (x) ... (x) U_1 of its (n, d, d) profile ``ops[k]``.  The trace is
    sum_ij (U rho)_ij conj(U_ij): one product per row, not two.
    """
    count, dim = psi.shape
    full = ops[:, 0]
    for axis in range(1, ops.shape[1]):
        # batched Kronecker product: full[k] (x) ops[k, axis]
        full = full[:, :, None, :, None] * ops[:, axis, None, :, None, :]
        side = full.shape[1] * full.shape[2]
        full = full.reshape(count, side, side)
    rho = fs[:, None, None] * (psi[:, :, None] * psi[:, None, :].conj())
    rho += ((1.0 - fs) / dim)[:, None, None] * np.eye(dim)
    traces = ((full @ rho) * full.conj()).sum(axis=(1, 2))
    return float(np.max(np.abs(traces - 1.0)))


def _preservation_residuals(rng: _SplitMix64, game: GameSpec, source: np.ndarray,
                            count: int) -> tuple[float, float]:
    """Worst norm and trace residuals over one game's ``count`` property draws."""
    n, dim = game.shape.n, game.shape.dim
    dense = np.arange(0, count, 4)  # the draws of the trace check
    raw = rng.standard_normal((count, 2, dim))[dense]
    psi = np.empty((len(dense), dim), dtype=complex)
    psi.real, psi.imag = raw[:, 0], raw[:, 1]
    del raw
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    picks = rng.integers(len(source), size=(count, n))
    fs = rng.uniform(0, 1, len(dense))

    worst_norm = 0.0
    rows = batch_rows(dim)
    for first in range(0, count, rows):
        # one profile per row on the game's resource: n arrays of (rows, d, d)
        final = protocol_amplitudes(game, source[picks[first:first + rows].T])
        worst_norm = max(worst_norm, float(np.max(np.abs(np.linalg.norm(final, axis=1) - 1.0))))
    worst_trace = 0.0
    rows = batch_rows(dim * dim)
    for first in range(0, len(dense), rows):
        chunk = slice(first, first + rows)
        worst_trace = max(worst_trace, _dense_trace_residual(
            source[picks[dense[chunk]]], psi[chunk], fs[chunk]))
    return worst_norm, worst_trace


def check_property_suites() -> list[CheckResult]:
    """Criterion 7: seeded property draws, evaluated in batches.

    Draw plan, one :class:`_SplitMix64` stream seeded with ``_PROPERTY_SEED``
    and read in this order, each double u in [0, 1):

    1. the family batches of ``_random_family_batches`` (1000 full SU(2),
       1000 Eisert SU(2), 1000 SU(3) frame matrices), each parameter
       ``lo + (hi - lo) * u`` over its box, checked for unitarity and, for
       full SU(2) and SU(3), unit determinant;
    2. then for each game, ``prisoners_dilemma()``, ``minority(4)`` and
       ``kolkata()`` of shapes (n, d) = (2, 2), (4, 2), (3, 3), with D = d**n
       and 333 draws per game: ``standard_normal((333, 2, D))`` for the
       states (real and imaginary parts by Box-Muller, normalised per row),
       ``integers(1000, size=(333, n))``, floor(1000 u), for each draw's
       player-n-first operators from the full SU(2) (d = 2) or SU(3) batch,
       and ``uniform(0, 1, 84)`` for the fidelities of the dense draws 0, 4,
       8, ....

    Every draw's profile goes through :func:`qgames.games.protocol_amplitudes`
    on its game's resource (the dilemma's J and J-dagger included) for the
    norm check; every dense draw also builds f |psi><psi| + (1 - f)/D I from
    its state and the dense U_n (x) ... (x) U_1 for the trace check, and the
    other draws' states go unused.  The draws are made before any evaluation
    and evaluated in batches of at most ``states.BATCH_BUDGET`` amplitudes (D
    per profile, D**2 per dense draw), so the sample does not depend on the
    budget.
    """
    rng = _SplitMix64(_PROPERTY_SEED)

    worst_residual = 0.0
    worst_det = 0.0
    batches = {}
    for family, mats in _random_family_batches(rng):
        batches[family] = mats
        worst_residual = max(worst_residual, float(np.max(unitarity_residuals(mats))))
        if family in (Family.FULL_SU2, Family.FRAME_SU3):
            worst_det = max(worst_det, float(np.max(np.abs(np.linalg.det(mats) - 1))))

    # norm preservation of the protocols' final states, and trace preservation
    # of random states under random local unitaries; shapes (2, 2), (4, 2), (3, 3)
    games = (prisoners_dilemma(), minority(4), kolkata())
    worst_norm = 0.0
    worst_trace = 0.0
    for game in games:
        source = batches[Family.FULL_SU2 if game.shape.d == 2 else Family.FRAME_SU3]
        norm, trace = _preservation_residuals(rng, game, source, PROPERTY_DRAWS // len(games))
        worst_norm = max(worst_norm, norm)
        worst_trace = max(worst_trace, trace)

    # the float payoff tables equal the exact numerators over the denominator
    worst_table = 0.0
    for game in games:
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
    """The same search through the CLI at ``--threads 1`` and ``8``.

    Every search runs in one thread, and ``--threads`` is accepted for
    compatibility only: this guards that the flag stays output-neutral.  The
    search, a dilemma ``eisert`` Nash scan, gets exact best responses.  Grid
    searches are covered by the CLI determinism tests in ``tests/test_cli.py``
    and by the byte-diffs of searches at 1 and 2 threads in CI.
    """
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
            "byte-identical reports at --threads 1 and 8 for an exact search",
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
