import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from qgames.games import (
    GameSpec,
    classical_uniform_payoff,
    entangler,
    kolkata,
    minority,
    play_profile,
    play_symmetric,
    prisoners_dilemma,
)
import qgames.solver as solver
from qgames.solver import (
    SearchConfig,
    best_response,
    dominant_strategy,
    fidelity_sweep,
    pareto_check_symmetric,
    sweep_to_csv,
    verify_nash,
    _deviation_form,
    _deviation_payoffs,
    _family_matrices,
    _search_family,
    _symmetric_payoffs,
)
from qgames.states import SystemShape, ghz
from qgames.strategies import (
    FAMILY_PRESETS,
    Family,
    KOLKATA_OPTIMAL_PARAMS,
    LOCAL_DIMENSION,
    MINORITY_OPTIMAL_PARAMS,
    PD_EQUILIBRIUM_PARAMS,
    StrategySpec,
    parameter_box,
    parse_strategy,
    su2_eisert,
    su2_eisert_batch,
    su2_full,
    su2_full_batch,
    su3_frame,
    su3_frame_batch,
)

PD = prisoners_dilemma()
MINORITY4 = minority(4)
KOLKATA = kolkata()
EQ = StrategySpec(Family.EISERT_SU2, PD_EQUILIBRIUM_PARAMS)
MINORITY_OPT = StrategySpec(Family.FULL_SU2, MINORITY_OPTIMAL_PARAMS)
KOLKATA_OPT = StrategySpec(Family.FRAME_SU3, KOLKATA_OPTIMAL_PARAMS)


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig()
        assert cfg.grid_points_per_axis == 24
        assert cfg.refine_iterations == 200
        assert cfg.refine_initial_step == 0.1
        assert cfg.epsilon_nash == 1e-6
        assert cfg.seed == 0

    def test_json_round_trip(self):
        cfg = SearchConfig(grid_points_per_axis=8, seed=42)
        assert SearchConfig(**cfg.to_json()) == cfg

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(grid_points_per_axis=1)
        with pytest.raises(ValueError):
            SearchConfig(epsilon_nash=0.0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1e-6])
    def test_epsilon_must_be_finite_and_positive(self, epsilon):
        with pytest.raises(ValueError, match="epsilon_nash must be finite and positive"):
            SearchConfig(epsilon_nash=epsilon)

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_refine_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="refine_initial_step"):
            SearchConfig(refine_initial_step=step)

    def test_grid_points_bounded(self):
        assert SearchConfig(grid_points_per_axis=256).grid_points_per_axis == 256
        with pytest.raises(ValueError, match=r"grid_points_per_axis must lie in \[2, 256\]"):
            SearchConfig(grid_points_per_axis=257)

    def test_refine_iterations_must_be_non_negative(self):
        with pytest.raises(ValueError, match="refine_iterations"):
            SearchConfig(refine_iterations=-1)
        assert SearchConfig(refine_iterations=0).refine_iterations == 0


class TestReducedEvaluators:
    """The fast payoff reductions must match the direct protocol."""

    def test_deviation_form_matches_play_profile(self):
        rng = np.random.default_rng(41)
        for _ in range(8):
            profile = [
                StrategySpec(Family.FULL_SU2,
                             (rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                              rng.uniform(-np.pi, np.pi)))
                for _ in range(4)
            ]
            ops = [spec.matrix() for spec in reversed(profile)]
            f = float(rng.uniform(0, 1))
            direct = play_profile(MINORITY4, ops, fidelity=f)
            for player in range(1, 5):
                form = _deviation_form(MINORITY4, ops, player)
                value = _deviation_payoffs(
                    form, profile[player - 1].matrix()[None, :, :]
                )[0]
                value = at_fidelity(MINORITY4, player, f, value)
                assert abs(value - direct.payoffs[player - 1]) < 1e-10

    def test_deviation_form_matches_pd_protocol(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            alice = su2_eisert(rng.uniform(0, np.pi), rng.uniform(0, np.pi / 2))
            bob = su2_eisert(rng.uniform(0, np.pi), rng.uniform(0, np.pi / 2))
            direct = play_profile(PD, [bob, alice])
            form = _deviation_form(PD, [bob, alice], 1)
            value = _deviation_payoffs(form, alice[None, :, :])[0]
            assert abs(value - direct.payoffs[0]) < 1e-10

    def test_symmetric_batch_matches_play_symmetric(self):
        rng = np.random.default_rng(43)
        mats = su3_frame_batch(*[rng.uniform(0, 1, 6) for _ in range(8)])
        for f in (1.0, 0.4):
            batch = at_fidelity(KOLKATA, 1, f, _symmetric_payoffs(KOLKATA, mats))
            for i in range(6):
                direct = play_symmetric(KOLKATA, mats[i], fidelity=f)
                assert abs(batch[i] - direct.payoffs[0]) < 1e-10

    def test_symmetric_batch_matches_pd(self):
        rng = np.random.default_rng(44)
        mats = su2_full_batch(rng.uniform(0, np.pi, 6),
                              rng.uniform(-np.pi, np.pi, 6),
                              rng.uniform(-np.pi, np.pi, 6))
        batch = _symmetric_payoffs(PD, mats)
        for i in range(6):
            direct = play_symmetric(PD, mats[i])
            assert abs(batch[i] - direct.payoffs[0]) < 1e-10


def dense_deviation_form(game, fixed_ops, player, fidelity):
    """Reference form from d^2 full D x D operators and the noisy density matrix."""
    n, d = game.shape.n, game.shape.d
    slot = n - player
    if game.use_entangler_pair:
        amp = entangler()[:, 0]
        rho_in = np.outer(amp, amp.conj())
        wrap = entangler().conj().T
    else:
        rho_in = dense.density(ghz(game.shape).amplitudes, fidelity)
        wrap = None
    diag = game.payoffs[player - 1]
    units = []
    for a, b in itertools.product(range(d), repeat=2):
        basis_unit = np.zeros((d, d), dtype=complex)
        basis_unit[a, b] = 1.0
        factors = [basis_unit if k == slot else np.asarray(fixed_ops[k], dtype=complex)
                   for k in range(n)]
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        units.append(wrap @ full if wrap is not None else full)
    units_arr = np.stack(units)
    return np.einsum("K,aKV,bKV->ab", diag, units_arr @ rho_in, units_arr.conj())


def at_fidelity(game, player, fidelity, values):
    """Noise-free payoffs mapped to ``fidelity`` with the player's uniform payoff."""
    uniform = float(classical_uniform_payoff(game)[player - 1])
    return fidelity * np.asarray(values) + (1.0 - fidelity) * uniform


def random_unitaries(rng, count, d):
    """``count`` Haar-random d x d unitaries: QR of complex Gaussians, phases fixed."""
    z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def random_table_game(n, d, seed):
    """A GHZ game with a random payoff table: no symmetry between digits."""
    rng = np.random.default_rng(seed)
    shape = SystemShape(n, d)
    # one draw of n numerators per outcome, in index order
    numerators = np.array([rng.integers(0, 8, n) for _ in range(shape.dim)]).T
    return GameSpec("random", shape, False, numerators, 7)


FORM_CASES = [(PD, (1.0,))] + [
    (game, (0.0, 0.37, 1.0))
    for game in (minority(5), KOLKATA, random_table_game(3, 2, 5), random_table_game(2, 3, 6))
]


@pytest.mark.parametrize("game,fidelities", FORM_CASES,
                         ids=[f"{g.name}{g.shape.n}" for g, _ in FORM_CASES])
def test_deviation_form_matches_dense_reference(game, fidelities):
    rng = np.random.default_rng(71 + game.shape.n)
    deviations = np.random.default_rng(171 + game.shape.n)
    n, d = game.shape.n, game.shape.d
    for f in fidelities:
        if d == 2:
            ops = [su2_full(rng.uniform(0, np.pi), *rng.uniform(-np.pi, np.pi, 2))
                   for _ in range(n)]
        else:
            ops = [su3_frame(*rng.uniform(0, np.pi / 2, 3), *rng.uniform(0, 2 * np.pi, 5))
                   for _ in range(n)]
        for player in range(1, n + 1):
            form = _deviation_form(game, ops, player)
            reference = dense_deviation_form(game, ops, player, f)
            if f == 1.0:
                np.testing.assert_allclose(form, reference, rtol=0, atol=1e-12)
                continue
            # where slot weights differ the noisy form is not f * T_1 + c * I as
            # a matrix, but it agrees with the affine map on every unitary
            unitaries = random_unitaries(deviations, 16, d)
            np.testing.assert_allclose(
                _deviation_payoffs(reference, unitaries),
                at_fidelity(game, player, f, _deviation_payoffs(form, unitaries)),
                rtol=0, atol=1e-12)


SYMMETRIC_CASES = [minority(n) for n in range(2, 11)] + [
    KOLKATA, random_table_game(2, 3, 6), random_table_game(3, 3, 8)]


@pytest.mark.parametrize("game", SYMMETRIC_CASES,
                         ids=[f"{g.name}{g.shape.n}x{g.shape.d}" for g in SYMMETRIC_CASES])
def test_symmetric_payoffs_match_dense_reference(game):
    n, d = game.shape.n, game.shape.d
    rng = np.random.default_rng(300 + 10 * n + d)
    matrices = random_unitaries(rng, 2 if n >= 9 else 4, d)
    if d == 3:
        matrices = np.concatenate([matrices, su3_frame_batch(*rng.uniform(0, np.pi, (8, 3)))])
    values = _symmetric_payoffs(game, matrices)
    rho = dense.density(ghz(game.shape).amplitudes)
    for u, value in zip(matrices, values):
        reference = dense.expectation(game.payoffs[0], dense.conjugate([u] * n, rho))
        assert abs(value - reference) < 1e-13


@pytest.mark.parametrize("n", [12, 14])
def test_symmetric_payoffs_match_play_symmetric_on_large_minority(n):
    game = minority(n)
    matrices = random_unitaries(np.random.default_rng(n), 4, 2)
    values = _symmetric_payoffs(game, matrices)
    for u, value in zip(matrices, values):
        assert abs(value - play_symmetric(game, u).payoffs[0]) < 1e-13


@pytest.mark.parametrize("game", [minority(10), KOLKATA, random_table_game(3, 3, 8)],
                         ids=["minority10", "kolkata", "random3x3"])
def test_symmetric_row_value_does_not_depend_on_its_batch(game):
    # a batch that spills past one sub-batch; every row alone, and the rows on
    # either side of the boundary in a batch of their own, give the same bits
    d = game.shape.d
    counts, weights = game.occupation_types
    rows = solver._search_rows((counts.max() + 1) * d * d + 2 * len(weights) * d)
    matrices = random_unitaries(np.random.default_rng(5), rows + 7, d)
    values = _symmetric_payoffs(game, matrices)
    boundary = slice(rows - 5, rows + 5)
    np.testing.assert_array_equal(_symmetric_payoffs(game, matrices[boundary]), values[boundary])
    singles = [_symmetric_payoffs(game, matrices[i:i + 1])[0]
               for i in [*range(3), *range(rows - 3, rows + 7)]]
    np.testing.assert_array_equal(singles, values[[*range(3), *range(rows - 3, rows + 7)]])


def test_symmetric_payoffs_of_a_game_that_pays_player_one_nothing():
    game = GameSpec("zero", SystemShape(3, 2), False, np.zeros((3, 8), dtype=int))
    assert len(game.occupation_types[1]) == 0
    np.testing.assert_array_equal(_symmetric_payoffs(game, random_unitaries(
        np.random.default_rng(1), 3, 2)), np.zeros(3))


class TestLargeSystems:
    """Minority n = 14 (D = 16384): one dense D x D complex matrix is 4 GiB."""

    BOUND = 64 * 2 ** 20

    def test_minority_fourteen_play_and_form_stay_small(self):
        game = minority(14)
        u = parse_strategy("full:pi/2,-pi/8,pi/8").matrix()
        tracemalloc.start()
        try:
            report = play_symmetric(game, u, fidelity=0.5)
            _, play_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            form = _deviation_form(game, [u] * 14, 1)
            _, form_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert play_peak < self.BOUND and form_peak < self.BOUND
        expected = at_fidelity(game, 1, 0.5, _symmetric_payoffs(game, u[None, :, :])[0])
        np.testing.assert_allclose(report.payoffs, [expected] * 14, rtol=0, atol=1e-12)
        assert abs(sum(report.probabilities.values()) - 1.0) < 1e-12
        assert len(report.probabilities) == 2 ** 14
        value = at_fidelity(game, 1, 0.5, _deviation_payoffs(form, u[None, :, :])[0])
        assert abs(value - expected) < 1e-12

    def test_minority_ten_symmetric_grid_batch_is_sub_batched(self):
        # the 13 824-point full grid at D = 1024: a row of the type kernel holds
        # the powers U^0 .. U^9, its 8 type products and one gathered factor;
        # unsplit that is about 16 MB, and a sub-batch holds it within the budget
        game = minority(10)
        grid = solver._grid_rows(solver._grid_axes(Family.FULL_SU2, 24), np.arange(24 ** 3))
        matrices = _family_matrices(Family.FULL_SU2, grid)
        budget_bytes = solver._SEARCH_BUDGET * 16
        counts, weights = game.occupation_types
        width = (counts.max() + 1) * 2 ** 2 + 2 * len(weights) * 2
        assert len(grid) * width * 16 > 4 * budget_bytes
        tracemalloc.start()
        try:
            values = _symmetric_payoffs(game, matrices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * budget_bytes
        for i in range(0, len(grid), 997):
            single = _symmetric_payoffs(game, matrices[i:i + 1])[0]
            assert abs(values[i] - single) < 1e-12

    def test_minority_fourteen_symmetric_grid_stays_in_budget(self):
        game = minority(14)
        grid = solver._grid_rows(solver._grid_axes(Family.FULL_SU2, 24), np.arange(24 ** 3))
        matrices = _family_matrices(Family.FULL_SU2, grid)
        game.occupation_types  # the table is built once per game, outside the bound
        tracemalloc.start()
        try:
            values = _symmetric_payoffs(game, matrices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * solver._SEARCH_BUDGET * 16
        for i in range(0, len(grid), 4999):
            assert abs(values[i] - play_symmetric(game, matrices[i]).payoffs[0]) < 1e-13

    @staticmethod
    def pareto_peak(game, payoff, family):
        cfg = SearchConfig(refine_iterations=0)
        tracemalloc.start()
        try:
            verdict = pareto_check_symmetric(game, payoff, family, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.certificate == "symmetric-witness"
        return peak

    def test_kolkata_su3_pareto_grid_is_streamed(self):
        # streamed, the scan holds one chunk's rows, matrices and amplitudes at a
        # time: the gauge-fixed 6^6-point grid runs in 7 chunks of 7 281 rows
        assert self.pareto_peak(KOLKATA, 4 / 9, Family.FRAME_SU3) < 8 * 2 ** 20

    def test_minority_ten_pareto_grid_is_streamed(self):
        # the 24^3 grid is one chunk, whose D = 1024 sub-batches hold 32 rows
        assert self.pareto_peak(minority(10), 0.05, Family.FULL_SU2) < 8 * 2 ** 20

    def test_default_minority_fourteen_grid_passes_the_work_budget(self, monkeypatch):
        # 24^3 rows x 104 amplitudes = 1.4e6, under the 2^30 cap; the search
        # itself is stubbed out
        searched = []

        def stub(family, evaluate_batch, extra_starts, cfg, extra_values=None):
            searched.append(cfg.grid_points_per_axis)
            return (0.0, 0.0, 0.0), 0.0, 0

        monkeypatch.setattr(solver, "_search_family", stub)
        verdict = pareto_check_symmetric(minority(14), 0.05, Family.FULL_SU2)
        assert searched == [24]
        assert verdict.certificate == "symmetric-search-exhausted"


def test_import_loads_no_thread_pool():
    # every search runs in one thread, so importing the package must not pay
    # for concurrent.futures
    src = os.path.dirname(os.path.dirname(solver.__file__))
    code = "import sys, qgames; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True).stdout
    assert out == "False\n"


class TestFidelityValidation:
    @pytest.mark.parametrize("fidelity", [1.5, -0.1, float("nan")])
    def test_best_response_rejects(self, fidelity):
        with pytest.raises(ValueError, match=r"fidelity must lie in \[0, 1\]"):
            best_response(KOLKATA, [KOLKATA_OPT] * 3, 1, Family.CYCLIC_C3,
                          fidelity=fidelity)

    @pytest.mark.parametrize("fidelity", [1.5, float("nan")])
    def test_pareto_rejects(self, fidelity):
        # the payoff-sum bound certifies 1/4 without a search; the input is still checked
        for payoff in (0.25, 0.1):
            with pytest.raises(ValueError, match=r"fidelity must lie in \[0, 1\]"):
                pareto_check_symmetric(MINORITY4, payoff, Family.CLASSICAL_BIT,
                                       fidelity=fidelity)


class TestBestResponse:
    def test_pd_eisert_against_equilibrium_dense_oracle(self):
        """Dense 256x256 oracle over the two-parameter box.

        The independent oracle plays every grid strategy through the full
        protocol on density matrices, J-dagger (B (x) A) J |00><00| J-dagger
        (B (x) A)-dagger J against the payoff operator, as one batch; the
        search result must match its supremum, achieved at the equilibrium
        point itself.
        """
        q = EQ.matrix()
        p_alice = np.diag(PD.payoffs[0])
        thetas, alphas = np.meshgrid(np.linspace(0, np.pi, 256), np.linspace(0, np.pi / 2, 256),
                                     indexing="ij")
        alice = su2_eisert_batch(thetas.ravel(), alphas.ravel())
        j = entangler()
        moves = j.conj().T @ np.einsum("ab,gcd->gacbd", q, alice).reshape(-1, 4, 4) @ j
        rho = moves @ np.diag([1.0, 0, 0, 0]) @ moves.conj().transpose(0, 2, 1)
        values = np.einsum("ij,gji->g", p_alice, rho)
        assert np.abs(values.imag).max() < 1e-9
        for i in range(0, len(alice), 4099):  # the batch is the one-strategy protocol
            assert abs(values[i] - play_profile(PD, [q, alice[i]]).payoffs[0]) < 1e-12
        best = float(values.real.max())
        result = best_response(PD, [EQ, EQ], 1, Family.EISERT_SU2)
        assert result.payoff <= 5.0
        assert result.payoff >= 3.0 - 1e-6
        assert abs(result.payoff - best) < 1e-6
        theta, alpha = result.strategy.params
        assert abs(theta - 0.0) < 1e-6 and abs(alpha - np.pi / 2) < 1e-6

    def test_minority_deviation_capped_at_quarter(self):
        result = best_response(MINORITY4, [MINORITY_OPT] * 4, 1, Family.FULL_SU2)
        assert result.payoff <= 0.25 + 1e-6
        assert result.payoff >= 0.25 - 1e-9

    def test_single_point_space_returned(self):
        only = StrategySpec(Family.CLASSICAL_BIT, (1.0,))
        result = best_response(PD, [EQ, EQ], 1, [only])
        assert result.strategy == only
        assert result.evaluations == 1
        assert result.certificate == "exact"

    def test_full_su2_beats_restricted_equilibrium(self):
        result = best_response(PD, [EQ, EQ], 1, Family.FULL_SU2)
        assert result.payoff > 3.0 + 0.1

    def test_incompatible_space_rejected(self):
        with pytest.raises(ValueError):
            best_response(PD, [EQ, EQ], 1, Family.FRAME_SU3)
        with pytest.raises(ValueError):
            best_response(PD, [EQ, EQ], 3, Family.EISERT_SU2)

    def test_reproducible_across_threads_and_runs(self, monkeypatch):
        # an SU(3) profile whose deviation bound is not attained still searches;
        # the ignored threads keyword and a budget of 8 rows per chunk, which
        # splits the 64-point gauge-fixed grid into 8 chunks, change nothing
        profile = [parse_strategy("su3:0.3,0.7,1.1,0.5,2,4,1,3")] * 3
        cfg = SearchConfig(grid_points_per_axis=2, refine_iterations=8, seed=5)

        def search(threads):
            return best_response(KOLKATA, profile, 2, Family.FRAME_SU3, cfg, threads=threads)

        default = search(1)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_SEARCH_BUDGET", 72)
            small = search(8)
        assert default.certificate == "search"
        assert default == small == search(1)

    def test_seed_changes_are_still_deterministic(self):
        a = best_response(PD, [EQ, EQ], 1, Family.EISERT_SU2, SearchConfig(seed=1))
        b = best_response(PD, [EQ, EQ], 1, Family.EISERT_SU2, SearchConfig(seed=1))
        assert a == b

    def test_payoff_not_below_any_grid_point(self):
        cfg = SearchConfig(grid_points_per_axis=9)
        result = best_response(PD, [EQ, EQ], 2, Family.EISERT_SU2, cfg)
        q = EQ.matrix()
        for theta in np.linspace(0, np.pi, 9):
            for alpha in np.linspace(0, np.pi / 2, 9):
                value = play_profile(PD, [su2_eisert(theta, alpha), q]).payoffs[1]
                assert result.payoff >= value - 1e-10


def search_reference(game, profile, player, family, fidelity=1.0, cfg=None):
    """The grid + refinement search that best_response ran before its exact
    paths, at f = 1 with its best value mapped to ``fidelity``."""
    ops = [spec.matrix() for spec in reversed(profile)]
    form = _deviation_form(game, ops, player)

    def evaluate(matrices):
        return _deviation_payoffs(form, matrices)

    extra = list(FAMILY_PRESETS.get(family, ()))
    if profile[player - 1].family == family:
        extra = [profile[player - 1].params] + extra
    return at_fidelity(game, player, fidelity,
                       _search_family(family, evaluate, extra, cfg or SearchConfig())[1])


def played_payoff(game, profile, player, strategy, fidelity=1.0):
    """The player's payoff with ``strategy`` swapped in, through the protocol."""
    trial = list(profile)
    trial[player - 1] = strategy
    report = play_profile(game, [spec.matrix() for spec in reversed(trial)], fidelity=fidelity)
    return report.payoffs[player - 1]


RANDOM3 = random_table_game(3, 2, 5)
RANDOM_QUTRIT = random_table_game(2, 3, 6)
_RNG = np.random.default_rng(91)
RANDOM3_PROFILE = [
    StrategySpec(Family.FULL_SU2, (_RNG.uniform(0, np.pi), *_RNG.uniform(-np.pi, np.pi, 2)))
    for _ in range(3)
]
CROSS_CHECK_CASES = (
    [(PD, [EQ, EQ], player, family, 1.0)
     for family in (Family.EISERT_SU2, Family.FULL_SU2) for player in (1, 2)]
    + [(minority(n), [MINORITY_OPT] * n, 1, Family.FULL_SU2, f)
       for n in (4, 5, 6) for f in (1.0, 0.37)]
    + [(RANDOM3, RANDOM3_PROFILE, player, family, 0.37)
       for family in (Family.EISERT_SU2, Family.FULL_SU2) for player in (1, 2, 3)]
)


class TestExactBestResponse:
    """The exact qubit paths against the grid + refinement search they replace."""

    @pytest.mark.parametrize(
        "game,profile,player,family,fidelity", CROSS_CHECK_CASES,
        ids=[f"{g.name}{g.shape.n}-{fam.value}-p{p}-f{f}" for g, _, p, fam, f in CROSS_CHECK_CASES])
    def test_matches_search(self, game, profile, player, family, fidelity):
        result = best_response(game, profile, player, family, fidelity=fidelity)
        searched = search_reference(game, profile, player, family, fidelity)
        assert result.certificate == "exact" and result.evaluations == 1
        assert result.payoff >= searched - 1e-12
        if family == Family.FULL_SU2:
            assert abs(result.payoff - searched) <= 1e-6
        played = played_payoff(game, profile, player, result.strategy, fidelity)
        assert abs(result.payoff - played) < 1e-12

    def test_qutrit_random_game_not_below_search(self):
        cfg = SearchConfig(grid_points_per_axis=2, refine_iterations=8, seed=3)
        rng = np.random.default_rng(92)
        profile = [StrategySpec(Family.FRAME_SU3, (*rng.uniform(0, np.pi / 2, 3),
                                                   *rng.uniform(0, 2 * np.pi, 5)))
                   for _ in range(2)]
        result = best_response(RANDOM_QUTRIT, profile, 1, Family.FRAME_SU3, cfg, 0.37)
        searched = search_reference(RANDOM_QUTRIT, profile, 1, Family.FRAME_SU3, 0.37, cfg)
        form = _deviation_form(RANDOM_QUTRIT, [s.matrix() for s in reversed(profile)], 1)
        assert result.certificate in ("bound", "search")
        assert result.payoff >= searched - 1e-12
        bound = at_fidelity(RANDOM_QUTRIT, 1, 0.37, 3 * np.linalg.eigvalsh(form)[-1])
        assert result.payoff <= bound + 1e-12

    @pytest.mark.parametrize("literals,face", [
        (("full:2.6,-0.57,0.31", "full:0.087,1.59,0.24"), 0),   # theta = 0
        (("full:2.72,0.83,1.95", "full:1.07,0.27,-1.91"), 1),   # alpha = 0
    ])
    def test_eisert_optimum_on_a_face(self, literals, face):
        profile = [parse_strategy(text) for text in literals]
        result = best_response(PD, profile, 1, Family.EISERT_SU2)
        assert result.strategy.params[face] == 0.0
        assert 0.0 < result.strategy.params[1 - face]
        # the unconstrained optimum over (q0, q1, q3) leaves the box, so the face binds
        form = _deviation_form(PD, [s.matrix() for s in reversed(profile)], 1)
        axes = np.ix_(solver._EISERT_AXES, solver._EISERT_AXES)
        assert np.linalg.eigvalsh(solver._quaternion_form(form)[axes])[-1] > result.payoff + 1e-6
        searched = search_reference(PD, profile, 1, Family.EISERT_SU2)
        assert result.payoff >= searched - 1e-12
        assert abs(result.payoff - searched) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        profile=st.lists(st.tuples(*[st.floats(0, 1)] * 3), min_size=3, max_size=3),
        points=st.lists(st.tuples(*[st.floats(0, 1)] * 3), min_size=1, max_size=8),
        player=st.integers(1, 3),
        family=st.sampled_from([Family.FULL_SU2, Family.EISERT_SU2]),
        fidelity=st.floats(0, 1),
    )
    def test_exact_payoff_dominates_box_points(self, profile, points, player, family, fidelity):
        def in_box(unit, fam):
            box = parameter_box(fam)
            return tuple(lo + u * (hi - lo) for u, (lo, hi) in zip(unit, box))

        specs = [StrategySpec(Family.FULL_SU2, in_box(u, Family.FULL_SU2)) for u in profile]
        result = best_response(RANDOM3, specs, player, family, fidelity=fidelity)
        for unit in points:
            deviation = StrategySpec(family, in_box(unit, family))
            assert result.payoff >= played_payoff(RANDOM3, specs, player, deviation,
                                                  fidelity) - 1e-12

    @pytest.mark.parametrize("fidelity", [1.0, 0.6])
    def test_kolkata_table2_attains_the_su3_bound(self, fidelity):
        result = best_response(KOLKATA, [KOLKATA_OPT] * 3, 1, Family.FRAME_SU3,
                               fidelity=fidelity)
        assert result.certificate == "bound"
        assert result.strategy == KOLKATA_OPT
        assert result.evaluations == 2  # the current strategy, then the preset
        assert abs(result.payoff - 2 / 9 * (fidelity + 2)) < 1e-12

    def test_su3_preset_attains_the_bound_for_another_current_strategy(self):
        current = parse_strategy("su3:0.3,0.7,1.1,0.5,2,4,1,3")
        result = best_response(KOLKATA, [current, KOLKATA_OPT, KOLKATA_OPT], 1,
                               Family.FRAME_SU3)
        assert result.certificate == "bound"
        assert result.strategy == KOLKATA_OPT
        assert abs(result.payoff - 2 / 3) < 1e-12


class TestVerifyNash:
    def test_one_deviation_form_per_player(self, monkeypatch):
        built = []
        original = solver._deviation_form

        def counting(game, fixed_ops, player):
            built.append(player)
            return original(game, fixed_ops, player)

        monkeypatch.setattr(solver, "_deviation_form", counting)
        verdict = verify_nash(MINORITY4, [MINORITY_OPT] * 4, Family.FULL_SU2)
        assert built == [1, 2, 3, 4]
        assert verdict.certificates == ("exact",) * 4

    def test_kolkata_equilibrium_certified_by_the_bound(self):
        verdict = verify_nash(KOLKATA, [KOLKATA_OPT] * 3, Family.FRAME_SU3, fidelity=0.6)
        assert verdict.is_equilibrium
        assert verdict.certificates == ("bound",) * 3
        assert all(abs(g) < 1e-12 for g in verdict.gains)

    def test_pd_classical_defection_equilibrium(self):
        defect = StrategySpec(Family.CLASSICAL_BIT, (1.0,))
        verdict = verify_nash(PD, [defect, defect], Family.CLASSICAL_BIT)
        assert verdict.is_equilibrium
        assert verdict.max_unilateral_gain == 0.0
        np.testing.assert_allclose(verdict.profile_payoffs, [1.0, 1.0], atol=1e-12)

    def test_pd_classical_cooperation_is_not_equilibrium(self):
        coop = StrategySpec(Family.CLASSICAL_BIT, (0.0,))
        verdict = verify_nash(PD, [coop, coop], Family.CLASSICAL_BIT)
        assert not verdict.is_equilibrium
        assert abs(verdict.max_unilateral_gain - 2.0) < 1e-12  # 5 vs 3

    def test_pd_quantum_equilibrium(self):
        verdict = verify_nash(PD, [EQ, EQ], Family.EISERT_SU2)
        assert verdict.is_equilibrium
        assert verdict.max_unilateral_gain <= 1e-6
        assert verdict.max_unilateral_gain >= -1e-12

    def test_pd_equilibrium_vanishes_in_full_su2(self):
        profile = [StrategySpec(Family.FULL_SU2, (0.0, math.pi / 2, 0.0))] * 2
        verdict = verify_nash(PD, profile, Family.FULL_SU2)
        assert not verdict.is_equilibrium
        assert verdict.max_unilateral_gain > 0.1

    def test_minority_equilibrium(self):
        verdict = verify_nash(MINORITY4, [MINORITY_OPT] * 4, Family.FULL_SU2)
        assert verdict.is_equilibrium
        assert verdict.max_unilateral_gain <= 1e-6

    def test_classical_agreement_with_enumeration(self):
        # exhaustive enumeration over {I, X} pairs, via the direct protocol
        defect = StrategySpec(Family.CLASSICAL_BIT, (1.0,))
        verdict = verify_nash(PD, [defect, defect], Family.CLASSICAL_BIT)
        ops = [spec.matrix() for spec in [defect, defect]]
        for player in (1, 2):
            best = -np.inf
            for candidate in (0, 1):
                trial = [defect, defect]
                trial[player - 1] = StrategySpec(Family.CLASSICAL_BIT, (float(candidate),))
                report = play_profile(PD, [s.matrix() for s in reversed(trial)])
                best = max(best, report.payoffs[player - 1])
            assert abs(verdict.deviation_payoffs[player - 1] - best) < 1e-12


class TestDominantStrategy:
    def test_pd_defection_dominates(self):
        assert dominant_strategy(PD, 1) == 1
        assert dominant_strategy(PD, 2) == 1

    def test_minority_has_none(self):
        for player in range(1, 5):
            assert dominant_strategy(MINORITY4, player) is None

    def test_kolkata_has_none(self):
        assert dominant_strategy(KOLKATA, 1) is None

    def test_enumeration_oracle(self):
        # re-derive by brute force over the payoff table for the dilemma
        game = PD
        for player in (1, 2):
            dominant = []
            for own in (0, 1):
                ok = True
                for other in (0, 1):
                    digits = [0, 0]
                    digits[player - 1] = own
                    digits[2 - player] = other
                    label = f"{digits[1]}{digits[0]}"
                    rival_digits = digits.copy()
                    for alt in (0, 1):
                        rival_digits[player - 1] = alt
                        rival_label = f"{rival_digits[1]}{rival_digits[0]}"
                        if (game.numerators[player - 1, int(label, 2)]
                                < game.numerators[player - 1, int(rival_label, 2)]):
                            ok = False
                if ok:
                    dominant.append(own)
            assert dominant_strategy(game, player) == (dominant[0] if dominant else None)

    @pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
    def test_random_tables_against_brute_force(self, n, d):
        # sevenths compared as Fractions over every opponent profile and rival
        found = set()
        for seed in range(60):
            game = random_table_game(n, d, seed)
            for player in range(1, n + 1):
                def pay(own, others):
                    digits = others[:player - 1] + (own,) + others[player - 1:]
                    index = sum(k * d ** i for i, k in enumerate(digits))
                    return Fraction(int(game.numerators[player - 1, index]), 7)

                expected = next(
                    (c for c in range(d)
                     if all(pay(c, others) >= pay(rival, others)
                            for others in itertools.product(range(d), repeat=n - 1)
                            for rival in range(d))),
                    None)
                assert dominant_strategy(game, player) == expected
                found.add(expected)
        assert None in found and len(found) > 2  # both outcomes, several strategies


class TestPareto:
    def test_minority_quarter_certified_analytically(self):
        verdict = pareto_check_symmetric(MINORITY4, 0.25, Family.FULL_SU2)
        assert verdict.is_optimal
        assert verdict.certificate == "payoff-sum-bound"

    def test_pd_cooperative_payoff_certified(self):
        verdict = pareto_check_symmetric(PD, 3.0, Family.EISERT_SU2)
        assert verdict.is_optimal
        assert verdict.certificate == "payoff-sum-bound"

    def test_kolkata_classical_value_dominated(self):
        verdict = pareto_check_symmetric(KOLKATA, 4 / 9, Family.FRAME_SU3)
        assert not verdict.is_optimal
        assert verdict.certificate == "symmetric-witness"
        assert verdict.witness_payoff > 4 / 9 + 1e-3
        assert abs(verdict.witness_payoff - 2 / 3) < 1e-6

    def test_single_point_space(self):
        verdict = pareto_check_symmetric(
            KOLKATA, 2 / 3, [StrategySpec(Family.CYCLIC_C3, (0.0,))]
        )
        assert verdict.is_optimal
        assert verdict.certificate in ("payoff-sum-bound", "symmetric-search-exhausted")

    @pytest.mark.parametrize("payoff", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("space", [Family.FRAME_SU3, [KOLKATA_OPT]])
    def test_payoff_must_be_finite(self, payoff, space):
        # nan compares false with every bound and witness, so it would pass as optimal
        with pytest.raises(ValueError, match="payoff must be finite"):
            pareto_check_symmetric(KOLKATA, payoff, space)

    @pytest.mark.parametrize("game,space", [(PD, Family.FRAME_SU3), (KOLKATA, Family.FULL_SU2),
                                            (MINORITY4, [KOLKATA_OPT])])
    def test_space_dimension_must_match(self, game, space):
        with pytest.raises(ValueError, match="strategy space dimension does not match"):
            pareto_check_symmetric(game, 0.1, space)


class TestFidelitySweep:
    def test_kolkata_affine_law(self):
        sweep = fidelity_sweep(KOLKATA, KOLKATA_OPT, [i / 10 for i in range(11)])
        assert abs(sweep.slope - 2 / 9) < 1e-9
        assert abs(sweep.intercept - 4 / 9) < 1e-9
        assert sweep.max_residual < 1e-9

    def test_grid_bounded(self, monkeypatch):
        # the length is checked before any point is played
        monkeypatch.setattr(solver, "play_symmetric", None)
        with pytest.raises(ValueError, match="at most 1001 fidelities, got 1002"):
            fidelity_sweep(KOLKATA, KOLKATA_OPT, [0.5] * 1002)

    def test_endpoints(self):
        sweep = fidelity_sweep(KOLKATA, KOLKATA_OPT, [0.0, 1.0])
        np.testing.assert_allclose(sweep.payoffs[0], [4 / 9] * 3, atol=1e-9)
        np.testing.assert_allclose(sweep.payoffs[1], [2 / 3] * 3, atol=1e-9)

    def test_out_of_range_fidelity(self):
        with pytest.raises(ValueError):
            fidelity_sweep(KOLKATA, KOLKATA_OPT, [0.0, 1.5])

    def test_minority_sweep_affine(self):
        sweep = fidelity_sweep(MINORITY4, MINORITY_OPT, [0.0, 0.5, 1.0])
        assert sweep.max_residual < 1e-9
        assert abs(sweep.payoffs[-1][0] - 0.25) < 1e-9

    def test_csv_layout(self):
        sweep = fidelity_sweep(KOLKATA, KOLKATA_OPT, [0.0, 1.0])
        text = sweep_to_csv(sweep)
        lines = text.strip().split("\n")
        assert lines[0] == "f,player1,player2,player3"
        assert lines[1].startswith("0,")
        assert len(lines) == 3
        assert "." in lines[2] and "," in lines[2]


class TestRefinementBehavior:
    def test_refinement_monotone(self):
        # the best payoff recorded never decreases as iterations grow; the
        # search is driven directly, since full SU(2) best responses are exact
        values = []
        for iterations in (0, 5, 40, 200):
            cfg = SearchConfig(refine_iterations=iterations, grid_points_per_axis=6)
            values.append(search_reference(MINORITY4, [MINORITY_OPT] * 4, 1,
                                           Family.FULL_SU2, cfg=cfg))
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_gain_never_meaningfully_negative(self):
        verdict = verify_nash(MINORITY4, [MINORITY_OPT] * 4, Family.FULL_SU2,
                              SearchConfig(grid_points_per_axis=5))
        assert all(g >= -1e-12 for g in verdict.gains)


def reference_refine(evaluate_one, start, start_value, box, cfg, rng_axis_order):
    """Single-row coordinate descent: the rule ``solver._refine`` batches."""
    best = tuple(start)
    best_value = start_value
    step = cfg.refine_initial_step
    evaluations = 0
    free = np.array([axis for axis, (lo, hi) in enumerate(box) if lo < hi])
    for _ in range(cfg.refine_iterations):
        if step < solver._MIN_STEP:
            break
        improved = False
        axis_order = free[rng_axis_order.permutation(len(free))]
        for axis in axis_order:
            for direction in (1.0, -1.0):
                candidate = list(best)
                candidate[axis] += direction * step
                candidate = solver._clamp_to_box(candidate, box)
                value = evaluate_one(candidate)
                evaluations += 1
                if value > best_value:
                    best, best_value = candidate, value
                    improved = True
        if not improved:
            step /= 2.0
    return best, best_value, evaluations


def reference_search(family, evaluate_batch, extra_starts, cfg):
    """The search before batching, on the same gauge-fixed box: the whole grid
    in memory, every start evaluated again, single-row refinement of one start
    after another, each with its own axis-order stream."""
    box = solver._search_box(family)
    points = cfg.grid_points_per_axis if len(box) <= 3 else min(cfg.grid_points_per_axis, 6)
    mesh = np.meshgrid(*[np.linspace(lo, hi, points if lo < hi else 1) for lo, hi in box],
                       indexing="ij")
    grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    grid_payoffs = evaluate_batch(grid)

    def evaluate_one(params):
        return float(evaluate_batch(np.asarray(params, dtype=float)[None, :])[0])

    order = np.argsort(-grid_payoffs, kind="stable")[:16 if len(box) >= 4 else 1]
    starts = [tuple(map(float, grid[i])) for i in order]
    starts += [solver._clamp_to_box(solver._gauge_fixed(family, params), box)
               for params in extra_starts]
    rng = np.random.default_rng(cfg.seed)
    starts += [solver._gauge_fixed(family, [rng.uniform(lo, hi) for lo, hi in parameter_box(family)])
               for _ in range(solver._RANDOM_STARTS)]
    best_params, best_value = starts[0], -math.inf
    for start, stream in zip(starts, rng.spawn(len(starts))):
        refined, refined_value, _ = reference_refine(
            evaluate_one, start, evaluate_one(start), box, cfg, stream)
        if refined_value > best_value:
            best_params, best_value = refined, refined_value
    return best_params, best_value


def deviation_evaluator(game, profile, player, fidelity=1.0):
    """Deviation payoffs of a batch of strategy matrices."""
    form = _deviation_form(game, [spec.matrix() for spec in reversed(profile)], player)
    return lambda matrices: at_fidelity(game, player, fidelity,
                                        _deviation_payoffs(form, matrices))


def symmetric_evaluator(game, fidelity=1.0):
    """Symmetric payoffs of a batch of strategy matrices."""
    return lambda matrices: at_fidelity(game, 1, fidelity, _symmetric_payoffs(game, matrices))


def on_params(family, evaluate):
    """The evaluator of matrices as one of an (N, k) parameter array."""
    return lambda params: evaluate(_family_matrices(family, np.asarray(params, dtype=float)))


SU3_OFF_BOUND = [parse_strategy("su3:0.3,0.7,1.1,0.5,2,4,1,3")] * 3
BATCHED_CASES = {
    "minority4-full-deviation": (
        Family.FULL_SU2,
        deviation_evaluator(MINORITY4, RANDOM3_PROFILE + RANDOM3_PROFILE[:1], 2, 0.37),
        SearchConfig(seed=4)),
    "minority4-full-symmetric": (
        Family.FULL_SU2, symmetric_evaluator(MINORITY4, 0.6),
        SearchConfig(seed=7)),
    "kolkata-su3-symmetric": (
        Family.FRAME_SU3, symmetric_evaluator(KOLKATA),
        SearchConfig(grid_points_per_axis=2, refine_iterations=30, seed=1)),
    "kolkata-su3-deviation": (
        Family.FRAME_SU3,
        deviation_evaluator(KOLKATA, SU3_OFF_BOUND, 2, 0.6),
        SearchConfig(grid_points_per_axis=2, refine_iterations=30, seed=5)),
}


class TestBatchedRefinement:
    """Batched first-improvement refinement against the single-row reference."""

    @pytest.mark.parametrize("case", list(BATCHED_CASES))
    def test_matches_single_row_reference(self, case):
        family, evaluate, cfg = BATCHED_CASES[case]
        extra = list(FAMILY_PRESETS.get(family, ()))
        params, value, _ = _search_family(family, evaluate, extra, cfg)
        _, reference = reference_search(family, on_params(family, evaluate), extra, cfg)
        assert value >= reference - 1e-12
        assert abs(value - reference) <= 1e-12
        assert abs(float(on_params(family, evaluate)([params])[0]) - value) < 1e-15

    @pytest.mark.parametrize("iterations", [1, 6])
    def test_one_call_per_sweep_plus_one_per_improvement(self, iterations):
        family, on_matrices, _ = BATCHED_CASES["kolkata-su3-symmetric"]
        evaluate = on_params(family, on_matrices)
        box = parameter_box(family)
        cfg = SearchConfig(refine_iterations=iterations, refine_initial_step=0.3)
        start = tuple(lo + 0.37 * (hi - lo) for lo, hi in box)
        start_value = float(evaluate(np.asarray([start]))[0])

        batches = []

        def counting(params):
            batches.append(len(params))
            return evaluate(params)

        seen = []

        def one(params):
            seen.append(float(evaluate(np.asarray([params]))[0]))
            return seen[-1]

        best, value, evaluations = solver._refine(counting, np.asarray([start]), [start_value],
                                                  box, cfg, [np.random.default_rng(3)])
        best, value = best[0], value[0]
        ref_best, ref_value, _ = reference_refine(one, start, start_value, box, cfg,
                                                  np.random.default_rng(3))
        # the reference accepts exactly the values that beat everything before them
        improvements = sum(v > max([start_value] + seen[:i]) for i, v in enumerate(seen))
        assert improvements >= iterations
        assert len(batches) <= iterations + improvements
        assert evaluations == sum(batches)
        assert abs(value - ref_value) <= 1e-12
        np.testing.assert_allclose(best, ref_best, rtol=0, atol=1e-12)

    def test_block_of_axis_orders_equals_sequential_permutations(self):
        # _refine draws a start's axis orders as one block; the rows must be the
        # permutations that one call per sweep would draw from the same stream
        for seed, free, sweeps in ((0, 6, 200), (3, 3, 7), (11, 6, 1)):
            block_stream, = np.random.default_rng(seed).spawn(1)
            sequential_stream, = np.random.default_rng(seed).spawn(1)
            block = block_stream.permuted(np.tile(np.arange(free), (sweeps, 1)), axis=1)
            sequential = [sequential_stream.permutation(free) for _ in range(sweeps)]
            np.testing.assert_array_equal(block, sequential)

    def test_axis_orders_drawn_in_several_blocks_match_the_reference(self, monkeypatch):
        # with two sweeps per block, a start draws its orders again every
        # second sweep, and still follows the single-row reference
        family, on_matrices, _ = BATCHED_CASES["kolkata-su3-symmetric"]
        evaluate = on_params(family, on_matrices)
        box = solver._search_box(family)
        cfg = SearchConfig(refine_iterations=7, refine_initial_step=0.3)
        starts = np.asarray([[lo + t * (hi - lo) for lo, hi in box] for t in (0.37, 0.61)])
        values = evaluate(starts)
        monkeypatch.setattr(solver, "_ORDER_BLOCK", 2)
        best, best_values, _ = solver._refine(evaluate, starts, values, box, cfg,
                                              np.random.default_rng(9).spawn(2))
        for start, value, stream, got, got_value in zip(
                starts, values, np.random.default_rng(9).spawn(2), best, best_values):
            ref_best, ref_value, _ = reference_refine(
                lambda p: float(evaluate(np.asarray([p]))[0]), start, value, box, cfg, stream)
            assert abs(got_value - ref_value) <= 1e-12
            np.testing.assert_allclose(got, ref_best, rtol=0, atol=1e-12)

    def test_default_kolkata_pareto_search_refines_in_lockstep(self):
        family = Family.FRAME_SU3
        evaluate = symmetric_evaluator(KOLKATA)
        batches = []

        def counting(matrices):
            batches.append(len(matrices))
            return evaluate(matrices)

        _, value, evaluations = _search_family(family, counting, list(FAMILY_PRESETS[family]),
                                               SearchConfig())
        # one call per round for all 21 starts makes 238; one call per start
        # and sweep would make over 3 000
        assert len(batches) <= 400
        assert evaluations == sum(batches)
        assert abs(value - 2 / 3) < 1e-12

    def test_ties_go_to_the_first_start(self):
        # a flat payoff never improves, so all five starts end on the same value
        params, value, _ = _search_family(Family.FULL_SU2, lambda p: np.zeros(len(p)), [],
                                          SearchConfig(grid_points_per_axis=3))
        assert value == 0.0
        assert params == tuple(lo for lo, _ in solver._search_box(Family.FULL_SU2))

    def test_streamed_grid_matches_meshgrid(self, monkeypatch):
        profiles = {Family.EISERT_SU2: (MINORITY4, [MINORITY_OPT] * 4),
                    Family.FULL_SU2: (MINORITY4, [MINORITY_OPT] * 4),
                    Family.FRAME_SU3: (KOLKATA, SU3_OFF_BOUND)}
        for family, (game, profile) in profiles.items():
            width = LOCAL_DIMENSION[family] ** 2
            axes = solver._grid_axes(family, 3)
            mesh = np.meshgrid(*axes, indexing="ij")
            grid = np.stack([m.reshape(-1) for m in mesh], axis=-1)
            np.testing.assert_array_equal(solver._grid_rows(axes, np.arange(len(grid))), grid)
            deviation = deviation_evaluator(game, profile, 2)
            symmetric = symmetric_evaluator(game)
            matrices = _family_matrices(family, grid)
            whole = symmetric(matrices)  # one sub-batch at the default budget
            np.testing.assert_array_equal(solver._chunked(symmetric, family, axes), whole)
            with monkeypatch.context() as patch:
                # 8 rows per chunk, 1 per symmetric sub-batch
                patch.setattr(solver, "_SEARCH_BUDGET", 8 * width)
                np.testing.assert_array_equal(solver._chunked(deviation, family, axes),
                                              deviation(matrices))
                # the symmetric kernel reduces each row on its own, so 1-row
                # sub-batches give the whole grid's values bit for bit
                np.testing.assert_array_equal(solver._chunked(symmetric, family, axes), whole)

    def test_kolkata_pareto_identical_across_threads(self, monkeypatch):
        # the ignored threads keyword, and 8 chunks of the 64-point grid with
        # 1-row sub-batches, give the default budget's verdict bit for bit
        cfg = SearchConfig(grid_points_per_axis=2, refine_iterations=8, seed=5)

        def search(threads):
            return pareto_check_symmetric(KOLKATA, 4 / 9, Family.FRAME_SU3, cfg,
                                          threads=threads)

        default = search(1)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_SEARCH_BUDGET", 72)
            assert solver._search_rows(9) == 8 and solver._search_rows(81) == 1
            small = search(8)
        assert default.certificate == "symmetric-witness"
        assert default == small == search(1)


class TestGridFactorTables:
    """The grid gathers per-axis factor tables; refinement calls the constructors."""

    @pytest.mark.parametrize("family,rows", [(Family.FRAME_SU3, 6 ** 6),
                                             (Family.FULL_SU2, 24 ** 3),
                                             (Family.EISERT_SU2, 24 ** 2)])
    def test_every_default_grid_chunk_equals_the_constructor(self, family, rows):
        axes = solver._grid_axes(family, SearchConfig().grid_points_per_axis)
        builder = {Family.FRAME_SU3: su3_frame_batch, Family.FULL_SU2: su2_full_batch,
                   Family.EISERT_SU2: su2_eisert_batch}[family]
        done = [0]

        def check(matrices):
            flat = np.arange(done[0], done[0] + len(matrices))
            want = builder(*solver._grid_rows(axes, flat).T)
            np.testing.assert_array_equal(matrices, want)
            # the bits too: signs of zero included
            np.testing.assert_array_equal(matrices.view(np.uint64), want.view(np.uint64))
            done[0] += len(matrices)
            return np.zeros(len(matrices))

        solver._chunked(check, family, axes)
        assert done[0] == rows

    def test_grid_builds_no_matrix_through_the_constructors(self, monkeypatch):
        # the 46 656 grid rows are gathered; only the starts and the refinement
        # moves go through su3_frame_batch
        built = []
        monkeypatch.setattr(solver, "su3_frame_batch",
                            lambda *p: built.append(np.broadcast(*p).size) or su3_frame_batch(*p))
        pareto_check_symmetric(KOLKATA, 4 / 9, Family.FRAME_SU3, SearchConfig(refine_iterations=0))
        assert built == [len(FAMILY_PRESETS[Family.FRAME_SU3]) + solver._RANDOM_STARTS]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 2 / 3, 1.0, float("nan")]),
                           max_size=80)
           | st.lists(st.floats(allow_nan=False), max_size=40),
           k=st.integers(1, 20))
    def test_partition_top_indices_equal_the_stable_argsort(self, values, k):
        # heavy ties, fewer rows than k, and NaN rows, which both put last
        values = np.asarray(values, dtype=float)
        want = np.argsort(-values, kind="stable")[:k]
        np.testing.assert_array_equal(solver._top_indices(values, k), want)

    def test_refine_clips_moves_at_the_box_edge(self):
        # from a start on the edge, the move out of the box is clipped back to it
        box = ((0.0, 1.0), (0.0, 1.0))
        cfg = SearchConfig(refine_iterations=1, refine_initial_step=0.5)
        seen = []

        def evaluate(params):
            seen.append(params.copy())
            return params.sum(axis=1)

        best, value, _ = solver._refine(evaluate, np.array([[1.0, 0.25]]), [1.25], box, cfg,
                                        [np.random.default_rng(0)])
        moves = np.concatenate(seen)
        assert ((moves >= 0.0) & (moves <= 1.0)).all()
        assert [1.0, 0.25] in moves.tolist()  # +0.5 along the first axis, clipped
        np.testing.assert_array_equal(best, [[1.0, 0.75]])
        assert value[0] == 1.75


def eight_axis_search(family, evaluate, extra_starts, cfg):
    """The best value of the search before the SU(3) phase gauge was fixed:
    every axis of the parameter box gridded and refined, streamed and batched."""
    box = parameter_box(family)
    axes = [np.linspace(lo, hi, min(cfg.grid_points_per_axis, 6)) for lo, hi in box]
    grid_payoffs = solver._chunked(evaluate, family, axes)
    evaluate_batch = on_params(family, evaluate)
    order = np.argsort(-grid_payoffs, kind="stable")[:16]
    starts = [tuple(map(float, row)) for row in solver._grid_rows(axes, order)]
    starts += [solver._clamp_to_box(params, box) for params in extra_starts]
    rng = np.random.default_rng(cfg.seed)
    starts += [tuple(float(rng.uniform(lo, hi)) for lo, hi in box)
               for _ in range(solver._RANDOM_STARTS)]
    values = evaluate_batch(np.asarray(starts))
    return solver._refine(evaluate_batch, np.asarray(starts), values, box, cfg,
                          rng.spawn(len(starts)))[1].max()


RANDOM_QUTRIT3 = random_table_game(3, 3, 8)


class TestPhaseGauge:
    """SU(3) payoffs depend on the alphas only through their sum."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shifts=st.lists(st.tuples(st.floats(-7, 7), st.floats(-7, 7)), min_size=4, max_size=4),
        game=st.sampled_from([KOLKATA, RANDOM_QUTRIT3]),
        fidelity=st.sampled_from([1.0, 0.37]),
        player=st.integers(1, 3),
    )
    def test_payoffs_move_only_with_the_alpha_sum(self, seed, shifts, game, fidelity, player):
        rng = np.random.default_rng(seed)
        params = np.column_stack([rng.uniform(0, np.pi / 2, (4, 3)),
                                  rng.uniform(0, 2 * np.pi, (4, 5))])
        moved = params.copy()
        moved[:, 3:5] += shifts
        moved[:, 5] -= np.sum(shifts, axis=1)
        # rows 0-2 are the profile, player-n-first; row 3 is the deviation
        before, after = (su3_frame_batch(*p.T) for p in (params, moved))
        forms = [_deviation_form(game, list(m[:3]), player) for m in (before, after)]
        deviation = [at_fidelity(game, player, fidelity, _deviation_payoffs(form, m))
                     for form, m in zip(forms, (before, after))]
        symmetric = [at_fidelity(game, 1, fidelity, _symmetric_payoffs(game, m))
                     for m in (before, after)]
        assert np.max(np.abs(deviation[0] - deviation[1])) <= 1e-12
        assert np.max(np.abs(symmetric[0] - symmetric[1])) <= 1e-12

    def test_grid_keeps_the_values_of_the_eight_axis_grid(self):
        axes = solver._grid_axes(Family.FRAME_SU3, 24)
        assert [len(axis) for axis in axes] == [6, 6, 6, 1, 1, 6, 6, 6]
        assert math.prod(len(axis) for axis in axes) == 46656
        # sums of three alpha points, mod 2 pi, are the classes of one axis
        point = np.linspace(0, 2 * np.pi, 6)
        classes = lambda values: set(np.round(np.exp(1j * values), 9).tolist())
        sums = np.add.outer(np.add.outer(point, point), point).ravel()
        assert classes(sums) == classes(axes[5]) and len(classes(axes[5])) == 5

    def test_extra_starts_map_into_the_gauge_with_their_value(self):
        evaluate = on_params(Family.FRAME_SU3, deviation_evaluator(KOLKATA, SU3_OFF_BOUND, 2, 0.6))
        for params in (KOLKATA_OPTIMAL_PARAMS, SU3_OFF_BOUND[0].params):
            fixed = solver._gauge_fixed(Family.FRAME_SU3, params)
            assert fixed[3:5] == (0.0, 0.0) and 0.0 <= fixed[5] < 2 * np.pi
            assert solver._clamp_to_box(fixed, solver._search_box(Family.FRAME_SU3)) == fixed
            assert abs(evaluate(np.asarray([fixed]))[0] - evaluate(np.asarray([params]))[0]) < 1e-14

    @pytest.mark.parametrize("case", ["kolkata-su3-symmetric", "kolkata-su3-deviation"])
    def test_not_below_the_eight_axis_search(self, case):
        family, evaluate, cfg = BATCHED_CASES[case]
        extra = list(FAMILY_PRESETS[family])
        params, value, _ = _search_family(family, evaluate, extra, cfg)
        assert params[3:5] == (0.0, 0.0)
        assert value >= eight_axis_search(family, evaluate, extra, cfg) - 1e-12

    @pytest.mark.parametrize("fidelity", [1.0, 0.6])
    def test_kolkata_best_response_not_below_the_eight_axis_search(self, fidelity):
        result = best_response(KOLKATA, SU3_OFF_BOUND, 2, Family.FRAME_SU3, fidelity=fidelity)
        assert result.certificate == "search"
        assert result.strategy.params[3:5] == (0.0, 0.0)
        evaluate = deviation_evaluator(KOLKATA, SU3_OFF_BOUND, 2, fidelity)
        extra = [SU3_OFF_BOUND[1].params, *FAMILY_PRESETS[Family.FRAME_SU3]]
        reference = eight_axis_search(Family.FRAME_SU3, evaluate, extra, SearchConfig())
        assert result.payoff >= reference - 1e-12
        played = played_payoff(KOLKATA, SU3_OFF_BOUND, 2, result.strategy, fidelity)
        assert abs(result.payoff - played) < 1e-12


class TestAffineFidelity:
    """Payoffs at fidelity f are f * E_1 + (1 - f) * u: every search runs at f = 1."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        shape=st.sampled_from([(3, 2), (2, 3), (4, 2), (3, 3)]),
        fidelity=st.floats(0, 1),
    )
    def test_play_is_affine_in_fidelity(self, seed, shape, fidelity):
        # through play_profile alone, which does not use the solver
        rng = np.random.default_rng(seed)
        game = random_table_game(*shape, seed % 1000)
        ops = list(random_unitaries(rng, shape[0], shape[1]))
        pure = play_profile(game, ops).payoffs
        noisy = play_profile(game, ops, fidelity=fidelity).payoffs
        expected = [at_fidelity(game, player, fidelity, value)
                    for player, value in enumerate(pure, 1)]
        np.testing.assert_allclose(noisy, expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fidelity", [0.0, 0.37, 0.6])
    @pytest.mark.parametrize("game", [minority(5), KOLKATA, RANDOM3, RANDOM_QUTRIT],
                             ids=["minority5", "kolkata", "random3", "random-qutrit"])
    def test_bound_holds_on_the_noisy_reference(self, game, fidelity):
        rng = np.random.default_rng(23)
        n, d = game.shape.n, game.shape.d
        ops = list(random_unitaries(rng, n, d))
        for player in range(1, n + 1):
            form = _deviation_form(game, ops, player)
            bound = at_fidelity(game, player, fidelity, d * np.linalg.eigvalsh(form)[-1])
            noisy = dense_deviation_form(game, ops, player, fidelity)
            sampled = _deviation_payoffs(noisy, random_unitaries(rng, 64, d))
            assert sampled.max() <= bound + 1e-12
            if fidelity == 0.0:
                # every unitary pays u at f = 0, so no valid bound lies below it
                assert bound <= d * np.linalg.eigvalsh(noisy)[-1] + 1e-12

    def test_bound_is_tighter_on_an_asymmetric_table(self):
        # the slot weights of RANDOM3 differ, so the noisy form's top eigenvalue
        # sits above the noise that every deviation shares
        ops = [parse_strategy("full:1,0.3,-0.5").matrix()] * 3
        for fidelity, players in ((0.0, (1, 2, 3)), (0.37, (1, 2, 3)), (0.6, (2, 3))):
            for player in players:
                form = _deviation_form(RANDOM3, ops, player)
                bound = at_fidelity(RANDOM3, player, fidelity, 2 * np.linalg.eigvalsh(form)[-1])
                noisy = dense_deviation_form(RANDOM3, ops, player, fidelity)
                assert bound < 2 * np.linalg.eigvalsh(noisy)[-1] - 1e-3

    def test_su3_response_at_zero_fidelity_exits_on_the_bound(self):
        rng = np.random.default_rng(92)
        profile = [StrategySpec(Family.FRAME_SU3, (*rng.uniform(0, np.pi / 2, 3),
                                                   *rng.uniform(0, 2 * np.pi, 5)))
                   for _ in range(2)]
        result = best_response(RANDOM_QUTRIT, profile, 1, Family.FRAME_SU3, fidelity=0.0)
        assert result.certificate == "bound"
        assert result.evaluations == 2
        assert abs(result.payoff - float(classical_uniform_payoff(RANDOM_QUTRIT)[0])) <= 1e-15

    @pytest.mark.parametrize("fidelity", [0.37, 0.6])
    def test_off_bound_response_keeps_its_f1_strategy(self, fidelity):
        exact = best_response(KOLKATA, SU3_OFF_BOUND, 2, Family.FRAME_SU3)
        noisy = best_response(KOLKATA, SU3_OFF_BOUND, 2, Family.FRAME_SU3, fidelity=fidelity)
        assert noisy.strategy == exact.strategy
        assert (noisy.certificate, noisy.evaluations) == ("search", exact.evaluations)
        assert abs(noisy.payoff - at_fidelity(KOLKATA, 2, fidelity, exact.payoff)) < 1e-15

    @pytest.mark.parametrize("fidelity", [0.37, 0.6])
    def test_minority_six_nash_keeps_its_f1_deviations(self, fidelity):
        game = minority(6)
        exact = verify_nash(game, [MINORITY_OPT] * 6, Family.FULL_SU2)
        noisy = verify_nash(game, [MINORITY_OPT] * 6, Family.FULL_SU2, fidelity=fidelity)
        assert noisy.best_deviations == exact.best_deviations
        assert noisy.certificates == exact.certificates
        np.testing.assert_allclose(noisy.gains, fidelity * np.array(exact.gains),
                                   rtol=0, atol=1e-15)

    def test_sweep_plays_once(self, monkeypatch):
        game = minority(12)
        plays = []
        original = solver.play_symmetric

        def counting(*args, **kwargs):
            plays.append(kwargs.get("fidelity", 1.0))
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "play_symmetric", counting)
        sweep = fidelity_sweep(game, MINORITY_OPT, [i / 1000 for i in range(1001)])
        assert plays == [1.0]
        pure = np.mean(original(game, MINORITY_OPT.matrix()).payoffs)
        uniform = float(sum(classical_uniform_payoff(game)) / game.shape.n)
        assert abs(sweep.slope - (pure - uniform)) <= 1e-15
        assert abs(sweep.intercept - uniform) <= 1e-15
        assert len(sweep.payoffs) == 1001 and sweep.max_residual < 1e-15
