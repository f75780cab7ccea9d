import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qgames.games import (
    classical_embedding_check,
    classical_uniform_payoff,
    entangler,
    game_by_name,
    game_to_json,
    kolkata,
    minority,
    payoff_diagonal,
    payoff_operator,
    play_pd,
    play_profile,
    play_symmetric,
    prisoners_dilemma,
)
from qgames.states import (
    PureState,
    SystemShape,
    add_noise,
    conjugate_density,
    expectation,
    ghz,
    labels,
)
from qgames.strategies import (
    KOLKATA_OPTIMAL_PARAMS,
    MINORITY_OPTIMAL_PARAMS,
    classical_set,
    cyclic_s,
    pauli,
    su2_eisert,
    su2_full,
    su3_frame,
)

I2 = pauli("I")
X = pauli("X")


# --- independent enumeration oracles (no reuse of library rules) ---------------

def minority_oracle(label: str, player: int) -> int:
    """Payoff of `player` for outcome `label` (player-n-first digits)."""
    bits = [int(ch) for ch in label]
    mine = bits[len(bits) - player]  # player 1 is the rightmost digit
    same = bits.count(mine)
    return 1 if same < len(bits) - same else 0


def kolkata_oracle(label: str, player: int) -> int:
    digits = [int(ch) for ch in label]
    mine = digits[len(digits) - player]
    return 1 if digits.count(mine) == 1 else 0


def all_labels(n: int, d: int) -> list[str]:
    return ["".join(str(x) for x in combo)
            for combo in itertools.product(range(d), repeat=n)]


class TestPayoffTables:
    def test_pd_table(self):
        game = prisoners_dilemma()
        assert game.payoff_table["00"] == (3, 3)
        assert game.payoff_table["01"] == (5, 0)   # Alice defects
        assert game.payoff_table["10"] == (0, 5)   # Bob defects
        assert game.payoff_table["11"] == (1, 1)

    def test_minority_table_against_oracle(self):
        game = minority(4)
        for label in all_labels(4, 2):
            for player in range(1, 5):
                assert game.payoff_table[label][player - 1] == minority_oracle(
                    label, player
                )

    def test_kolkata_table_against_oracle(self):
        game = kolkata()
        for label in all_labels(3, 3):
            for player in range(1, 4):
                assert game.payoff_table[label][player - 1] == kolkata_oracle(
                    label, player
                )

    def test_game_by_name(self):
        assert game_by_name("pd").name == "pd"
        assert game_by_name("minority", 5).shape.n == 5
        with pytest.raises(ValueError):
            game_by_name("poker")


class TestPayoffOperators:
    def test_pd_diagonals(self):
        game = prisoners_dilemma()
        np.testing.assert_array_equal(payoff_diagonal(game, 1), [3, 5, 0, 1])
        np.testing.assert_array_equal(payoff_diagonal(game, 2), [3, 0, 5, 1])

    def test_operator_matches_table_for_all_games(self):
        for game in (prisoners_dilemma(), minority(4), kolkata()):
            for player in range(1, game.shape.n + 1):
                op = payoff_operator(game, player)
                assert np.max(np.abs(op - np.diag(op.diagonal()))) == 0.0
                for index, label in enumerate(all_labels(game.shape.n, game.shape.d)):
                    assert op[index, index].real == float(
                        game.payoff_table[label][player - 1]
                    )

    def test_minority_four_player_projector(self):
        op = payoff_operator(minority(4), 1)
        support = [label for label, p in zip(all_labels(4, 2), op.diagonal().real)
                   if p == 1.0]
        assert support == ["0001", "1110"]
        assert int(round(np.trace(op).real)) == 2

    def test_minority_two_player_is_zero(self):
        op = payoff_operator(minority(2), 1)
        assert np.max(np.abs(op)) == 0.0

    def test_minority_three_player_projector(self):
        op = payoff_operator(minority(3), 1)
        support = [label for label, p in zip(all_labels(3, 2), op.diagonal().real)
                   if p == 1.0]
        assert support == ["001", "110"]

    def test_minority_bitflip_pairing(self):
        # winning outcomes come in bit-flipped pairs
        game = minority(4)
        for player in range(1, 5):
            diag = payoff_diagonal(game, player)
            for index in range(16):
                assert diag[index] == diag[15 - index]

    def test_kolkata_rank_twelve(self):
        for player in (1, 2, 3):
            op = payoff_operator(kolkata(), player)
            assert int(round(np.trace(op).real)) == 12

    def test_kolkata_examples(self):
        game = kolkata()
        assert game.payoff_table["012"] == (1, 1, 1)
        # "220": only player 1 (rightmost digit 0) has a unique choice
        assert game.payoff_table["220"] == (1, 0, 0)

    def test_minority_sum_bound(self):
        game = minority(4)
        for label in all_labels(4, 2):
            assert sum(game.payoff_table[label]) <= 1


class TestEntangler:
    def test_action_on_ground_state(self):
        j = entangler()
        ket00 = np.zeros(4)
        ket00[0] = 1
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1 / math.sqrt(2)
        expected[3] = 1j / math.sqrt(2)
        np.testing.assert_allclose(j @ ket00, expected, atol=1e-15)

    def test_unitary(self):
        j = entangler()
        np.testing.assert_allclose(j @ j.conj().T, np.eye(4), atol=1e-15)

    def test_flip_pair_passes_through(self):
        # commuting flips cancel against the disentangler
        j = entangler()
        flips = np.kron(X, X)
        ket00 = np.zeros(4)
        ket00[0] = 1
        out = j.conj().T @ flips @ j @ ket00
        np.testing.assert_allclose(np.abs(out) ** 2, [0, 0, 0, 1], atol=1e-15)


class TestPlayPd:
    def test_mutual_cooperation(self):
        state = play_pd(I2, I2)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [1, 0, 0, 0],
                                   atol=1e-15)

    def test_mutual_defection(self):
        state = play_pd(X, X)
        np.testing.assert_allclose(np.abs(state.amplitudes) ** 2, [0, 0, 0, 1],
                                   atol=1e-15)

    def test_quantum_equilibrium_payoffs(self):
        q = su2_eisert(0, math.pi / 2)
        report = play_symmetric(prisoners_dilemma(), q)
        np.testing.assert_allclose(report.payoffs, [3.0, 3.0], atol=1e-9)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            play_pd(np.diag([1.0, 2.0]), I2)


class TestPlayProfile:
    def test_pd_alice_defects(self):
        # ops are player-n-first: (Bob, Alice)
        report = play_profile(prisoners_dilemma(), [I2, X])
        np.testing.assert_allclose(report.payoffs, [5.0, 0.0], atol=1e-9)

    def test_pd_rejects_noise(self):
        with pytest.raises(ValueError):
            play_profile(prisoners_dilemma(), [I2, I2], fidelity=0.5)

    def test_wrong_operator_count(self):
        with pytest.raises(ValueError):
            play_profile(minority(4), [I2, I2])

    def test_kolkata_classical_profile(self):
        report = play_profile(kolkata(), [cyclic_s(1), cyclic_s(2), cyclic_s(0)])
        np.testing.assert_allclose(report.payoffs, [1.0, 1.0, 1.0], atol=1e-12)

    def test_identity_profiles_average_diagonal_strings(self):
        # GHZ games: all-identity payoffs average the d aligned outcomes
        for game in (minority(4), kolkata()):
            report = play_profile(game, [np.eye(game.shape.d)] * game.shape.n)
            aligned = [str(k) * game.shape.n for k in range(game.shape.d)]
            for player in range(1, game.shape.n + 1):
                expected = sum(
                    float(game.payoff_table[label][player - 1]) for label in aligned
                ) / game.shape.d
                assert abs(report.payoffs[player - 1] - expected) < 1e-12

    def test_pd_identity_profile_cooperates(self):
        report = play_profile(prisoners_dilemma(), [I2, I2])
        np.testing.assert_allclose(report.payoffs, [3.0, 3.0], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        report = play_profile(kolkata(), [cyclic_s(0)] * 3, fidelity=0.37)
        assert abs(sum(report.probabilities.values()) - 1.0) < 1e-9

    def test_payoffs_reproducible_from_probabilities(self):
        game = kolkata()
        u = su3_frame(*KOLKATA_OPTIMAL_PARAMS)
        report = play_symmetric(game, u, fidelity=0.6)
        for player in range(1, 4):
            recomputed = sum(
                report.probabilities[label] * float(game.payoff_table[label][player - 1])
                for label in report.probabilities
            )
            assert abs(recomputed - report.payoffs[player - 1]) < 1e-9


class TestPlaySymmetric:
    def test_minority_optimum(self):
        report = play_symmetric(minority(4), su2_full(*MINORITY_OPTIMAL_PARAMS))
        np.testing.assert_allclose(report.payoffs, [0.25] * 4, atol=1e-9)
        even_splits = [label for label in all_labels(4, 2) if label.count("1") == 2]
        assert sum(report.probabilities[label] for label in even_splits) < 1e-12

    def test_kolkata_optimum(self):
        report = play_symmetric(kolkata(), su3_frame(*KOLKATA_OPTIMAL_PARAMS))
        np.testing.assert_allclose(report.payoffs, [2 / 3] * 3, atol=1e-9)

    def test_kolkata_identity_fully_mixed(self):
        report = play_symmetric(kolkata(), np.eye(3), fidelity=0.0)
        np.testing.assert_allclose(report.payoffs, [4 / 9] * 3, atol=1e-9)
        assert all(abs(p - 1 / 27) < 1e-12 for p in report.probabilities.values())

    def test_symmetric_profiles_pay_equally(self):
        rng = np.random.default_rng(31)
        game = kolkata()
        for _ in range(5):
            u = su3_frame(*rng.uniform(0, np.pi / 2, 3), *rng.uniform(0, 2 * np.pi, 5))
            report = play_symmetric(game, u, fidelity=float(rng.uniform(0, 1)))
            assert max(report.payoffs) - min(report.payoffs) < 1e-12

    def test_payoffs_affine_in_fidelity(self):
        game = kolkata()
        u = su3_frame(*KOLKATA_OPTIMAL_PARAMS)
        for f in np.linspace(0, 1, 7):
            report = play_symmetric(game, u, fidelity=float(f))
            expected = 2 / 9 * (f + 2)
            assert abs(report.payoffs[0] - expected) < 1e-9

    def test_perturbed_optimum_pays_less(self):
        # nudging the last frame parameter by 0.3 rad must lose payoff
        params = list(KOLKATA_OPTIMAL_PARAMS)
        params[-1] -= 0.3
        report = play_symmetric(kolkata(), su3_frame(*params))
        assert report.payoffs[0] < 2 / 3 - 1e-3


class TestClassicalOracles:
    def test_uniform_payoffs_exact(self):
        assert classical_uniform_payoff(prisoners_dilemma()) == (
            Fraction(9, 4), Fraction(9, 4),
        )
        assert classical_uniform_payoff(minority(4)) == (Fraction(1, 8),) * 4
        assert classical_uniform_payoff(kolkata()) == (Fraction(4, 9),) * 3

    def test_uniform_payoff_matches_enumeration(self):
        # independent re-derivation by averaging the oracle over outcomes
        total = 0
        for label in all_labels(4, 2):
            total += minority_oracle(label, 2)
        assert classical_uniform_payoff(minority(4))[1] == Fraction(total, 16)


class TestClassicalEmbedding:
    def test_pd(self):
        result = classical_embedding_check(prisoners_dilemma())
        assert result.ok and result.profiles_checked == 4
        assert result.max_abs_error < 1e-9

    def test_kolkata(self):
        result = classical_embedding_check(kolkata())
        assert result.ok and result.profiles_checked == 27

    def test_minority(self):
        result = classical_embedding_check(minority(4))
        assert result.ok and result.profiles_checked == 16

    def test_ghz_shift_invariance(self):
        # the embedding works because aligned shifts relabel GHZ branches
        shape = SystemShape(3, 3)
        state = ghz(shape)
        ops = [cyclic_s(2), cyclic_s(0), cyclic_s(1)]
        full = np.kron(np.kron(ops[0], ops[1]), ops[2])
        shifted = full @ state.amplitudes
        probs = np.abs(shifted) ** 2
        support = np.flatnonzero(probs > 1e-12)
        assert len(support) == 3


class TestSerialization:
    def test_game_to_json_shape(self):
        payload = game_to_json(kolkata())
        assert payload["game"] == "kolkata"
        assert payload["n"] == 3 and payload["d"] == 3
        assert len(payload["payoffs"]) == 27
        assert payload["payoffs"]["012"] == [1, 1, 1]
        assert payload["payoffs"]["220"] == [1, 0, 0]

    def test_pd_json(self):
        payload = game_to_json(prisoners_dilemma())
        assert payload["payoffs"]["01"] == [5, 0]
        assert list(payload["payoffs"]) == ["00", "01", "10", "11"]


# --- the state-vector protocol against the dense density-matrix reference ------

def dense_play(game, ops, fidelity):
    """Payoffs and outcome distribution through D x D density matrices."""
    if game.use_entangler_pair:
        j = entangler()
        rho = conjugate_density(ops, add_noise(PureState(game.shape, j[:, 0]), fidelity))
        rho_matrix = j.conj().T @ rho.matrix @ j
        payoffs = [float(np.real(np.trace(payoff_operator(game, p) @ rho_matrix)))
                   for p in range(1, game.shape.n + 1)]
        return payoffs, rho_matrix.diagonal().real
    rho = conjugate_density(ops, add_noise(ghz(game.shape), fidelity))
    payoffs = [expectation(rho, payoff_operator(game, p)) for p in range(1, game.shape.n + 1)]
    return payoffs, rho.matrix.diagonal().real


def random_local_unitary(rng, d):
    if d == 2:
        return su2_full(rng.uniform(0, np.pi), *rng.uniform(-np.pi, np.pi, 2))
    return su3_frame(*rng.uniform(0, np.pi / 2, 3), *rng.uniform(0, 2 * np.pi, 5))


DENSE_CASES = [(prisoners_dilemma(), (1.0,))] + [
    (game, (0.0, 0.37, 1.0)) for game in [minority(n) for n in range(2, 7)] + [kolkata()]
]


@pytest.mark.parametrize("game,fidelities", DENSE_CASES,
                         ids=[f"{g.name}{g.shape.n}" for g, _ in DENSE_CASES])
def test_play_profile_matches_dense_reference(game, fidelities):
    rng = np.random.default_rng(61 + game.shape.n)
    for f in fidelities:
        for _ in range(3):
            ops = [random_local_unitary(rng, game.shape.d) for _ in range(game.shape.n)]
            report = play_profile(game, ops, fidelity=f)
            payoffs, probabilities = dense_play(game, ops, f)
            np.testing.assert_allclose(report.payoffs, payoffs, rtol=0, atol=1e-12)
            assert list(report.probabilities) == list(labels(game.shape))
            np.testing.assert_allclose(list(report.probabilities.values()), probabilities,
                                       rtol=0, atol=1e-12)


class TestPayoffCache:
    def test_payoffs_read_only_in_index_order(self):
        game = kolkata()
        assert game.payoffs.shape == (3, 27)
        assert game.outcome_labels == tuple(labels(game.shape))
        for index, label in enumerate(game.outcome_labels):
            assert tuple(game.payoffs[:, index]) == game.payoff_table[label]
        with pytest.raises(ValueError):
            game.payoffs[0, 0] = 2.0
        assert game.payoffs is game.payoffs

    def test_payoff_diagonal_is_a_row(self):
        game = minority(5)
        for player in range(1, 6):
            np.testing.assert_array_equal(payoff_diagonal(game, player),
                                          game.payoffs[player - 1])
        with pytest.raises(ValueError):
            payoff_diagonal(game, 6)


class TestPlayValidation:
    @pytest.mark.parametrize("fidelity", [1.5, -0.1, float("nan")])
    def test_fidelity_out_of_range(self, fidelity):
        with pytest.raises(ValueError, match=r"fidelity must lie in \[0, 1\]"):
            play_profile(kolkata(), [np.eye(3)] * 3, fidelity=fidelity)

    def test_lenient_mode_warns_on_non_unitary(self):
        # columns of unit norm: not unitary, but |00> + |11> keeps its norm
        skew = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not unitary"):
            play_profile(minority(2), [skew, I2])
        with pytest.warns(UserWarning, match="not unitary"):
            report = play_profile(minority(2), [skew, I2], strict=False)
        assert abs(sum(report.probabilities.values()) - 1.0) < 1e-12
