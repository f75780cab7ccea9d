import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from qgames import games, solver, states, verify
from qgames.games import (
    EmbeddingCheck,
    GameSpec,
    classical_embedding_check,
    classical_uniform_payoff,
    entangler,
    game_by_name,
    game_to_json,
    kolkata,
    minority,
    play_profile,
    play_symmetric,
    prisoners_dilemma,
    protocol_amplitudes,
)
from qgames.states import SystemShape, ghz, labels
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


def payoff(game, label, player):
    """The exact payoff of ``player`` at outcome ``label``."""
    return Fraction(int(game.numerators[player - 1, int(label, game.shape.d)]),
                    game.denominator)


class TestPayoffTables:
    def test_pd_table(self):
        game = prisoners_dilemma()
        table = {label: (payoff(game, label, 1), payoff(game, label, 2))
                 for label in all_labels(2, 2)}
        assert table["00"] == (3, 3)
        assert table["01"] == (5, 0)   # Alice defects
        assert table["10"] == (0, 5)   # Bob defects
        assert table["11"] == (1, 1)

    def test_minority_table_against_oracle(self):
        game = minority(4)
        for label in all_labels(4, 2):
            for player in range(1, 5):
                assert payoff(game, label, player) == minority_oracle(label, player)

    def test_kolkata_table_against_oracle(self):
        game = kolkata()
        for label in all_labels(3, 3):
            for player in range(1, 4):
                assert payoff(game, label, player) == kolkata_oracle(label, player)

    def test_game_by_name(self):
        assert game_by_name("pd").name == "pd"
        assert game_by_name("minority", 5).shape.n == 5
        with pytest.raises(ValueError):
            game_by_name("poker")

    def test_game_by_name_holds_fixed_player_counts(self):
        assert game_by_name("pd", 2).shape.n == 2
        assert game_by_name("kolkata", 3).shape.n == 3
        for name, n, fixed in (("pd", 3, 2), ("kolkata", 5, 3), ("kolkata", 2, 3)):
            with pytest.raises(ValueError, match=f"the {name} game has {fixed} players, got n={n}"):
                game_by_name(name, n)


@pytest.mark.parametrize("n", range(2, 15))
def test_vectorised_minority_matches_label_loop(n):
    game = minority(n)
    expected = [[minority_oracle(label, player) for label in labels(game.shape)]
                for player in range(1, n + 1)]
    assert game.denominator == 1
    np.testing.assert_array_equal(game.numerators, expected)


def test_vectorised_kolkata_matches_label_loop():
    game = kolkata()
    expected = [[kolkata_oracle(label, player) for label in labels(game.shape)]
                for player in range(1, 4)]
    assert game.denominator == 1
    np.testing.assert_array_equal(game.numerators, expected)


class TestGameSpec:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            GameSpec("g", SystemShape(2, 2), False, np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError, match="shape"):
            GameSpec("g", SystemShape(2, 2), False, np.zeros((4, 2), dtype=int))

    def test_non_integer_numerators_rejected(self):
        with pytest.raises(ValueError, match="integers"):
            GameSpec("g", SystemShape(2, 2), False, np.full((2, 4), 0.5))
        with pytest.raises(ValueError, match="integers"):
            GameSpec("g", SystemShape(2, 2), False, np.zeros((2, 4), dtype=bool))

    @pytest.mark.parametrize("denominator", [0, -3, 1.0, 2.5])
    def test_bad_denominator_rejected(self, denominator):
        with pytest.raises(ValueError, match="denominator"):
            GameSpec("g", SystemShape(2, 2), False, np.zeros((2, 4), dtype=int), denominator)

    def test_numerators_are_a_read_only_copy(self):
        source = np.arange(8).reshape(2, 4)
        game = GameSpec("g", SystemShape(2, 2), False, source, 7)
        source[0, 0] = 5
        assert game.numerators[0, 0] == 0
        with pytest.raises(ValueError):
            game.numerators[0, 0] = 1
        np.testing.assert_array_equal(game.payoffs, np.arange(8).reshape(2, 4) / 7)


class TestPayoffOperators:
    def test_pd_diagonals(self):
        game = prisoners_dilemma()
        np.testing.assert_array_equal(game.payoffs[0], [3, 5, 0, 1])
        np.testing.assert_array_equal(game.payoffs[1], [3, 0, 5, 1])

    def test_operator_matches_table_for_all_games(self):
        # the float row of each player is its exact payoff at every index
        for game in (prisoners_dilemma(), minority(4), kolkata()):
            for player in range(1, game.shape.n + 1):
                row = game.payoffs[player - 1]
                for index, label in enumerate(all_labels(game.shape.n, game.shape.d)):
                    assert row[index] == float(payoff(game, label, player))

    def test_minority_four_player_projector(self):
        row = minority(4).payoffs[0]
        support = [label for label, p in zip(all_labels(4, 2), row) if p == 1.0]
        assert support == ["0001", "1110"]
        assert row.sum() == 2

    def test_minority_two_player_is_zero(self):
        assert np.max(np.abs(minority(2).payoffs)) == 0.0

    def test_minority_three_player_projector(self):
        row = minority(3).payoffs[0]
        support = [label for label, p in zip(all_labels(3, 2), row) if p == 1.0]
        assert support == ["001", "110"]

    def test_minority_bitflip_pairing(self):
        # winning outcomes come in bit-flipped pairs
        game = minority(4)
        for player in range(1, 5):
            row = game.payoffs[player - 1]
            for index in range(16):
                assert row[index] == row[15 - index]

    def test_kolkata_rank_twelve(self):
        for player in (1, 2, 3):
            assert kolkata().numerators[player - 1].sum() == 12

    def test_kolkata_examples(self):
        game = kolkata()
        assert tuple(game.numerators[:, int("012", 3)]) == (1, 1, 1)
        # "220": only player 1 (rightmost digit 0) has a unique choice
        assert tuple(game.numerators[:, int("220", 3)]) == (1, 0, 0)

    def test_minority_sum_bound(self):
        assert minority(4).numerators.sum(axis=0).max() <= 1


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


def haar_unitary(rng, d):
    """A Haar-random d x d unitary: QR of a complex Gaussian, phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestPlayPd:
    def test_mutual_cooperation(self):
        report = play_profile(prisoners_dilemma(), [I2, I2])
        np.testing.assert_allclose(list(report.probabilities.values()), [1, 0, 0, 0],
                                   atol=1e-15)

    def test_mutual_defection(self):
        report = play_profile(prisoners_dilemma(), [X, X])
        np.testing.assert_allclose(list(report.probabilities.values()), [0, 0, 0, 1],
                                   atol=1e-15)

    def test_quantum_equilibrium_payoffs(self):
        q = su2_eisert(0, math.pi / 2)
        report = play_symmetric(prisoners_dilemma(), q)
        np.testing.assert_allclose(report.payoffs, [3.0, 3.0], atol=1e-9)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            play_profile(prisoners_dilemma(), [I2, np.diag([1.0, 2.0])])

    def test_protocol_matches_dense_dilemma(self):
        # J-dagger (U_B (x) U_A) J |00>, amplitudes with their phases, for every
        # pair of 4 Bob moves on the first axis and 4 Alice moves on the second
        rng = np.random.default_rng(29)
        j = entangler()
        bobs, alices = (np.array([haar_unitary(rng, 2) for _ in range(4)]) for _ in range(2))
        final = protocol_amplitudes(prisoners_dilemma(), [bobs[:, None], alices])
        assert final.shape == (4, 4, 4)
        for row, (u_bob, u_alice) in zip(final.reshape(16, 4), itertools.product(bobs, alices)):
            np.testing.assert_allclose(row, j.conj().T @ np.kron(u_bob, u_alice) @ j[:, 0],
                                       rtol=0, atol=1e-13)

    def test_resource_phase(self):
        # J|00> = (|00> + i|11>)/sqrt(2): J-dagger undoes it only with the phase i
        np.testing.assert_allclose(protocol_amplitudes(prisoners_dilemma(), [I2, I2]),
                                   [1, 0, 0, 0], rtol=0, atol=1e-15)


def test_resource_state_is_built_once_per_shape_and_protocol():
    for make in (prisoners_dilemma, kolkata, lambda: minority(6)):
        state = games.resource_state(make())
        assert games.resource_state(make()) is state
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0
    np.testing.assert_array_equal(games.resource_state(minority(6)).amplitudes,
                                  ghz(SystemShape(6, 2)).amplitudes)
    np.testing.assert_array_equal(games.resource_state(prisoners_dilemma()).amplitudes,
                                  entangler()[:, 0])


def spy_on_the_core(monkeypatch, record):
    """Route every module's protocol_amplitudes through ``record(moves, out)``."""
    core = games.protocol_amplitudes

    def spy(game, moves):
        out = core(game, moves)
        record(moves, out)
        return out

    for module in (games, solver, verify):
        monkeypatch.setattr(module, "protocol_amplitudes", spy)


def test_every_protocol_caller_runs_the_core(monkeypatch):
    calls = []
    spy_on_the_core(monkeypatch, lambda moves, out: calls.append(
        [np.shape(u)[:-2] for u in moves]))  # the leading axes of each player's moves
    pd = prisoners_dilemma()
    runs = {
        # a play has no leading axes
        "pd play": (lambda: play_profile(pd, [I2, X]), [[()] * 2]),
        "minority play": (lambda: play_profile(minority(4), [su2_full(0.3, 0.2, 0.1)] * 4),
                          [[()] * 4]),
        "kolkata play": (lambda: play_symmetric(kolkata(), su3_frame(*KOLKATA_OPTIMAL_PARAMS)),
                         [[()] * 3]),
        # every player takes the whole classical set on an axis of its own: 8 profiles
        "embedding check": (lambda: classical_embedding_check(minority(3)),
                            [[(2, 1, 1), (2, 1), (2,)]]),
        # player 2's slot holds the 9 matrix units
        "deviation form": (lambda: solver._deviation_form(kolkata(), [cyclic_s(1)] * 3, 2),
                           [[(), (9,), ()]]),
        "pd symmetric": (lambda: solver._symmetric_evaluator(pd)(np.stack([I2, X])),
                         [[(2,)] * 2]),
    }
    for name, (run, sets) in runs.items():
        calls.clear()
        run()
        assert calls == sets, f"{name} reached the protocol core as {calls}"
    assert not hasattr(states, "apply_local_batch")
    assert not hasattr(games, "_play_amplitudes")


EMBEDDED = {"pd": prisoners_dilemma(), **{f"minority{n}": minority(n) for n in range(2, 13)},
            "kolkata": kolkata()}


@pytest.mark.parametrize("name", EMBEDDED)
def test_embedding_check_does_not_depend_on_the_batch_budget(monkeypatch, name):
    # at 64 amplitudes fewer trailing players take the classical set, and
    # from minority(7) on each call holds one profile
    default = classical_embedding_check(EMBEDDED[name])
    monkeypatch.setattr(states, "BATCH_BUDGET", 64)
    assert classical_embedding_check(EMBEDDED[name]) == default


@pytest.mark.parametrize("budget", [64, states.BATCH_BUDGET])
def test_no_core_output_exceeds_the_batch_budget(monkeypatch, budget):
    # the core's output is its largest array: the profiles only grow, step by step
    outputs = []
    spy_on_the_core(monkeypatch, lambda moves, out: outputs.append(out.shape))
    monkeypatch.setattr(states, "BATCH_BUDGET", budget)
    u = su2_full(0.3, 0.2, 0.1)
    for game in (prisoners_dilemma(), minority(8), minority(11), kolkata()):
        classical_embedding_check(game)
    for n in (4, 9, 11):
        solver._deviation_form(minority(n), [u] * n, 2)
    solver._deviation_form(kolkata(), [cyclic_s(1)] * 3, 2)
    solver._symmetric_evaluator(prisoners_dilemma())(np.stack([u] * 3000))
    verify.check_property_suites()
    assert len(outputs) > 20
    for shape in outputs:
        # one state is the floor: a single row of a large game holds more
        assert math.prod(shape) <= max(budget, shape[-1]), shape
    # a play builds no array larger than one state; its closing product holds
    # two at once, its input and its output
    game, stack = minority(12), np.stack([u] * 12)
    protocol_amplitudes(game, stack)
    tracemalloc.start()
    try:
        amplitudes = protocol_amplitudes(game, stack)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amplitudes.shape == (game.shape.dim,)
    state_bytes = game.shape.dim * np.dtype(complex).itemsize
    assert peak < 2 * state_bytes + state_bytes // 2, (peak, state_bytes)


# the dilemma's resource J|00> carries a phase i on |11>; a one-player GHZ state
# is the uniform superposition of the d choices
SOLO = GameSpec("solo", SystemShape(1, 3), False, np.array([[2, 0, 1]]), 2)
# games small enough for the dense reference: D <= 256
CORE_GAMES = {"pd": prisoners_dilemma(), **{f"minority{n}": minority(n) for n in range(2, 9)},
              "kolkata": kolkata(), "solo": SOLO}
# amplitudes one drawn batch may hold
CORE_LIMIT = 1 << 15


def dense_final(game, ops):
    """J-dagger U J|00> or U|GHZ> for one player-n-first profile, on D x D matrices."""
    state = dense.tensor(ops) @ games.resource_state(game).amplitudes
    return entangler().conj().T @ state if game.use_entangler_pair else state


def haar_batch(rng, shape, d):
    """Haar-random d x d unitaries of the given leading shape."""
    return np.array([haar_unitary(rng, d) for _ in range(math.prod(shape))]).reshape(
        shape + (d, d))


@st.composite
def cartesian_sets(draw):
    """(game name, rows or None, set sizes player n first, seed), at most CORE_LIMIT amplitudes."""
    name = draw(st.sampled_from(list(CORE_GAMES)))
    shape = CORE_GAMES[name].shape
    rows = draw(st.none() | st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=shape.n, max_size=shape.n))
    for i in range(shape.n):  # sets of one move, player n first, until the batch fits
        if (rows or 1) * math.prod(sizes) * shape.dim > CORE_LIMIT:
            sizes[i] = 1
    return name, rows, sizes, draw(st.integers(0, 2 ** 32 - 1))


class TestProtocolCore:
    """sum_k c_k prod_p U_p[x_p, k] over broadcast leading axes, against the dense
    reference and against each profile run alone."""

    def check_profile(self, game, out, profile):
        alone = protocol_amplitudes(game, np.stack(profile))
        np.testing.assert_array_equal(out, alone)  # the same bits on any axis
        np.testing.assert_allclose(alone, dense_final(game, profile), rtol=0, atol=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(list(CORE_GAMES)), rows=st.integers(1, 4),
           shared=st.lists(st.booleans(), min_size=8, max_size=8),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows(self, name, rows, shared, seed):
        # one axis of profiles; a player with no leading axes plays every row
        game = CORE_GAMES[name]
        n, d = game.shape.n, game.shape.d
        rng = np.random.default_rng(seed)
        moves = [haar_batch(rng, () if shared[i] else (rows,), d) for i in range(n)]
        out = protocol_amplitudes(game, moves)
        leading = () if all(shared[:n]) else (rows,)
        assert out.shape == leading + (game.shape.dim,)
        for b in range(rows if leading else 1):
            self.check_profile(game, out[b] if leading else out,
                               [u if u.ndim == 2 else u[b] for u in moves])

    @settings(max_examples=60, deadline=None)
    @given(cartesian_sets())
    def test_cartesian_sets(self, case):
        # each player's set on an axis of its own, player n's the major one,
        # optionally behind an axis of rows
        name, rows, sizes, seed = case
        game = CORE_GAMES[name]
        n, d = game.shape.n, game.shape.d
        rng = np.random.default_rng(seed)
        front = () if rows is None else (rows,)
        # player i's set on leading axis i (after the rows); with no rows the
        # axes before it are left out and broadcast
        moves = [haar_batch(rng, (front + (1,) * i if front else ()) + (k,) + (1,) * (n - 1 - i),
                            d) for i, k in enumerate(sizes)]
        out = protocol_amplitudes(game, moves)
        assert out.shape == front + tuple(sizes) + (game.shape.dim,)
        for index in itertools.product(*map(range, front + tuple(sizes))):
            picks = [index[:len(front)] + (0,) * i + (index[len(front) + i],) + (0,) * (n - 1 - i)
                     for i in range(n)]
            profile = [u[pick[len(pick) + 2 - u.ndim:]] for u, pick in zip(moves, picks)]
            self.check_profile(game, out[index], profile)

    @pytest.mark.parametrize("d, n", [(2, n) for n in range(1, 15)]
                             + [(3, n) for n in range(1, 10)])
    def test_rows_do_not_depend_on_their_batch(self, d, n):
        # up to the dimension cap: three rows, then a set of three moves at the
        # middle slot beside fixed moves, each profile the same bits as alone
        game = GameSpec("probe", SystemShape(n, d), False, np.zeros((n, d ** n), int))
        rng = np.random.default_rng(100 * d + n)
        rows = haar_batch(rng, (n, 3), d)
        for k, out in enumerate(protocol_amplitudes(game, list(rows))):
            np.testing.assert_array_equal(out, protocol_amplitudes(game, rows[:, k]))
        fixed = list(rows[:, 0])
        for k, out in enumerate(protocol_amplitudes(game, fixed[:n // 2] + [rows[n // 2]]
                                                    + fixed[n // 2 + 1:])):
            profile = fixed[:n // 2] + [rows[n // 2, k]] + fixed[n // 2 + 1:]
            np.testing.assert_array_equal(out, protocol_amplitudes(game, np.stack(profile)))

    def test_one_player(self):
        # n = 1: U times the uniform superposition, one profile or a row of them
        rng = np.random.default_rng(3)
        moves = haar_batch(rng, (4,), 3)
        out = protocol_amplitudes(SOLO, [moves])
        np.testing.assert_allclose(out, moves.sum(axis=-1) / math.sqrt(3), rtol=0, atol=1e-15)
        for row, u in zip(out, moves):
            np.testing.assert_array_equal(row, protocol_amplitudes(SOLO, [u]))

    @pytest.mark.parametrize("name", ["pd", "minority2", "minority5", "kolkata", "solo"])
    def test_a_play_keeps_the_closed_form_of_one_profile(self, name):
        # the play path's arithmetic, bit for bit: a running Khatri-Rao product
        # of the players' columns, one product with the last matrix, then J-dagger
        game = CORE_GAMES[name]
        d = game.shape.d
        stack = haar_batch(np.random.default_rng(7), (game.shape.n,), d)
        acc = games.resource_state(game).amplitudes[None, ::(game.shape.dim - 1) // (d - 1)]
        for u in stack[:-1]:
            acc = np.einsum("mk,xk->mxk", acc, u).reshape(-1, d)
        expected = (acc @ stack[-1].T).reshape(-1)
        if game.use_entangler_pair:
            expected = expected @ entangler().conj()
        np.testing.assert_array_equal(protocol_amplitudes(game, stack), expected)


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
                    float(payoff(game, label, player)) for label in aligned
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
                report.probabilities[label] * float(payoff(game, label, player))
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


def reference_embedding_check(game, atol=1e-9):
    """One ``play_profile`` per classical profile: the loop the batched check replaces."""
    n, d = game.shape.n, game.shape.d
    operators = classical_set(d)
    worst = 0.0
    count = 0
    for ks in itertools.product(range(len(operators)), repeat=n):
        report = play_profile(game, [operators[k] for k in ks])
        expected = game.payoffs[:, np.ravel_multi_index(ks, (d,) * n)]
        for got, want in zip(report.payoffs, expected):
            worst = max(worst, abs(got - float(want)))
        count += 1
    return EmbeddingCheck(worst <= atol, worst, count)


class TestClassicalEmbedding:
    @pytest.mark.parametrize("game", [prisoners_dilemma(), kolkata(),
                                      *(minority(n) for n in range(2, 9))],
                             ids=lambda game: f"{game.name}{game.shape.n}")
    def test_matches_one_play_per_profile(self, game):
        assert classical_embedding_check(game) == reference_embedding_check(game)

    def test_batches_stay_under_the_amplitude_budget(self, monkeypatch):
        # 1024 profiles of 1024 amplitudes: 16 MB in one batch, 32 kB per batch of 2
        monkeypatch.setattr(states, "BATCH_BUDGET", 2048)
        tracemalloc.start()
        try:
            result = classical_embedding_check(minority(10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.ok and result.profiles_checked == 1024
        assert peak < 1 << 20

    def test_non_unitary_classical_operator_rejected(self, monkeypatch):
        monkeypatch.setattr(games, "classical_set", lambda d: [np.eye(d), 2 * np.eye(d)])
        with pytest.raises(ValueError, match="not unitary"):
            classical_embedding_check(minority(3))

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

    def test_integer_tables_render_as_ints(self):
        for game in (prisoners_dilemma(), minority(5), kolkata()):
            for row in game_to_json(game)["payoffs"].values():
                assert all(type(v) is int for v in row)

    def test_sevenths_render_as_floats(self):
        # 7/7 and 14/7 divide out to ints; the other sevenths stay floats
        game = GameSpec("g", SystemShape(2, 2), False, [[0, 7, 14, 3], [1, 2, 21, 13]], 7)
        payoffs = game_to_json(game)["payoffs"]
        assert payoffs == {"00": [0, 1 / 7], "01": [1, 2 / 7],
                           "10": [2, 3], "11": [3 / 7, 13 / 7]}
        assert [type(v) for v in payoffs["00"]] == [int, float]
        assert [type(v) for v in payoffs["10"]] == [int, int]


# --- the state-vector protocol against the dense density-matrix reference ------

def dense_play(game, ops, fidelity):
    """Payoffs and outcome distribution through D x D density matrices."""
    if game.use_entangler_pair:
        j = entangler()
        rho = dense.conjugate(ops, dense.density(j[:, 0], fidelity))
        rho = j.conj().T @ rho @ j
    else:
        rho = dense.conjugate(ops, dense.density(ghz(game.shape).amplitudes, fidelity))
    payoffs = [dense.expectation(row, rho) for row in game.payoffs]
    return payoffs, rho.diagonal().real


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
            assert tuple(game.payoffs[:, index]) == tuple(
                payoff(game, label, player) for player in (1, 2, 3))
        with pytest.raises(ValueError):
            game.payoffs[0, 0] = 2.0
        assert game.payoffs is game.payoffs

    def test_payoff_diagonal_is_a_row(self):
        # a player's payoff diagonal is its row of numerators over the denominator
        game = minority(5)
        for player in range(1, 6):
            np.testing.assert_array_equal(game.payoffs[player - 1],
                                          game.numerators[player - 1] / game.denominator)


class TestOccupationTypes:
    """Player 1's payoff summed by occupation type, against the labels."""

    CASES = [minority(n) for n in range(2, 15)] + [
        kolkata(),
        GameSpec("random", SystemShape(2, 3), False, np.arange(18).reshape(2, 9) % 5 - 1, 3),
        GameSpec("random", SystemShape(3, 3), False, (np.arange(81).reshape(3, 27) * 7) % 4, 2),
    ]

    @pytest.mark.parametrize("game", CASES, ids=[f"{g.name}{g.shape.n}x{g.shape.d}" for g in CASES])
    def test_table_holds_every_weighted_type(self, game):
        n, d = game.shape.n, game.shape.d
        weights = {}
        for label, value in zip(game.outcome_labels, game.payoffs[0]):
            key = tuple(label.count(str(c)) for c in range(d))
            weights[key] = weights.get(key, 0.0) + value
        assert len(weights) == math.comb(n + d - 1, d - 1)
        counts, table = game.occupation_types
        kept = {key: w for key, w in weights.items() if w != 0}
        assert sorted(map(tuple, counts.tolist())) == sorted(kept)
        for key, w in zip(map(tuple, counts.tolist()), table):
            assert w == pytest.approx(kept[key], rel=1e-15)
        assert table.sum() == pytest.approx(game.payoffs[0].sum(), rel=1e-15)
        assert not counts.flags.writeable and not table.flags.writeable
        assert game.occupation_types is game.occupation_types

    def test_zero_weight_types_are_dropped(self):
        # Kolkata: the three types with everyone at one table pay nobody;
        # minority: unanimity and the even split pay nobody
        assert len(kolkata().occupation_types[1]) == 7
        assert len(minority(12).occupation_types[1]) == 10
        assert len(minority(14).occupation_types[1]) == 12
        assert len(minority(13).occupation_types[1]) == 12


def swapped(label: str, player: int) -> str:
    """``label`` with the digits of players 1 and ``player`` swapped."""
    digits = list(label)
    digits[-1], digits[-player] = digits[-player], digits[-1]  # player 1 is the rightmost
    return "".join(digits)


def symmetric_reference(game) -> bool:
    """Whether every player's payoff is player 1's at the swapped label, by label."""
    index = {label: k for k, label in enumerate(game.outcome_labels)}
    return all(game.numerators[player - 1, index[label]]
               == game.numerators[0, index[swapped(label, player)]]
               for player in range(2, game.shape.n + 1) for label in game.outcome_labels)


@st.composite
def symmetrised_tables(draw):
    """A random player-1 row, copied to player i through the swap (1 i)."""
    shape = SystemShape(draw(st.integers(2, 4)), draw(st.integers(2, 3)))
    first = draw(st.lists(st.integers(-5, 5), min_size=shape.dim, max_size=shape.dim))
    index = {label: k for k, label in enumerate(labels(shape))}
    return shape, np.array([[first[index[swapped(label, player)]] for label in labels(shape)]
                            for player in range(1, shape.n + 1)])


class TestSymmetric:
    @settings(max_examples=60, deadline=None)
    @given(table=symmetrised_tables())
    def test_symmetrised_tables_are_symmetric(self, table):
        shape, numerators = table
        game = GameSpec("random", shape, False, numerators, 3)
        assert game.symmetric is True
        assert symmetric_reference(game)

    @settings(max_examples=60, deadline=None)
    @given(table=symmetrised_tables(), data=st.data())
    def test_one_changed_entry_breaks_symmetry(self, table, data):
        shape, numerators = table
        numerators = numerators.copy()
        player = data.draw(st.integers(0, shape.n - 1))
        outcome = data.draw(st.integers(0, shape.dim - 1))
        numerators[player, outcome] += data.draw(st.sampled_from([-3, -1, 1, 2]))
        game = GameSpec("random", shape, False, numerators, 3)
        assert game.symmetric is False
        assert not symmetric_reference(game)

    @pytest.mark.parametrize("game", [prisoners_dilemma(), kolkata()]
                             + [minority(n) for n in range(2, 10)],
                             ids=lambda g: f"{g.name}{g.shape.n}")
    def test_paper_games_are_symmetric(self, game):
        assert game.symmetric is True
        assert symmetric_reference(game)


class TestPlayValidation:
    @pytest.mark.parametrize("fidelity", [1.5, -0.1, float("nan")])
    def test_fidelity_out_of_range(self, fidelity):
        with pytest.raises(ValueError, match=r"fidelity must lie in \[0, 1\]"):
            play_profile(kolkata(), [np.eye(3)] * 3, fidelity=fidelity)

    def test_norm_keeping_non_unitary_rejected(self):
        # columns of unit norm: not unitary, though |00> + |11> keeps its norm
        skew = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not unitary"):
            play_profile(minority(2), [skew, I2])


def test_public_surface():
    import qgames

    assert set(qgames.__all__) == {
        "BestResponseResult", "EmbeddingCheck", "EquilibriumVerdict", "Family",
        "FidelitySweep", "GameSpec", "KOLKATA_OPTIMAL_PARAMS", "MINORITY_OPTIMAL_PARAMS",
        "PD_EQUILIBRIUM_PARAMS", "ParetoVerdict", "PayoffReport", "PureState",
        "SearchConfig", "StrategySpec", "SystemShape", "best_response",
        "classical_embedding_check", "classical_set", "classical_uniform_payoff",
        "cyclic_s", "dominant_strategy", "entangler", "fidelity_sweep", "game_by_name",
        "game_to_json", "ghz", "kolkata", "minority", "pareto_check_symmetric",
        "parse_radians", "parse_strategy", "pauli", "play_profile", "play_symmetric",
        "prisoners_dilemma", "su2_eisert", "su2_full", "su3_frame", "sweep_to_csv",
        "verify_nash",
    }
    assert len(qgames.__all__) == 40
    assert all(hasattr(qgames, name) for name in qgames.__all__)

