"""The oracle against the paper's closed forms.

Run with ``python3 -m pytest bench/test_oracle.py``; the package's own test
suite does not collect this file.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle


def _unitary_residual(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def test_strategies_are_special_unitary():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = oracle.su2(rng.uniform(0, math.pi), *rng.uniform(-math.pi, math.pi, 2))
        w = oracle.su3(*rng.uniform(0, math.pi / 2, 3), *rng.uniform(0, 2 * math.pi, 5))
        for m in (u, w):
            assert _unitary_residual(m) < 1e-12
            assert abs(np.linalg.det(m) - 1) < 1e-12


def test_quaternion_basis_spans_su2():
    theta, alpha, beta = 1.1, -0.4, 2.3
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    q = (math.cos(alpha) * c, math.sin(alpha) * c, -math.sin(beta) * s, math.cos(beta) * s)
    built = sum(qi * b for qi, b in zip(q, oracle.QUATERNION_BASIS))
    assert np.allclose(built, oracle.su2(theta, alpha, beta), atol=1e-14)


def test_dilemma_closed_forms():
    game = oracle.pd()
    eq = oracle.strategy("eisert", oracle.PD_EQUILIBRIUM)
    assert np.allclose(oracle.payoffs(game, [eq, eq]), [3, 3], atol=1e-12)
    # the full SU(2) deviation from the restricted equilibrium pays 5
    assert oracle.su2_best_response(game, [eq, eq], 1) == pytest.approx(5, abs=1e-12)
    assert oracle.classical_uniform_payoff(game) == (Fraction(9, 4), Fraction(9, 4))
    # classical moves reproduce the table: Alice defects, Bob cooperates
    flip = oracle.strategy("eisert", (math.pi, 0.0))
    assert np.allclose(oracle.payoffs(game, [flip, np.eye(2)]), [5, 0], atol=1e-12)


def test_minority_closed_forms():
    game = oracle.minority(4)
    u = oracle.strategy("full", oracle.MINORITY_OPTIMAL)
    probs = oracle.probabilities(game, [u] * 4)
    assert np.allclose(oracle.payoffs(game, [u] * 4), [0.25] * 4, atol=1e-12)
    even_split = sum(p for choices, p in zip(game.outcomes(), probs) if sum(choices) == 2)
    assert even_split < 1e-12
    assert oracle.su2_best_response(game, [u] * 4, 2) == pytest.approx(0.25, abs=1e-12)
    assert oracle.classical_uniform_payoff(game) == (Fraction(1, 8),) * 4


@pytest.mark.parametrize("fidelity", [0.0, 0.3, 0.75, 1.0])
def test_kolkata_fidelity_law(fidelity):
    game = oracle.kolkata()
    u = oracle.su3(*oracle.KOLKATA_TABLE2)
    expected = 2 / 9 * (fidelity + 2)
    assert np.allclose(oracle.payoffs(game, [u] * 3, fidelity), [expected] * 3, atol=1e-12)
    probs = oracle.probabilities(game, [u] * 3, fidelity)
    assert probs.min() >= 0 and abs(probs.sum() - 1) < 1e-12


def test_kolkata_classical_and_bound():
    game = oracle.kolkata()
    assert oracle.classical_uniform_payoff(game) == (Fraction(4, 9),) * 3
    u = oracle.su3(*oracle.KOLKATA_TABLE2)
    # the paper's equilibrium: no SU(3) deviation can beat 2/3
    assert oracle.su3_upper_bound(game, [u] * 3, 1) == pytest.approx(2 / 3, abs=1e-12)


def test_su3_bound_dominates_sampled_deviations():
    game = oracle.kolkata()
    rng = np.random.default_rng(3)
    ops = [oracle.su3(*rng.uniform(0, math.pi / 2, 3), *rng.uniform(0, 2 * math.pi, 5))
           for _ in range(3)]
    bound = oracle.su3_upper_bound(game, ops, 2, 0.8)
    for _ in range(200):
        trial = list(ops)
        trial[1] = oracle.su3(*rng.uniform(0, math.pi / 2, 3), *rng.uniform(0, 2 * math.pi, 5))
        assert oracle.payoffs(game, trial, 0.8)[1] <= bound + 1e-12


def test_su2_best_response_dominates_and_is_attained():
    game = oracle.minority(5)
    rng = np.random.default_rng(5)
    ops = [oracle.su2(rng.uniform(0, math.pi), *rng.uniform(-math.pi, math.pi, 2))
           for _ in range(5)]
    best = oracle.su2_best_response(game, ops, 3, 0.6)
    sampled = []
    for _ in range(2000):
        trial = list(ops)
        trial[2] = oracle.su2(rng.uniform(0, math.pi), *rng.uniform(-math.pi, math.pi, 2))
        sampled.append(oracle.payoffs(game, trial, 0.6)[2])
    assert max(sampled) <= best + 1e-12
    assert max(sampled) > best - 1e-2


def test_classical_moves_reproduce_every_rule():
    for game, moves in ((oracle.minority(3), [np.eye(2), np.array([[0, 1], [1, 0]])]),
                        (oracle.kolkata(), [np.linalg.matrix_power(
                            np.roll(np.eye(3), 1, axis=0), k) for k in range(3)])):
        for choices in game.outcomes():
            got = oracle.payoffs(game, [moves[c] for c in choices])
            assert np.allclose(got, game.rule(choices), atol=1e-12)
