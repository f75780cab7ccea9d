"""Reference evaluator for the benchmark's correctness checks.

Written apart from ``qgames`` and importing nothing from it, so that a fault
in the package cannot hide itself in the check.  It knows the three games
only through their rules and evaluates every protocol on the pure state:
white noise at fidelity f commutes with local unitaries, so outcome
probabilities are ``f * pure + (1 - f) / D``.

Conventions match the package's public contract: player ``i`` (1-based) is
the i-th digit of an outcome label counted from the right, so the flat index
of an outcome is ``sum_i c_i * d**(i-1)``.  Every profile passed here is
player-1-first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Every SU(2) element is q0*I + i(q1*Z + q2*Y + q3*X) with q a unit 4-vector.
QUATERNION_BASIS = (_I2, 1j * _Z, 1j * _Y, 1j * _X)

# The dilemma entangler J = (I(x)I + i X(x)X)/sqrt(2).
ENTANGLER = (np.kron(_I2, _I2) + 1j * np.kron(_X, _X)) / math.sqrt(2)

# Optimal Kolkata frame parameters, Table 2 of the paper.
KOLKATA_TABLE2 = (
    math.pi / 4, math.acos(1 / math.sqrt(3)), math.pi / 4,
    5 * math.pi / 18, 5 * math.pi / 18, 5 * math.pi / 18,
    math.pi / 3, 11 * math.pi / 6,
)
MINORITY_OPTIMAL = (math.pi / 2, -math.pi / 8, math.pi / 8)
PD_EQUILIBRIUM = (0.0, math.pi / 2)


# --- rules -------------------------------------------------------------------

def _pd_rule(choices: Sequence[int]) -> tuple[int, ...]:
    # 0 = cooperate, 1 = defect; (own, other) -> own payoff
    table = {(0, 0): 3, (0, 1): 0, (1, 0): 5, (1, 1): 1}
    a, b = choices
    return table[(a, b)], table[(b, a)]


def _minority_rule(choices: Sequence[int]) -> tuple[int, ...]:
    ones = sum(choices)
    zeros = len(choices) - ones
    return tuple(int((ones if c else zeros) < (zeros if c else ones)) for c in choices)


def _kolkata_rule(choices: Sequence[int]) -> tuple[int, ...]:
    return tuple(int(choices.count(c) == 1) for c in choices)


@dataclass(frozen=True)
class Game:
    name: str
    n: int
    d: int
    rule: Callable[[Sequence[int]], tuple[int, ...]]

    @property
    def dim(self) -> int:
        return self.d ** self.n

    def outcomes(self):
        """Player-1-first choice tuples, in flat index order."""
        for index in range(self.dim):
            yield tuple((index // self.d ** i) % self.d for i in range(self.n))

    def table(self) -> np.ndarray:
        """(n, D) payoff array: row i is player i+1's payoff per outcome."""
        return np.array([self.rule(c) for c in self.outcomes()], dtype=float).T


def pd() -> Game:
    return Game("pd", 2, 2, _pd_rule)


def minority(n: int) -> Game:
    return Game("minority", n, 2, _minority_rule)


def kolkata() -> Game:
    return Game("kolkata", 3, 3, _kolkata_rule)


def classical_uniform_payoff(game: Game) -> tuple[Fraction, ...]:
    """Exact payoffs when every player picks uniformly at random."""
    totals = [Fraction(0)] * game.n
    for choices in itertools.product(range(game.d), repeat=game.n):
        for i, value in enumerate(game.rule(choices)):
            totals[i] += value
    return tuple(t / game.dim for t in totals)


# --- strategies ---------------------------------------------------------------

def su2(theta: float, alpha: float, beta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([
        [np.exp(1j * alpha) * c, 1j * np.exp(1j * beta) * s],
        [1j * np.exp(-1j * beta) * s, np.exp(-1j * alpha) * c],
    ])


def su3(phi, theta, chi, a1, a2, a3, b1, b2) -> np.ndarray:
    """The eight-parameter frame: columns x, conj(y), conj(x cross conj(y)).

    x is the real unit vector r(theta, phi) with phases alpha; y mixes the
    two real unit vectors orthogonal to r with phases beta - alpha.
    """
    r = np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    u = np.array([math.cos(theta) * math.cos(phi), math.cos(theta) * math.sin(phi),
                  -math.sin(theta)])
    v = np.array([math.sin(phi), -math.cos(phi), 0.0])
    alphas = np.exp(1j * np.array([a1, a2, a3]))
    x = alphas * r
    y = (math.cos(chi) * np.exp(1j * b1) * u + math.sin(chi) * np.exp(1j * b2) * v) / alphas
    c1, c2 = x, y.conj()
    return np.stack([c1, c2, np.cross(c1, c2).conj()], axis=1)


def strategy(family: str, params: Sequence[float]) -> np.ndarray:
    """Matrix of a strategy given by family name and radian parameters."""
    if family == "full":
        return su2(*params)
    if family == "eisert":
        return su2(params[0], params[1], 0.0)
    if family == "su3":
        return su3(*params)
    raise ValueError(f"oracle has no family {family!r}")


def parse_literal(text: str) -> np.ndarray:
    """Matrix for a ``family:p1,p2,...`` literal with decimal parameters."""
    family, _, body = text.partition(":")
    if family == "su3" and body == "table2":
        return su3(*KOLKATA_TABLE2)
    return strategy(family, [float(p) for p in body.split(",")])


# --- protocol -------------------------------------------------------------------

def _initial_state(game: Game) -> np.ndarray:
    amp = np.zeros(game.dim, dtype=complex)
    if game.name == "pd":
        amp[0] = 1.0
        return ENTANGLER @ amp
    for k in range(game.d):
        amp[sum(k * game.d ** i for i in range(game.n))] = 1 / math.sqrt(game.d)
    return amp


def final_state(game: Game, ops: Sequence[np.ndarray]) -> np.ndarray:
    """Pure final state for player-1-first local operators."""
    n, d = game.n, game.d
    psi = _initial_state(game).reshape((d,) * n)
    for player, op in enumerate(ops, start=1):
        axis = n - player  # the most significant digit is player n
        psi = np.moveaxis(np.tensordot(op, psi, axes=([1], [axis])), 0, axis)
    psi = psi.reshape(-1)
    if game.name == "pd":
        psi = ENTANGLER.conj().T @ psi
    return psi


def probabilities(game: Game, ops: Sequence[np.ndarray], fidelity: float = 1.0) -> np.ndarray:
    pure = np.abs(final_state(game, ops)) ** 2
    return fidelity * pure + (1.0 - fidelity) / game.dim


def payoffs(game: Game, ops: Sequence[np.ndarray], fidelity: float = 1.0) -> np.ndarray:
    """Per-player expected payoffs, player-1-first."""
    return game.table() @ probabilities(game, ops, fidelity)


def _slot_states(game: Game, ops, player: int, units) -> np.ndarray:
    """Final states with each of ``units`` in the player's slot, stacked."""
    states = []
    for unit in units:
        trial = list(ops)
        trial[player - 1] = unit
        states.append(final_state(game, trial))
    return np.stack(states)


def su2_best_response(game: Game, ops, player: int, fidelity: float = 1.0) -> float:
    """Exact best payoff over all of SU(2) for one player.

    The final state is linear in the quaternion q of the deviating player's
    operator, so the payoff is q^T M q on the unit sphere and its maximum is
    the top eigenvalue of the real symmetric 4x4 matrix M.
    """
    weights = game.table()[player - 1]
    amps = _slot_states(game, ops, player, QUATERNION_BASIS)
    form = np.real(np.einsum("k,mk,nk->mn", weights, amps.conj(), amps))
    top = float(np.linalg.eigvalsh((form + form.T) / 2)[-1])
    return fidelity * top + (1.0 - fidelity) * float(weights.mean())


def su3_upper_bound(game: Game, ops, player: int, fidelity: float = 1.0) -> float:
    """3 * lambda_max of the 9x9 deviation form: no U in SU(3) pays more.

    The payoff is vec(U)^H T vec(U) with T Hermitian and positive
    semidefinite, and every unitary U has |vec(U)|^2 = 3.
    """
    weights = game.table()[player - 1]
    units = []
    for a, b in itertools.product(range(game.d), repeat=2):
        unit = np.zeros((game.d, game.d), dtype=complex)
        unit[a, b] = 1.0
        units.append(unit)
    amps = _slot_states(game, ops, player, units)
    form = np.einsum("k,mk,nk->mn", weights, amps.conj(), amps)
    top = float(np.linalg.eigvalsh((form + form.conj().T) / 2)[-1])
    return fidelity * game.d * top + (1.0 - fidelity) * float(weights.mean())
