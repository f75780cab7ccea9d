"""The three game protocols and their exact classical oracles.

Games
-----
``pd``        two players, two choices, entangler/disentangler pair around
              the local moves, payoff table (3,3)/(0,5)/(5,0)/(1,1)
``minority``  n players, two choices, GHZ resource; payoff 1 for members of
              the strict minority, 0 on even splits
``kolkata``   three players, three choices, GHZ resource; payoff 1 iff your
              choice is unique

Ordering conventions (see :mod:`qgames.states`): operator sequences are
player-n-first (tensor order), payoff lists are player-1-first, and outcome
labels are digit strings with player 1 as the rightmost digit.  For the
dilemma game Alice is player 1 (rightmost digit) and Bob is player 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .linalg import kron
from .states import (
    PureState,
    SystemShape,
    apply_local_pure,
    check_fidelity,
    ghz,
    labels,
)
from .strategies import classical_set, pauli

PD = "pd"
MINORITY = "minority"
KOLKATA = "kolkata"

ATOL_PAYOFF = 1e-9


@dataclass(frozen=True)
class GameSpec:
    """A game: shape, protocol flags, and the exact classical payoff table.

    ``payoffs`` and ``outcome_labels`` are filled on first use, not at
    construction, so building a game stays as cheap as building its table.
    """

    name: str
    shape: SystemShape
    use_entangler_pair: bool
    payoff_table: Mapping[str, tuple[Fraction, ...]]

    def __post_init__(self):
        expected = self.shape.dim
        if len(self.payoff_table) != expected:
            raise ValueError(
                f"payoff table covers {len(self.payoff_table)} of {expected} outcomes"
            )
        for label, row in self.payoff_table.items():
            if len(row) != self.shape.n:
                raise ValueError(f"payoff row for {label!r} has {len(row)} entries")

    @cached_property
    def outcome_labels(self) -> tuple[str, ...]:
        """Basis labels in index order."""
        return tuple(labels(self.shape))

    @cached_property
    def payoffs(self) -> np.ndarray:
        """Read-only (n, D) float payoffs: row i-1 is player i, columns index order."""
        table = np.array(
            [[float(v) for v in self.payoff_table[label]] for label in self.outcome_labels]
        ).T.copy()
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class PayoffReport:
    """Per-player expected payoffs plus the outcome distribution."""

    payoffs: tuple[float, ...]
    probabilities: dict[str, float]
    fidelity: float


def prisoners_dilemma() -> GameSpec:
    table = {
        "00": (Fraction(3), Fraction(3)),
        "01": (Fraction(5), Fraction(0)),
        "10": (Fraction(0), Fraction(5)),
        "11": (Fraction(1), Fraction(1)),
    }
    return GameSpec(PD, SystemShape(2, 2), True, table)


def _minority_row(bits: Sequence[int]) -> tuple[Fraction, ...]:
    ones = sum(bits)
    zeros = len(bits) - ones
    row = []
    for bit in bits:
        own, other = (ones, zeros) if bit == 1 else (zeros, ones)
        row.append(Fraction(1) if own < other else Fraction(0))
    return tuple(row)


def minority(n: int) -> GameSpec:
    """The n-player minority game; even splits pay nothing to anyone."""
    if n < 2:
        raise ValueError(f"minority game needs at least 2 players, got {n}")
    shape = SystemShape(n, 2)
    table = {}
    for label in labels(shape):
        # label is player-n-first; payoff rows are player-1-first
        digits_player_order = [int(ch) for ch in reversed(label)]
        table[label] = _minority_row(digits_player_order)
    return GameSpec(MINORITY, shape, False, table)


def kolkata() -> GameSpec:
    """Three players choose among three options; unique choices pay 1."""
    shape = SystemShape(3, 3)
    table = {}
    for label in labels(shape):
        digits_player_order = [int(ch) for ch in reversed(label)]
        row = []
        for i, digit in enumerate(digits_player_order):
            others = digits_player_order[:i] + digits_player_order[i + 1:]
            row.append(Fraction(1) if all(o != digit for o in others) else Fraction(0))
        table[label] = tuple(row)
    return GameSpec(KOLKATA, shape, False, table)


def game_by_name(name: str, n: int | None = None) -> GameSpec:
    key = name.strip().lower()
    if key == PD:
        return prisoners_dilemma()
    if key == MINORITY:
        return minority(4 if n is None else n)
    if key == KOLKATA:
        return kolkata()
    raise ValueError(f"unknown game {name!r}; known: pd, minority, kolkata")


def payoff_diagonal(game: GameSpec, player: int) -> np.ndarray:
    """Player's classical payoffs along the computational basis, index order.

    A read-only row of ``game.payoffs``.
    """
    if not 1 <= player <= game.shape.n:
        raise ValueError(f"player {player} out of range 1..{game.shape.n}")
    return game.payoffs[player - 1]


def payoff_operator(game: GameSpec, player: int) -> np.ndarray:
    """The diagonal payoff operator P_i; expected payoff is Tr(P_i rho)."""
    return np.diag(payoff_diagonal(game, player)).astype(complex)


def entangler() -> np.ndarray:
    """The dilemma entangler J = (I(x)I + i sigma_x(x)sigma_x)/sqrt(2).

    J|00> = (|00> + i|11>)/sqrt(2), J J-dagger = I, and J commutes with
    every V(x)W for V, W in {I, sigma_x}, which is what embeds the classical
    game under the restricted operator set.
    """
    eye = pauli("I")
    flip = pauli("X")
    return (kron(eye, eye) + 1j * kron(flip, flip)) / math.sqrt(2)


def resource_state(game: GameSpec) -> PureState:
    """The shared state the local moves act on: J|00> for the dilemma, GHZ otherwise."""
    if game.use_entangler_pair:
        return PureState(game.shape, entangler()[:, 0])
    return ghz(game.shape)


def play_pd(u_alice, u_bob, strict: bool = True) -> PureState:
    """Final state J-dagger (U_B (x) U_A) J |00> of the dilemma protocol."""
    j = entangler()
    shape = SystemShape(2, 2)
    moved = apply_local_pure([u_bob, u_alice], PureState(shape, j[:, 0]), strict=strict)
    return PureState(shape, j.conj().T @ moved.amplitudes)


def play_profile(game: GameSpec, ops: Sequence, fidelity: float = 1.0,
                 strict: bool = True) -> PayoffReport:
    """Run one round with independent per-player operators (player-n-first).

    For the dilemma the entangler pair wraps the moves and the simulation is
    pure (fidelity must be 1).  The GHZ games mix the shared state with white
    noise at the given fidelity.  White noise commutes with the local
    unitaries, so the outcome distribution is f |psi|^2 + (1 - f)/D, computed
    on the state vector; no density matrix is built.
    """
    n = game.shape.n
    if len(ops) != n:
        raise ValueError(f"{game.name} needs {n} operators, got {len(ops)}")
    if game.use_entangler_pair:
        if fidelity != 1.0:
            raise ValueError("the dilemma protocol is pure; fidelity must be 1")
        f = 1.0
        final = play_pd(u_alice=ops[1], u_bob=ops[0], strict=strict)
    else:
        f = check_fidelity(fidelity)
        final = apply_local_pure(ops, ghz(game.shape), strict=strict)
    probs = f * np.abs(final.amplitudes) ** 2 + (1.0 - f) / game.shape.dim
    payoffs = tuple((game.payoffs @ probs).tolist())
    return PayoffReport(payoffs, dict(zip(game.outcome_labels, probs.tolist())), f)


def play_symmetric(game: GameSpec, op, fidelity: float = 1.0,
                   strict: bool = True) -> PayoffReport:
    """Run one round with every player applying the same operator."""
    return play_profile(game, [op] * game.shape.n, fidelity, strict=strict)


def classical_uniform_payoff(game: GameSpec) -> tuple[Fraction, ...]:
    """Exact per-player payoff under independent uniform randomization."""
    total = [Fraction(0)] * game.shape.n
    for row in game.payoff_table.values():
        for i, value in enumerate(row):
            total[i] += value
    return tuple(value / game.shape.dim for value in total)


def classical_outcome_label(ks: Sequence[int]) -> str:
    """Outcome label when players apply classical powers (player-n-first)."""
    return "".join(str(int(k)) for k in ks)


@dataclass(frozen=True)
class EmbeddingCheck:
    """Result of replaying every classical profile through the protocol."""

    ok: bool
    max_abs_error: float
    profiles_checked: int


def classical_embedding_check(game: GameSpec, atol: float = ATOL_PAYOFF) -> EmbeddingCheck:
    """Check that classical operator profiles reproduce the payoff table.

    Every combination of classical operators (player-n-first powers ``ks``)
    is played through the full quantum protocol and compared against the
    table entry of the classical outcome string.
    """
    operators = classical_set(game.shape.d)
    worst = 0.0
    count = 0
    for ks in itertools.product(range(len(operators)), repeat=game.shape.n):
        report = play_profile(game, [operators[k] for k in ks])
        expected = game.payoff_table[classical_outcome_label(ks)]
        for got, want in zip(report.payoffs, expected):
            worst = max(worst, abs(got - float(want)))
        count += 1
    return EmbeddingCheck(worst <= atol, worst, count)


def game_to_json(game: GameSpec) -> dict:
    """Serializable description: {game, n, d, payoffs: {label: [...]}}}."""
    payoffs = {
        label: [int(v) if v.denominator == 1 else float(v) for v in row]
        for label, row in sorted(
            game.payoff_table.items(), key=lambda item: int(item[0], game.shape.d)
        )
    }
    return {
        "game": game.name,
        "n": game.shape.n,
        "d": game.shape.d,
        "payoffs": payoffs,
    }
