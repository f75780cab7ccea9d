"""The three game protocols and their exact classical oracles.

Games
-----
``pd``        two players, two choices, entangler/disentangler pair around
              the local moves, payoff table (3,3)/(0,5)/(5,0)/(1,1)
``minority``  n players, two choices, GHZ resource; payoff 1 for members of
              the strict minority, 0 on even splits
``kolkata``   three players, three choices, GHZ resource; payoff 1 iff your
              choice is unique

Each game holds one payoff representation: an (n, D) integer array of
numerators over a common denominator, in index order, with row i-1 for
player i.  Plays read its float quotient ``payoffs``; the exact oracles
(uniform payoffs, dominance, the payoff-sum bound, JSON) read the integers.

Every protocol applies local moves to a resource sum_k c_k |k...k> (J|00>
for the dilemma, GHZ otherwise), so one closed form gives every amplitude:
amplitude(x) = sum_k c_k prod_p U_p[x_p, k], then J-dagger for the dilemma.
:func:`protocol_amplitudes` is that form, the one place amplitudes are
computed; a play, a batch of profiles and a Cartesian set of moves differ
only in the leading axes of the moves.

Ordering conventions (see :mod:`qgames.states`): operator sequences are
player-n-first (tensor order), payoff lists are player-1-first, and outcome
labels are digit strings with player 1 as the rightmost digit.  For the
dilemma game Alice is player 1 (rightmost digit) and Bob is player 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .states import (
    PureState,
    SystemShape,
    batch_rows,
    check_fidelity,
    check_ops,
    frozen,
    ghz,
    labels,
    require_unitary,
)
from .strategies import classical_set, pauli

PD = "pd"
MINORITY = "minority"
KOLKATA = "kolkata"

ATOL_PAYOFF = 1e-9


@dataclass(frozen=True, eq=False)
class GameSpec:
    """A game: shape, protocol flag, and its exact classical payoffs.

    ``numerators`` is a read-only (n, D) integer array in index order, row
    i-1 for player i; the payoffs are ``numerators / denominator``, stored as
    the read-only float array ``payoffs``.  ``outcome_labels``,
    ``occupation_types`` and ``symmetric`` are filled on first use.
    """

    name: str
    shape: SystemShape
    use_entangler_pair: bool
    numerators: np.ndarray
    denominator: int = 1
    payoffs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        table = np.array(self.numerators)
        expected = (self.shape.n, self.shape.dim)
        if table.shape != expected:
            raise ValueError(f"payoff numerators have shape {table.shape}, need {expected}")
        if not np.issubdtype(table.dtype, np.integer):
            raise ValueError(f"payoff numerators must be integers, got dtype {table.dtype}")
        if not isinstance(self.denominator, (int, np.integer)) or self.denominator < 1:
            raise ValueError(f"denominator must be an integer >= 1, got {self.denominator!r}")
        table.setflags(write=False)
        payoffs = table / self.denominator
        payoffs.setflags(write=False)
        object.__setattr__(self, "numerators", table)
        object.__setattr__(self, "denominator", int(self.denominator))
        object.__setattr__(self, "payoffs", payoffs)

    @cached_property
    def outcome_labels(self) -> tuple[str, ...]:
        """Basis labels in index order."""
        return tuple(labels(self.shape))

    @cached_property
    def occupation_types(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (T, d) occupation types, the players on each choice, and
        (T,) player 1's payoffs summed over each type's outcomes, for the
        types whose sum is nonzero."""
        counts = (_digits(self.shape)[:, :, None] == np.arange(self.shape.d)).sum(axis=0)
        types, of_type = np.unique(counts, axis=0, return_inverse=True)
        # exact integer sums, divided once
        weights = np.bincount(of_type.ravel(), self.numerators[0], len(types)) / self.denominator
        table = types[weights != 0], weights[weights != 0]
        for part in table:
            part.setflags(write=False)
        return table

    @cached_property
    def symmetric(self) -> bool:
        """Whether swapping players 1 and i carries player 1's payoffs to player
        i's, for every i: row i-1 of ``numerators`` equals row 0 read at the
        outcome with the digits of players 1 and i swapped.  Exact, O(n * D)."""
        n, d = self.shape.n, self.shape.d
        first = self.numerators[0].reshape((d,) * n)  # axis n - i holds player i's digit
        return all(np.array_equal(np.swapaxes(first, n - 1, n - i).ravel(), row)
                   for i, row in enumerate(self.numerators[1:], 2))


@dataclass(frozen=True)
class PayoffReport:
    """Per-player expected payoffs plus the outcome distribution."""

    payoffs: tuple[float, ...]
    probabilities: dict[str, float]
    fidelity: float


def _digits(shape: SystemShape) -> np.ndarray:
    """(n, D) choices: row i-1 holds player i's digit at every outcome index."""
    index = np.arange(shape.dim)
    return np.stack([index // shape.d ** i % shape.d for i in range(shape.n)])


def prisoners_dilemma() -> GameSpec:
    # outcomes 00, 01, 10, 11 with Alice (player 1) the right digit, 1 = defect
    return GameSpec(PD, SystemShape(2, 2), True, np.array([[3, 5, 0, 1], [3, 0, 5, 1]]))


def minority(n: int) -> GameSpec:
    """The n-player minority game; even splits pay nothing to anyone."""
    if n < 2:
        raise ValueError(f"minority game needs at least 2 players, got {n}")
    shape = SystemShape(n, 2)
    digits = _digits(shape)
    ones = digits.sum(axis=0)
    own = np.where(digits == 1, ones, n - ones)  # players sharing each player's choice
    return GameSpec(MINORITY, shape, False, (2 * own < n).astype(int))


def kolkata() -> GameSpec:
    """Three players choose among three options; unique choices pay 1."""
    shape = SystemShape(3, 3)
    digits = _digits(shape)
    same = (digits[:, None, :] == digits[None, :, :]).sum(axis=1)
    return GameSpec(KOLKATA, shape, False, (same == 1).astype(int))


def game_by_name(name: str, n: int | None = None) -> GameSpec:
    """The named game; ``n`` sets the minority game's players (default 4) and
    must equal the fixed player count of pd and kolkata where it is given."""
    key = name.strip().lower()
    if key == MINORITY:
        return minority(4 if n is None else n)
    fixed = {PD: prisoners_dilemma, KOLKATA: kolkata}.get(key)
    if fixed is None:
        raise ValueError(f"unknown game {name!r}; known: pd, minority, kolkata")
    game = fixed()
    if n is not None and n != game.shape.n:
        raise ValueError(f"the {key} game has {game.shape.n} players, got n={n}")
    return game


@cache
def entangler() -> np.ndarray:
    """The dilemma entangler J = (I(x)I + i sigma_x(x)sigma_x)/sqrt(2), read-only.

    J|00> = (|00> + i|11>)/sqrt(2), J J-dagger = I, and J commutes with
    every V(x)W for V, W in {I, sigma_x}, which is what embeds the classical
    game under the restricted operator set.  Every dilemma play reads it
    twice, so it is built once.
    """
    eye = pauli("I")
    flip = pauli("X")
    return frozen((np.kron(eye, eye) + 1j * np.kron(flip, flip)) / math.sqrt(2))


def resource_state(game: GameSpec) -> PureState:
    """The shared state the local moves act on: J|00> for the dilemma, GHZ
    otherwise.  Built once per shape and protocol; its amplitudes are read-only."""
    return _resource_state(game.shape, game.use_entangler_pair)


@cache
def _resource_state(shape: SystemShape, use_entangler_pair: bool) -> PureState:
    return PureState(shape, entangler()[:, 0]) if use_entangler_pair else ghz(shape)


def protocol_amplitudes(game: GameSpec, moves: Sequence[np.ndarray]) -> np.ndarray:
    """Final amplitudes (..., D) of n player-n-first move arrays (..., d, d).

    The resource is sum_k c_k |k...k>, so the amplitude of outcome x is
    sum_k c_k prod_p U_p[x_p, k].  The players' columns are multiplied in
    left to right, player n's digit the most significant, and the last
    player's product sums over k; the dilemma then applies J-dagger.  The
    moves' leading axes broadcast: a play has none, a batch of profiles
    shares one, and a Cartesian set of one player's moves sits on an axis of
    its own.  Every product is per profile, so a profile's amplitudes are the
    same bits whatever axes it rides on.  The operators are not checked.
    """
    d = game.shape.d
    step = (game.shape.dim - 1) // (d - 1)  # index stride between |k...k> kets
    acc = resource_state(game).amplitudes[None, ::step]  # (..., digits so far, k)
    for u in moves[:-1]:
        # einsum, not a broadcast product: that one allocates ufunc buffers every step
        acc = np.einsum("...mk,...xk->...mxk", acc, u)
        acc = acc.reshape(acc.shape[:-3] + (-1, d))
    amplitudes = acc @ moves[-1].swapaxes(-1, -2)
    amplitudes = amplitudes.reshape(amplitudes.shape[:-2] + (-1,))
    if game.use_entangler_pair:
        # one vector-matrix product per profile: v -> J-dagger v
        amplitudes = (amplitudes[..., None, :] @ entangler().conj())[..., 0, :]
    return amplitudes


def protocol_fidelity(game: GameSpec, fidelity: float) -> float:
    """The fidelity as a float, in [0, 1]; the dilemma protocol takes only 1."""
    if game.use_entangler_pair and fidelity != 1.0:
        raise ValueError("the dilemma protocol is pure; fidelity must be 1")
    return check_fidelity(fidelity)


def play_profile(game: GameSpec, ops: Sequence, fidelity: float = 1.0) -> PayoffReport:
    """Run one round with independent per-player operators (player-n-first).

    Every operator must be a d x d unitary (``states.check_ops``); the
    final amplitudes then come from :func:`protocol_amplitudes` with no
    leading axes.  For the dilemma the entangler pair wraps them and the
    simulation is pure (fidelity must be 1).  The GHZ games mix the shared
    state with white noise at the given fidelity.  White noise commutes with
    the local unitaries, so the outcome distribution is f |psi|^2 + (1 - f)/D,
    computed on the state vector; no density matrix is built.
    """
    f = protocol_fidelity(game, fidelity)
    stack = check_ops(ops, game.shape)
    probs = f * np.abs(protocol_amplitudes(game, stack)) ** 2 + (1.0 - f) / game.shape.dim
    payoffs = tuple((game.payoffs @ probs).tolist())
    return PayoffReport(payoffs, dict(zip(game.outcome_labels, probs.tolist())), f)


def play_symmetric(game: GameSpec, op, fidelity: float = 1.0) -> PayoffReport:
    """Run one round with every player applying the same operator."""
    return play_profile(game, [op] * game.shape.n, fidelity)


def classical_uniform_payoff(game: GameSpec) -> tuple[Fraction, ...]:
    """Exact per-player payoff under independent uniform randomization."""
    scale = game.denominator * game.shape.dim
    return tuple(Fraction(int(total), scale) for total in game.numerators.sum(axis=1))


@dataclass(frozen=True)
class EmbeddingCheck:
    """Result of replaying every classical profile through the protocol."""

    ok: bool
    max_abs_error: float
    profiles_checked: int


def classical_embedding_check(game: GameSpec) -> EmbeddingCheck:
    """Check that classical operator profiles reproduce the payoff table,
    within ``ATOL_PAYOFF``.

    Every combination of classical operators (player-n-first powers) is
    played through the full quantum protocol and compared against the table
    entry of the classical outcome string.  The trailing players whose
    profiles fit ``states.BATCH_BUDGET`` amplitudes each take the whole
    classical set on a leading axis of their own, so each of their moves is
    one product over every profile before it; each leading prefix is one row
    of the axis before them, and as many rows go to one
    :func:`protocol_amplitudes` call as the budget holds.  The payoffs are
    read off |amplitude|^2 and compared with the table once, after the
    last call.
    """
    n, d, dim = game.shape.n, game.shape.d, game.shape.dim
    operators = np.stack([require_unitary(op, name="classical operator")
                          for op in classical_set(d)])
    fits = batch_rows(dim)  # profiles one call may hold
    trailing = 0  # players that take the whole classical set in every row
    while trailing < n and d ** (trailing + 1) <= fits:
        trailing += 1
    leading = n - trailing
    rows = batch_rows(d ** trailing * dim)
    # trailing player t's set on leading axis t + 1, after the rows
    sets = [operators.reshape((d,) + (1,) * (trailing - 1 - t) + (d, d))
            for t in range(trailing)]
    blocks = []
    for first in range(0, d ** leading, rows):
        prefixes = np.arange(first, min(first + rows, d ** leading))
        powers = prefixes[:, None] // d ** np.arange(leading - 1, -1, -1) % d
        heads = operators[powers.T].reshape((leading, len(prefixes)) + (1,) * trailing + (d, d))
        amplitudes = protocol_amplitudes(game, [*heads, *sets]).reshape(-1, dim)
        blocks.append(np.abs(amplitudes) ** 2 @ game.payoffs.T)
    # the d classical operators are the powers s^0..s^(d-1), so a profile's
    # index in lexicographic order is the index of its classical outcome
    worst = float(np.max(np.abs(np.concatenate(blocks) - game.payoffs.T)))
    return EmbeddingCheck(worst <= ATOL_PAYOFF, worst, d ** n)


def game_to_json(game: GameSpec) -> dict:
    """Serializable description: {game, n, d, payoffs: {label: [...]}}}.

    A payoff is an int where the denominator divides it, else a float.
    """
    den = game.denominator
    payoffs = {
        label: [v // den if v % den == 0 else v / den for v in column.tolist()]
        for label, column in zip(game.outcome_labels, game.numerators.T)
    }
    return {
        "game": game.name,
        "n": game.shape.n,
        "d": game.shape.d,
        "payoffs": payoffs,
    }
