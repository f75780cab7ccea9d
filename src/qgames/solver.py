"""Numerical solution concepts over the strategy spaces.

Payoff evaluation for a unilateral deviation is reduced once per player to a
d^2 x d^2 Hermitian form T with E(U) = vec(U) . T . conj(vec(U)).  T is built
through ``games.protocol_amplitudes``: the other players' moves stay fixed
and the deviating slot holds the d^2 matrix units E_ab on one leading axis,
so the players before it multiply in once for all d^2 units and no D x D
matrix is built.  Symmetric dilemma profiles run through the same core, one
profile per row.  A symmetric profile U^(x)n on the GHZ state gives
every outcome with the same occupation type (the number of players on each
choice) the same amplitude, so symmetric GHZ scans evaluate one amplitude per
weighted type, ``GameSpec.occupation_types``, instead of d^n.  All are
checked against a dense reference in the tests.

On a ``GameSpec.symmetric`` game every player of a profile of one strategy
has player 1's form, so a Nash scan of such a profile builds one form, not n
(``verify_nash``).

Fidelity is affine.  White noise commutes with the local moves, and the rows
of a unitary have unit norm, so the noise adds the same (1 - f) * u to every
payoff, u being the player's payoff under uniform play: E_f = f * E_1 +
(1 - f) * u.  Every form, bound and search is built at f = 1, and
``_at_fidelity`` maps the payoffs returned.

Every search streams its work under one budget, ``_SEARCH_BUDGET`` complex
amplitudes (16 * ``states.BATCH_BUDGET``, 1 MB): the grid is evaluated in
sequential chunks of as many rows as the budget holds d x d strategy
matrices, and a symmetric GHZ scan splits each chunk again into sub-batches
sized by the amplitudes a row holds, ``_symmetric_width``: its powers U^e
and type products.  A search's working memory is therefore a small
constant, whatever the grid size or the number of players.  A symmetric
Pareto search whose grid would hold more than ``_WORK_BUDGET`` amplitudes
(rows x ``_symmetric_width``) is rejected before it starts.

A periodic axis, one whose search interval is exactly 2 pi
(``_periodic_axes``: the full SU(2) alpha and beta, the SU(3) a3, b1 and
b2, but not the gauge-pinned a1 and a2), drops the grid point at the end of
its interval, which is the phase of its first point, so every grid row is a
distinct strategy.
Each grid chunk is an open mesh of the axes (``np.ix_``) built by the
family's batch constructor, which takes every sine, cosine and phase on its
own argument, so a chunk computes one per axis point and a one-point axis
broadcasts (``_chunked``).  Starts and refinement moves go through the same
constructor, so a point gets the same matrix bit for bit either way.  The 16
best grid points, ties to the lower index, are picked by a partition and a
stable sort of the rows tied at its threshold (``_top_indices``).

Best responses are exact wherever the form allows it, and each result names
how it was obtained (``BestResponseResult.certificate``):

``exact``   The discrete families are enumerated.  Every SU(2) element is
            q0 I + i(q1 Z + q2 Y + q3 X) for a unit 4-vector q, so on qubits
            E is a real quadratic form q^T M q: the ``full`` optimum is the
            top eigenvector of the 4 x 4 matrix M, and the ``eisert`` box is
            the non-negative orthant of the (q0, q1, q3) subspace, whose
            optimum is the top eigenvector of one of its 7 principal
            submatrices.
``bound``   Every unitary has |vec(U)|^2 = d, so no deviation pays more than
            d * lambda_max(T) at f = 1.  At fidelity f it pays
            vec(U) . (f T + (1 - f) N) . conj(vec(U)), N the diagonal noise
            form (``_noise_diagonal``), so the bound is the lower of
            f * d * lambda_max(T) + (1 - f) * u and
            d * lambda_max(f T + (1 - f) N); the second is lower only when
            the player's payoff sums per own choice differ.  For SU(3) the
            current strategy and the family presets are tried first; one
            that reaches the bound is returned.
``search``  Otherwise (SU(3) without an attained bound, and the symmetric
            Pareto scan) an exhaustive grid over the family's search box
            (``_search_box``: SU(3) fixes its phase gauge and scans
            6^3 * 5^3 = 27 000 rows) is built chunk by chunk on open meshes
            and followed by multi-start compass search with complete polling,
            every start in lockstep with one batched call per round
            (``_search_family``, ``_refine``).  A symmetric SU(3) search on
            the GHZ state pays U and conj(U) alike (``_conjugate_invariant``),
            and negating the phases a3, b1, b2 conjugates su3_frame, so it
            scans the a3 indices 0 .. m // 2 of m, 6^3 * 3 * 5^2 = 16 200
            rows, and refines the best row of each of the 8 best conjugation
            orbits (``_top_orbits``) instead of the 16 best rows.

Everything here is deterministic: eigenvectors are signed by a fixed rule,
grids are traversed in lexicographic order, ties resolve to the first
candidate encountered, and the only randomness (the supplementary random
starts) comes from the seed in `SearchConfig`: they are the uniform draws of
numpy's ``default_rng(seed)``, its PCG64 stream, computed in the package
(``_pcg64.pcg64_doubles``), so no search imports ``numpy.random``.
The budget is a constant, not a setting.  A symmetric payoff ends in a
per-row reduction, so a row's value does not depend on the size of the
chunk or sub-batch it is evaluated in.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .games import GameSpec, play_symmetric, protocol_amplitudes, protocol_fidelity
from .states import BATCH_BUDGET, batch_rows
from .strategies import (
    FAMILY_PRESETS,
    LOCAL_DIMENSION,
    Family,
    StrategySpec,
    parameter_box,
    su2_eisert_batch,
    su2_full_batch,
    su3_frame_batch,
)

# complex amplitudes per grid chunk (d * d per row) and per symmetric sub-batch
# (the powers and type products of each row): 2^16, 1 MB
_SEARCH_BUDGET = 16 * BATCH_BUDGET
# amplitudes a symmetric Pareto search may evaluate on its grid, rows * _symmetric_width
_WORK_BUDGET = 1 << 30
_MIN_STEP = 1e-8
_RANDOM_STARTS = 4
_MAX_GRID_POINTS = 256  # a 3-parameter grid then streams at most 16.6 M rows
_MAX_SWEEP_POINTS = 1001


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for grid search and refinement.

    grid_points_per_axis spaces each axis of the search box evenly, at
    most 6 for SU(3); a periodic axis drops its endpoint, which repeats its
    start.  seed, a non-negative integer, draws the supplementary random
    refinement starts from numpy's ``default_rng(seed)`` PCG64 stream,
    computed in the package; given the same seed, results are reproducible
    bit for bit.  refine_iterations bounds refinement at
    p * refine_iterations polling rounds, p the family's parameter count.
    """

    grid_points_per_axis: int = 24
    refine_iterations: int = 200
    refine_initial_step: float = 0.1
    epsilon_nash: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.grid_points_per_axis <= _MAX_GRID_POINTS:
            raise ValueError(
                f"grid_points_per_axis must lie in [2, {_MAX_GRID_POINTS}], "
                f"got {self.grid_points_per_axis}")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")
        if not (math.isfinite(self.refine_initial_step) and self.refine_initial_step > 0):
            raise ValueError("refine_initial_step must be finite and positive")
        if not (math.isfinite(self.epsilon_nash) and self.epsilon_nash > 0):
            raise ValueError("epsilon_nash must be finite and positive")
        try:
            valid_seed = operator.index(self.seed) >= 0
        except TypeError:
            valid_seed = False
        if not valid_seed:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BestResponseResult:
    """The best deviation found and how: "exact", "bound" or "search"."""

    strategy: StrategySpec
    payoff: float
    evaluations: int
    certificate: str


@dataclass(frozen=True)
class EquilibriumVerdict:
    """Outcome of a unilateral-deviation scan over every player."""

    is_equilibrium: bool
    max_unilateral_gain: float
    profile_payoffs: tuple[float, ...]
    deviation_payoffs: tuple[float, ...]
    best_deviations: tuple[StrategySpec, ...]
    gains: tuple[float, ...]
    certificates: tuple[str, ...]


@dataclass(frozen=True)
class ParetoVerdict:
    is_optimal: bool
    certificate: str
    witness: StrategySpec | None
    witness_payoff: float | None


@dataclass(frozen=True)
class FidelitySweep:
    fidelities: tuple[float, ...]
    payoffs: tuple[tuple[float, ...], ...]
    slope: float
    intercept: float
    max_residual: float


# --- candidate spaces ---------------------------------------------------------

def _builder(family: Family) -> Callable[..., np.ndarray]:
    """The family's batch constructor, read from this module at each call so
    that a replaced module attribute (a test's patch, a tracer) is used."""
    if family == Family.FULL_SU2:
        return su2_full_batch
    if family == Family.EISERT_SU2:
        return su2_eisert_batch
    if family == Family.FRAME_SU3:
        return su3_frame_batch
    raise ValueError(f"{family.value} is not a continuous family")


def _family_matrices(family: Family, params: np.ndarray) -> np.ndarray:
    """Batch-construct strategy matrices from an (N, k) parameter array."""
    return _builder(family)(*params.T)


def _discrete_candidates(space: Family) -> list[StrategySpec] | None:
    """Every strategy of a discrete family, or None for a continuous one."""
    if parameter_box(space) is not None:
        return None
    return [StrategySpec(space, (float(k),)) for k in range(LOCAL_DIMENSION[space])]


def _space_dimension(space: Family) -> int:
    """The local dimension of a strategy space, which must be a ``Family``."""
    if not isinstance(space, Family):
        raise ValueError(f"a strategy space must be a Family, got {type(space).__name__}")
    return LOCAL_DIMENSION[space]


def _search_box(family: Family) -> tuple[tuple[float, float], ...]:
    """The family's parameter box with the SU(3) phase gauge fixed.

    su3_frame is diag(e^{i a1}, e^{i a2}, e^{i a3}) V diag(1, 1, e^{-i(a1+a2+a3)})
    with V free of the alphas.  A diagonal phase on the left commutes with the
    computational-basis measurement, so every payoff of the GHZ protocol
    depends on the alphas only through their sum, and the search pins
    a1 = a2 = 0 as one-point axes.
    """
    box = parameter_box(family)
    if family == Family.FRAME_SU3:
        # only the dilemma's 4 x 4 J-dagger does not commute with the phases, and
        # both search entry points reject a qutrit space for a qubit game
        box = box[:3] + ((0.0, 0.0),) * 2 + box[5:]
    return box


def _gauge_fixed(family: Family, params: Sequence[float]) -> tuple[float, ...]:
    """The point of the search box with the same payoffs as ``params``."""
    params = tuple(map(float, params))
    if family != Family.FRAME_SU3:
        return params
    return params[:3] + (0.0, 0.0, sum(params[3:6]) % (2 * math.pi)) + params[6:]


def _periodic_axes(family: Family) -> tuple[int, ...]:
    """The axes whose search interval is one period, 2 pi exactly: the end of
    such an axis is its start's phase.  The gauge-pinned SU(3) a1 and a2
    (lo == hi) are not among them."""
    return tuple(j for j, (lo, hi) in enumerate(_search_box(family)) if hi - lo == 2 * math.pi)


def _grid_axes(family: Family, grid_points: int, conjugate: bool = False) -> list[np.ndarray]:
    """The points along each axis of the family's search grid.

    An axis is ``grid_points`` evenly spaced points over its interval (6 for
    a family of more than 3 parameters); a periodic axis drops its last
    point, which is its first one's phase, so every grid point is distinct.
    A ``conjugate`` SU(3) grid (``_conjugate_invariant``) keeps the a3
    indices 0 .. m // 2 of its m: a row outside them mirrors into them.
    """
    box = _search_box(family)
    points = grid_points if len(box) <= 3 else min(grid_points, 6)
    periodic = _periodic_axes(family)
    axes = [np.linspace(lo, hi, points if lo < hi else 1) for lo, hi in box]
    axes = [axis[:-1] if j in periodic else axis for j, axis in enumerate(axes)]
    if conjugate:
        a3 = periodic[0]
        axes[a3] = axes[a3][:len(axes[a3]) // 2 + 1]  # by index, so an even m keeps pi
    return axes


def _grid_rows(axes: Sequence[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """Rows of the lexicographic grid over ``axes`` at the given flat indices."""
    digits = np.unravel_index(flat, [len(axis) for axis in axes])
    return np.stack([axis[i] for axis, i in zip(axes, digits)], axis=-1)


def _top_orbits(values: np.ndarray, axes: Sequence[np.ndarray], k: int) -> np.ndarray:
    """The best row of each of the k best conjugation orbits of a ``conjugate`` SU(3) grid.

    Conjugation maps a row's phase indices j (a3, b1, b2) to (m - j) mod m,
    m the points of a whole phase axis (b2's), and an orbit is a row and its
    mirror.  Rows are taken in ``_top_indices`` order and one whose mirror
    was taken is skipped; an orbit holds at most two rows, so the 2k best
    rows hold k orbits.
    """
    phases = list(_periodic_axes(Family.FRAME_SU3))
    rows = _top_indices(values, 2 * k)
    digits = np.stack(np.unravel_index(rows, [len(axis) for axis in axes]), axis=-1)
    mirrors = digits.copy()
    mirrors[:, phases] = -digits[:, phases] % len(axes[phases[-1]])
    taken, seen = [], set()
    for row, digit, mirror in zip(rows, digits.tolist(), mirrors.tolist()):
        orbit = min(tuple(digit), tuple(mirror))
        if orbit not in seen:
            seen.add(orbit)
            taken.append(row)
    return np.asarray(taken[:k], dtype=int)


def _clamp_to_box(params: Sequence[float], box) -> tuple[float, ...]:
    return tuple(
        min(max(float(p), lo), hi) for p, (lo, hi) in zip(params, box)
    )


# --- payoff evaluators ---------------------------------------------------------

def _at_fidelity(values, fidelity: float, uniform):
    """Noise-free payoffs mapped to fidelity f: f * values + (1 - f) * uniform."""
    return fidelity * values + (1.0 - fidelity) * uniform


def _deviation_form(game: GameSpec, fixed_ops: Sequence[np.ndarray], player: int) -> np.ndarray:
    """Noise-free Hermitian form T with payoff(U) = vec(U) . T . conj(vec(U)).

    ``fixed_ops`` is the player-n-first operator list; the entry at the
    deviating player's slot is ignored.  The form folds in the shared state,
    the entangler pair for the dilemma, and the player's payoff operator.
    The d^2 matrix units E_ab, one axis at the deviating slot beside the
    fixed moves, run through the protocol (in blocks of units under
    ``states.BATCH_BUDGET``) and give d^2 final vectors v_ab;
    T = sum_K diag_K v_ab[K] conj(v_a'b'[K]).
    """
    n, d = game.shape.n, game.shape.d
    moves = list(np.stack(fixed_ops))  # one fixed move per player
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    step = batch_rows(game.shape.dim)  # units per call
    blocks = []
    for first in range(0, d * d, step):
        moves[n - player] = units[first:first + step]  # the player's slot
        blocks.append(protocol_amplitudes(game, moves))
    vectors = np.concatenate(blocks)
    return (vectors * game.payoffs[player - 1]) @ vectors.conj().T


def _own_choice_table(game: GameSpec, table: np.ndarray, player: int) -> np.ndarray:
    """The player's row of an (n, D) index-order table as (own choice, opponent profile)."""
    n, d = game.shape.n, game.shape.d
    # the player's digit is axis n - player of the index-order tensor
    own = np.moveaxis(table[player - 1].reshape((d,) * n), n - player, 0)
    return own.reshape(d, -1)


def _noise_diagonal(game: GameSpec, player: int) -> np.ndarray:
    """Diagonal of the noise form N: payoff(U) on the maximally mixed state is
    vec(U) . N . conj(vec(U)).

    The entry at vec index (a, b) is S_a / D, S_a the player's payoffs summed
    over the outcomes in which the player's digit is a.  The rows of a
    unitary have unit norm, so N pays u on every unitary.
    """
    sums = _own_choice_table(game, game.payoffs, player).sum(axis=1)
    return np.repeat(sums / game.shape.dim, game.shape.d)


def _deviation_payoffs(form: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Evaluate the bilinear payoff form on a batch of (N, d, d) matrices."""
    d = matrices.shape[-1]
    flat = matrices.reshape(-1, d * d)
    return np.real(np.einsum("gi,ij,gj->g", flat, form, flat.conj()))


def _symmetric_evaluator(game: GameSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The noise-free player-1 payoffs of symmetric profiles, batched over
    (N, d, d) matrices, for one game: its type plan and sub-batch size are
    taken once.

    On the GHZ state an outcome of occupation type m has the amplitude
    sum_k prod_i U[i, k]^{m_i} / sqrt(d), so the payoff is
    sum_m W_m |sum_k prod_i U[i, k]^{m_i}|^2 / d over ``occupation_types``.
    """
    d = game.shape.d
    if game.use_entangler_pair:
        rows = batch_rows(game.shape.dim)  # one profile per row, both players' move

        def dilemma(matrices: np.ndarray) -> np.ndarray:
            final = np.concatenate([
                protocol_amplitudes(game, [matrices[start:start + rows]] * 2)
                for start in range(0, len(matrices), rows)])
            return np.einsum("gi,i->g", np.abs(final) ** 2, game.payoffs[0])
        return dilemma
    counts, weights = game.occupation_types
    top = int(counts.max(initial=1))
    rows = _search_rows(_symmetric_width(game))
    weights = weights[:, None]

    def ghz(matrices: np.ndarray) -> np.ndarray:
        values = np.empty(len(matrices))
        for start in range(0, len(matrices), rows):
            batch = matrices[start:start + rows]
            powers = np.empty((top + 1, d, d, len(batch)), dtype=complex)  # [e, i, k]: U[i, k]^e
            powers[0], powers[1] = 1.0, batch.transpose(1, 2, 0)
            for e in range(2, top + 1):
                np.multiply(powers[e - 1], powers[1], out=powers[e])
            terms = powers[counts[:, 0], 0]  # (T, k, rows)
            for i in range(1, d):
                # in place: a fixed operand order rounds the same in any batch
                np.multiply(terms, powers[counts[:, i], i], out=terms)
            amplitudes = terms[:, 0] + terms[:, 1]  # (T, rows), summed over k in order
            for k in range(2, d):
                amplitudes += terms[:, k]
            del powers, terms  # freed before the next sub-batch allocates its own
            probabilities = (amplitudes.real ** 2 + amplitudes.imag ** 2) * weights
            # both sums add whole rows in order: a value does not depend on its
            # batch.  np.add.reduce(probabilities, axis=0) does not: a one-row
            # sub-batch is summed pairwise and rounds differently
            # (test_symmetric_row_value_does_not_depend_on_its_batch[random3x3])
            values[start:start + rows] = sum(probabilities) / d
        return values
    return ghz


def _symmetric_width(game: GameSpec) -> int:
    """Complex amplitudes a ``_symmetric_evaluator`` holds per row.

    A GHZ row holds its powers U^0 .. U^top, its type products and one
    gathered factor; a dilemma row holds its D x d protocol amplitudes.
    """
    if game.use_entangler_pair:
        return game.shape.dim * game.shape.d
    counts, weights = game.occupation_types
    d = game.shape.d
    return (int(counts.max(initial=1)) + 1) * d * d + 2 * len(weights) * d


def _search_rows(width: int) -> int:
    """Rows of ``width`` complex amplitudes per chunk or sub-batch under ``_SEARCH_BUDGET``."""
    return max(1, _SEARCH_BUDGET // width)


def _chunked(evaluate: Callable[[np.ndarray], np.ndarray], family: Family,
             axes: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate the matrices of every grid row, in index order, one chunk at a time.

    A chunk holds at most ``_search_rows(d * d)`` rows: the split axis is the
    first whose trailing axes fit in one chunk, and a chunk is one point of
    every axis before it, a block of the split axis and every point of the
    axes after it.  The family's batch constructor builds the chunk on that
    open mesh (``np.ix_``), so each sine, cosine and phase is taken once per
    axis point, and only one chunk exists at a time.
    """
    d = LOCAL_DIMENSION[family]
    build = _builder(family)
    sizes = [len(axis) for axis in axes]
    rows = _search_rows(d * d)
    split = next(j for j in range(len(sizes)) if math.prod(sizes[j + 1:]) <= rows)
    block = rows // math.prod(sizes[split + 1:])
    payoffs = []
    for lead in itertools.product(*axes[:split]):
        for start in range(0, sizes[split], block):
            mesh = np.ix_(axes[split][start:start + block], *axes[split + 1:])
            payoffs.append(evaluate(build(*lead, *mesh).reshape(-1, d, d)))
    return np.concatenate(payoffs)


def _top_indices(values: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(-values, kind="stable")[:k]``, by a partition and a sort of its pool.

    The pool is every row not below the k-th largest value, so rows tied
    with it enter and the stable sort keeps them in index order.
    """
    negated = -values
    if len(negated) <= k:
        return np.argsort(negated, kind="stable")
    threshold = np.partition(negated, k - 1)[k - 1]
    # ~(>) keeps NaN rows in the pool, where the sort puts them last as argsort does
    pool = np.flatnonzero(~(negated > threshold))
    return pool[np.argsort(negated[pool], kind="stable")[:k]]


# --- grid search + refinement ---------------------------------------------------

def _refine(evaluate_batch: Callable[[np.ndarray], np.ndarray], starts: np.ndarray,
            start_values: np.ndarray, box, cfg: SearchConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Compass search with complete polling from every start in lockstep.

    Each round polls +step and -step along every free axis (lo < hi) of every
    active start, the moved coordinate clipped to the box, and evaluates all
    of them in one call.  A start takes its best poll (ties to the first) if
    it beats its value, and otherwise halves its step.  A start stops once its
    step falls below _MIN_STEP; every start stops after p * refine_iterations
    rounds, p the number of parameters.  A round moves one coordinate, so an
    iteration allows a move along every axis, and a gauge-fixed axis does not
    shrink the budget.
    Returns the best points (S, p), their values and the rows evaluated.
    """
    best = np.array(starts, dtype=float)
    best_values = np.array(start_values, dtype=float)
    lower, upper = np.asarray(box, dtype=float).T
    axes = np.flatnonzero(lower < upper).repeat(2)  # poll j moves axes[j] by signs[j] * step
    signs = np.tile([1.0, -1.0], len(axes) // 2)
    lower, upper = lower[axes], upper[axes]  # the bounds of each poll's coordinate
    moved = np.arange(len(axes)) * best.shape[1] + axes  # poll j's coordinate in a start's polls
    # the working set holds the active starts only, compacted when one stops
    index = np.arange(len(best))
    points, values = best.copy(), best_values.copy()
    steps = np.full(len(best), cfg.refine_initial_step)
    evaluations = 0
    for _ in range(best.shape[1] * cfg.refine_iterations if len(axes) else 0):
        stopped = steps < _MIN_STEP
        if stopped.any():
            best[index[stopped]], best_values[index[stopped]] = points[stopped], values[stopped]
            running = ~stopped
            index, points, values, steps = (index[running], points[running], values[running],
                                            steps[running])
        if not len(index):
            break
        candidates = points.repeat(len(axes), axis=0)  # (A * 2k, p): start a's polls in a row
        polled = points[:, axes] + signs * steps[:, None]
        candidates.reshape(len(points), -1)[:, moved] = np.minimum(np.maximum(polled, lower), upper)
        polls = evaluate_batch(candidates).reshape(len(points), -1)
        evaluations += polls.size
        pick = polls.argmax(axis=1)
        top = polls[np.arange(len(points)), pick]
        won = top > values
        winners = candidates.reshape(len(points), len(axes), -1)[won, pick[won]]
        points[won], values[won] = winners, top[won]
        steps[~won] /= 2.0
    best[index], best_values[index] = points, values
    return best, best_values, evaluations


def _search_family(family: Family, evaluate: Callable[[np.ndarray], np.ndarray],
                   extra_starts, cfg: SearchConfig, extra_values=None,
                   conjugate: bool = False) -> tuple[tuple[float, ...], float, int]:
    """Grid + multi-start refinement over one continuous family's search box.

    ``evaluate`` maps a batch of (N, d, d) strategy matrices to payoffs.  The
    family's batch constructor builds every matrix: the grid's on one open
    mesh per chunk (``_chunked``), and the starts and moves from their
    parameter rows.  The 16 best grid points (1 for a family of at most 3
    parameters) start refinement with the values the grid scan gave them.
    A ``conjugate`` search, one whose payoffs do not change under complex
    conjugation (``_conjugate_invariant``), scans the half grid of
    ``_grid_axes`` and starts from the best row of each of its 8 best
    conjugation orbits (``_top_orbits``); its refinement box is the whole
    search box.
    The extra starts are mapped into the box by the gauge, which keeps their
    values, so ``extra_values``, when the caller has them, are used as they
    are; otherwise the extra starts are evaluated with the seeded random
    starts in one call.  The returned evaluation count is every row
    evaluated for the search: the grid, those starts, and the 2k polls of
    every active start in every refinement round, k the free axes.
    """
    def evaluate_batch(params: np.ndarray) -> np.ndarray:
        return evaluate(_family_matrices(family, params))

    box = _search_box(family)
    axes = _grid_axes(family, cfg.grid_points_per_axis, conjugate)
    grid_payoffs = _chunked(evaluate, family, axes)

    if conjugate:
        order = _top_orbits(grid_payoffs, axes, 8)
    else:
        order = _top_indices(grid_payoffs, 16 if len(box) >= 4 else 1)
    # imported on first use, so a session that never draws starts does not load it
    from ._pcg64 import pcg64_doubles

    draws = pcg64_doubles(cfg.seed)
    others = [_clamp_to_box(_gauge_fixed(family, params), box) for params in extra_starts]
    # drawn over the whole parameter box and then mapped, so a seed gives the
    # same starting payoffs as a draw over every axis
    randoms = [_gauge_fixed(family, [lo + (hi - lo) * next(draws) for lo, hi in parameter_box(family)])
               for _ in range(_RANDOM_STARTS)]
    if extra_values is None:
        other_values = evaluate_batch(np.asarray(others + randoms))
    else:
        other_values = [*extra_values, *evaluate_batch(np.asarray(randoms))]
    others += randoms
    starts = np.concatenate([_grid_rows(axes, order), np.asarray(others)])
    values = np.concatenate([grid_payoffs[order], other_values])
    refined, refined_values, used = _refine(evaluate_batch, starts, values, box, cfg)
    winner = int(np.argmax(refined_values))  # the first start with the strictly best value
    return (tuple(map(float, refined[winner])), float(refined_values[winner]),
            len(grid_payoffs) + len(others) + used)


# --- exact and bounded best responses -------------------------------------------

# vec(U) = _QUATERNION_BASIS @ q for U = q0 I + i(q1 Z + q2 Y + q3 X), vec row-major
_QUATERNION_BASIS = np.array([
    [1, 1j, 0, 0],
    [0, 0, 1, 1j],
    [0, 0, -1, 1j],
    [1, -1j, 0, 0],
])
_EISERT_AXES = (0, 1, 3)  # beta = 0 leaves q2 = 0; the box is q0, q1, q3 >= 0
_BOUND_RTOL = 1e-12
_EIGEN_RTOL = 1e-12  # eigenvalues this close to lambda_max, relative to the spectrum, are tied
_TIE_TOL = 1e-9  # projection lengths this close are tied, to the lower index
_ROUND_OFF = 1e-14
_QUATERNION_RTOL = 1e-12  # top-eigenvector entries below this * |M| / gap are round-off
_QUATERNION_CAP = 1e-9  # the threshold never exceeds this, far below any real angle


def _quaternion_form(form: np.ndarray) -> np.ndarray:
    """Real symmetric M with payoff(U(q)) = q^T M q on unit quaternions."""
    m = np.real(_QUATERNION_BASIS.T @ form @ _QUATERNION_BASIS.conj())
    return (m + m.T) / 2


def _quaternion_params(q: np.ndarray) -> tuple[float, ...]:
    """(theta, alpha, beta) of U(q); inverts su2_full_batch for unit q."""
    q = np.where(np.abs(q) < _ROUND_OFF, 0.0, q)  # round-off must not pick the angles
    theta = 2.0 * math.atan2(math.hypot(q[2], q[3]), math.hypot(q[0], q[1]))
    alpha = math.atan2(q[1], q[0])
    beta = math.atan2(-q[2], q[3])
    return tuple(p + 0.0 for p in (theta, alpha, beta))  # no negative zeros


def _top_quaternion(m: np.ndarray) -> np.ndarray:
    """A unit vector of m's top eigenspace that does not depend on its basis.

    The eigenvectors within a relative _EIGEN_RTOL of lambda_max span the
    space; the basis vector e_i with the longest projection P e_i onto it
    (ties within _TIE_TOL to the lower i) gives q = P e_i / |P e_i|, whose
    entry i is its largest and positive.  eigh returns an arbitrary basis of
    a degenerate space, so a round-off change to m could turn its top column.

    A perturbation delta of m moves the space by about |delta| / gap, the gap
    down to the next eigenvalue, so entries below _QUATERNION_RTOL * |m| / gap
    (at most _QUATERNION_CAP; _QUATERNION_RTOL when no eigenvalue lies below
    the space) are set to 0: an entry that is 0 in exact arithmetic then
    prints as 0.  At a maximiser the payoff moves by O(|m| * entry^2).
    """
    values, vectors = np.linalg.eigh(m)
    scale = np.abs(values).max()
    tied = values[-1] - values <= _EIGEN_RTOL * scale
    top = vectors[:, tied]
    projections = top @ top.T  # column i is P e_i
    norms = np.linalg.norm(projections, axis=0)
    index = int(np.flatnonzero(norms >= norms.max() - _TIE_TOL)[0])
    q = projections[:, index] / norms[index]
    below = values[~tied]
    ratio = scale / (values[-1] - below[-1]) if len(below) else 1.0
    return np.where(np.abs(q) < min(_QUATERNION_CAP, _QUATERNION_RTOL * ratio), 0.0, q)


def _best_orthant_quaternion(m: np.ndarray) -> np.ndarray:
    """Maximiser of q^T m q over unit q >= 0 that does not depend on round-off.

    A maximiser's restriction to its support S is a top eigenvector of
    m[S, S], positive on S.  Supports are taken by size, then
    lexicographically; one counts only if its top eigenvector is strictly
    positive, and a later one only if it beats the best value by more than
    _EIGEN_RTOL * |m|, so a tied optimum keeps its first support.
    """
    k = m.shape[0]
    tolerance = _EIGEN_RTOL * np.abs(np.linalg.eigvalsh(m)).max()
    best, best_value = None, -math.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            values, vectors = np.linalg.eigh(m[np.ix_(support, support)])
            top = vectors[:, -1] * np.sign(vectors[:, -1].sum())
            if top.min() > 0 and values[-1] > best_value + tolerance:
                best, best_value = np.zeros(k), values[-1]
                best[list(support)] = top
    return best


def _exact_su2_params(family: Family, form: np.ndarray) -> tuple[float, ...]:
    m = _quaternion_form(form)
    if family == Family.FULL_SU2:
        return _quaternion_params(_top_quaternion(m))
    q = np.zeros(4)
    q[list(_EISERT_AXES)] = _best_orthant_quaternion(m[np.ix_(_EISERT_AXES, _EISERT_AXES)])
    return _quaternion_params(q)[:2]  # q2 = 0 gives beta = 0


def _respond(game: GameSpec, form: np.ndarray, profile: Sequence[StrategySpec], player: int,
             family: Family, cfg: SearchConfig, fidelity: float) -> BestResponseResult:
    """Best response for one player, given that player's noise-free deviation form.

    Deviations are compared at f = 1; the payoff returned is mapped to ``fidelity``.
    """
    uniform = game.payoffs.mean(axis=1)[player - 1]

    def found(strategy: StrategySpec, value: float, evaluations: int,
              certificate: str) -> BestResponseResult:
        payoff = float(_at_fidelity(value, fidelity, uniform))
        return BestResponseResult(strategy, payoff, evaluations, certificate)

    discrete = _discrete_candidates(family)
    if discrete is not None:
        matrices = np.stack([spec.matrix() for spec in discrete])
        payoffs = _deviation_payoffs(form, matrices)
        index = int(np.argmax(payoffs))
        return found(discrete[index], payoffs[index], len(discrete), "exact")

    def evaluate(matrices: np.ndarray) -> np.ndarray:
        return _deviation_payoffs(form, matrices)

    if family in (Family.FULL_SU2, Family.EISERT_SU2):
        params = _exact_su2_params(family, form)
        value = evaluate(_family_matrices(family, np.asarray([params])))[0]
        return found(StrategySpec(family, params), value, 1, "exact")

    extra = list(FAMILY_PRESETS.get(family, ()))
    current = profile[player - 1]
    if current.family == family:
        extra = [current.params] + extra
    values = None
    if extra:
        d = current.local_dimension
        top = d * float(np.linalg.eigvalsh(form)[-1])
        bound = _at_fidelity(top, fidelity, uniform)
        noisy = math.inf  # d * lambda_max(f T + (1 - f) N), lower only where the S_a differ
        if 0 < fidelity < 1:
            noise = np.diag(_noise_diagonal(game, player))
            noisy = d * float(np.linalg.eigvalsh(_at_fidelity(form, fidelity, noise))[-1])
        values = evaluate(_family_matrices(family, np.asarray(extra)))
        for params, value in zip(extra, values):
            # the gap to the lower bound; the first shrinks with f, and at f = 0
            # every deviation attains it
            gap = min(fidelity * (top - value), noisy - _at_fidelity(value, fidelity, uniform))
            if gap <= _BOUND_RTOL * max(1.0, abs(bound)):
                return found(StrategySpec(family, params), value, len(extra), "bound")
    params, value, evaluations = _search_family(family, evaluate, extra, cfg, values)
    return found(StrategySpec(family, params), value, evaluations, "search")


def _validated_ops(game: GameSpec, profile: Sequence[StrategySpec],
                   space: Family) -> list[np.ndarray]:
    """The profile's matrices, player-n-first, after the shape checks."""
    n = game.shape.n
    if len(profile) != n:
        raise ValueError(f"profile needs {n} strategies, got {len(profile)}")
    if _space_dimension(space) != game.shape.d:
        raise ValueError("strategy space dimension does not match the game")
    for spec in profile:
        if spec.local_dimension != game.shape.d:
            raise ValueError("profile strategy dimension does not match the game")
    return list(reversed([spec.matrix() for spec in profile]))


def best_response(game: GameSpec, profile: Sequence[StrategySpec], player: int,
                  space: Family, cfg: SearchConfig | None = None, fidelity: float = 1.0,
                  threads: int = 1) -> BestResponseResult:
    """Best strategy for one player with the rest of the profile held fixed.

    ``profile`` is player-1-first and ``space`` is a ``Family``.  The
    discrete families are enumerated and the qubit families solved exactly;
    SU(3) returns a strategy that attains the lower of
    f * d * lambda_max(T) + (1 - f) * u and
    d * lambda_max(f T + (1 - f) N) if the current one or a preset does, and
    otherwise searches by grid plus refinement.  Every search runs in one
    thread; ``threads`` is ignored and stays only because the bench workloads
    pass it.
    """
    cfg = cfg or SearchConfig()
    n = game.shape.n
    ordered = _validated_ops(game, profile, space)
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range 1..{n}")
    fidelity = protocol_fidelity(game, fidelity)
    form = _deviation_form(game, ordered, player)
    return _respond(game, form, profile, player, space, cfg, fidelity)


def verify_nash(game: GameSpec, profile: Sequence[StrategySpec], space: Family,
                cfg: SearchConfig | None = None, fidelity: float = 1.0) -> EquilibriumVerdict:
    """Scan every player for profitable unilateral deviations.

    ``space`` is a ``Family``.  A player's deviation form is built once and
    gives both the profile payoff and the best response.  On a
    ``GameSpec.symmetric`` game, a profile in which every player plays the
    same strategy is solved for player 1 alone and that row is reported for
    every player: swapping players 1 and i fixes the shared state, the
    entangler and the profile and carries player 1's payoffs to player i's,
    so player i's form, starts and seed are player 1's.  Any other profile
    or game solves each player.
    """
    cfg = cfg or SearchConfig()
    ordered = _validated_ops(game, profile, space)
    fidelity = protocol_fidelity(game, fidelity)
    n = game.shape.n
    solved = 1 if game.symmetric and all(spec == profile[0] for spec in profile) else n
    profile_payoffs = []
    responses = []
    for player, uniform in zip(range(1, solved + 1), game.payoffs.mean(axis=1)):
        form = _deviation_form(game, ordered, player)
        own = ordered[n - player][None, :, :]
        value = _deviation_payoffs(form, own)[0]
        profile_payoffs.append(float(_at_fidelity(value, fidelity, uniform)))
        responses.append(_respond(game, form, profile, player, space, cfg, fidelity))
    profile_payoffs *= n // solved
    responses *= n // solved
    gains = [r.payoff - base for r, base in zip(responses, profile_payoffs)]
    max_gain = max(gains)
    return EquilibriumVerdict(
        is_equilibrium=max_gain <= cfg.epsilon_nash,
        max_unilateral_gain=max_gain,
        profile_payoffs=tuple(profile_payoffs),
        deviation_payoffs=tuple(r.payoff for r in responses),
        best_deviations=tuple(r.strategy for r in responses),
        gains=tuple(gains),
        certificates=tuple(r.certificate for r in responses),
    )


def dominant_strategy(game: GameSpec, player: int) -> int | None:
    """Weakly dominant pure classical strategy, or None.

    Compares the integer payoff numerators, which is exact; ties resolve to
    the lowest index.
    """
    n, d = game.shape.n, game.shape.d
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range 1..{n}")
    table = _own_choice_table(game, game.numerators, player)
    for candidate in range(d):
        if (table[candidate] >= table).all():
            return candidate
    return None


def _conjugate_invariant(game: GameSpec, space: Family) -> bool:
    """Whether a symmetric search over ``space`` on ``game`` may scan the conjugate half grid.

    On the GHZ state a symmetric payoff depends on U only through
    |sum_k prod_i U[i, k]^{m_i}|^2, so U and conj(U) pay the same, and
    su3_frame at negated phases is the conjugate frame: negating every phase
    index maps the SU(3) grid onto itself.  A deviation form is not invariant
    under conjugation, and conj U(theta, alpha, beta) = U(theta, -alpha,
    pi - beta) maps a ``full`` beta grid onto itself only at an even point
    count, so best responses and SU(2) searches scan the whole grid.
    """
    return space is Family.FRAME_SU3 and not game.use_entangler_pair


def _payoff_sum_bound(game: GameSpec) -> Fraction:
    """max_b sum_i payoff_i(b); bounds total payoff in any state."""
    return Fraction(int(game.numerators.sum(axis=0).max()), game.denominator)


def pareto_check_symmetric(game: GameSpec, payoff: float, space: Family,
                           cfg: SearchConfig | None = None, fidelity: float = 1.0,
                           threads: int = 1) -> ParetoVerdict:
    """Heuristic Pareto certificate for a symmetric common payoff.

    If the exact bound max_b sum_i payoff_i(b) / n already certifies the
    value, that analytic certificate is returned.  Otherwise symmetric
    profiles over ``space``, a ``Family``, are searched for one that beats
    the value by more than epsilon; finding one disproves optimality with a
    witness.
    An SU(3) search on the GHZ state scans the conjugate half grid
    (``_conjugate_invariant``).  A grid that would evaluate more than
    ``_WORK_BUDGET`` amplitudes (the rows searched times the amplitudes
    a ``_symmetric_evaluator`` holds per row) is rejected before any work, as
    is a payoff that is not finite.  Every search runs in one thread;
    ``threads`` is ignored and stays only because the bench workloads pass it.
    """
    cfg = cfg or SearchConfig()
    if not math.isfinite(payoff):
        raise ValueError(f"payoff must be finite, got {payoff}")
    fidelity = protocol_fidelity(game, fidelity)
    if _space_dimension(space) != game.shape.d:
        raise ValueError("strategy space dimension does not match the game")
    discrete = _discrete_candidates(space)
    conjugate = _conjugate_invariant(game, space)
    if discrete is None:
        axes = _grid_axes(space, cfg.grid_points_per_axis, conjugate)
        rows = math.prod(len(axis) for axis in axes)
        width = _symmetric_width(game)
        work = rows * width
        if work > _WORK_BUDGET:
            raise ValueError(
                f"a symmetric search over {rows} grid rows evaluates {work} amplitudes "
                f"({width} per row), above the cap of {_WORK_BUDGET}")
    n = game.shape.n
    bound = _payoff_sum_bound(game) / n
    if payoff >= float(bound) - 1e-9:
        return ParetoVerdict(True, "payoff-sum-bound", None, None)

    if discrete is not None:
        matrices = np.stack([spec.matrix() for spec in discrete])
        values = _symmetric_evaluator(game)(matrices)
        index = int(np.argmax(values))
        best_spec, best_value = discrete[index], float(values[index])
    else:
        extra = list(FAMILY_PRESETS.get(space, ()))
        params, best_value, _ = _search_family(space, _symmetric_evaluator(game), extra, cfg,
                                               conjugate=conjugate)
        best_spec = StrategySpec(space, params)
    # searched at f = 1: for f > 0 the map keeps the argmax
    best_value = float(_at_fidelity(best_value, fidelity, game.payoffs.mean(axis=1)[0]))
    if best_value > payoff + cfg.epsilon_nash:
        return ParetoVerdict(False, "symmetric-witness", best_spec, best_value)
    return ParetoVerdict(True, "symmetric-search-exhausted", best_spec, best_value)


def fidelity_sweep(game: GameSpec, strategy: StrategySpec | np.ndarray,
                   f_grid: Sequence[float]) -> FidelitySweep:
    """Symmetric payoffs across fidelities, by the exact affine law from one play.

    Row f is f * p + (1 - f) * u for the noise-free payoffs p and uniform-play
    payoffs u; ``max_residual`` is the round-off of the mean row against the law.
    """
    if len(f_grid) > _MAX_SWEEP_POINTS:
        raise ValueError(
            f"a sweep takes at most {_MAX_SWEEP_POINTS} fidelities, got {len(f_grid)}")
    fs = [protocol_fidelity(game, f) for f in f_grid]
    if not fs:
        raise ValueError("fidelity grid must be non-empty")
    matrix = strategy.matrix() if isinstance(strategy, StrategySpec) else strategy
    pure = np.array(play_symmetric(game, matrix).payoffs)
    uniform = game.payoffs.mean(axis=1)
    xs = np.array(fs)
    rows = _at_fidelity(pure, xs[:, None], uniform)
    slope, intercept = float(pure.mean() - uniform.mean()), float(uniform.mean())
    residual = float(np.max(np.abs(rows.mean(axis=1) - (slope * xs + intercept))))
    return FidelitySweep(
        fidelities=tuple(fs),
        payoffs=tuple(map(tuple, rows.tolist())),
        slope=slope,
        intercept=intercept,
        max_residual=residual,
    )


def sweep_to_csv(sweep: FidelitySweep) -> str:
    """CSV rendering with columns f,player1,...,playerN."""
    players = len(sweep.payoffs[0])
    lines = ["f," + ",".join(f"player{i}" for i in range(1, players + 1))]
    for f, row in zip(sweep.fidelities, sweep.payoffs):
        lines.append(",".join(format(v, ".12g") for v in (f, *row)))
    return "\n".join(lines) + "\n"
