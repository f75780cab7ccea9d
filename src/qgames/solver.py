"""Numerical solution concepts over the strategy spaces.

Payoff evaluation for a unilateral deviation is reduced once per player to a
d^2 x d^2 Hermitian form T with E(U) = vec(U) . T . conj(vec(U)).  T is built
from one batch of d^2 profiles through ``games.protocol_amplitudes``: the
other players' moves stay fixed and the deviating slot holds each matrix
unit E_ab, so no D x D matrix is built.  Symmetric dilemma profiles run
through the same protocol.  A symmetric profile U^(x)n on the GHZ state gives
every outcome with the same occupation type (the number of players on each
choice) the same amplitude, so symmetric GHZ scans evaluate one amplitude per
weighted type, ``GameSpec.occupation_types``, instead of d^n.  All are
checked against a dense reference in the tests.

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

A grid row's matrix is assembled from per-axis factors: the cosine and sine
of each angle and the unit phases (``strategies.factors``).  An axis holds
at most ``_MAX_GRID_POINTS`` points, 6 on SU(3), so the factors of every
axis point are built once per search; each chunk gathers them at its rows'
flat-index digits and assembles its matrices (``strategies.assemble``), so
no grid row computes a transcendental, and a one-point axis broadcasts.
Starts and refinement moves go through the family's batch constructor,
which runs the same factors and assembly, so a point gets the same matrix
bit for bit either way.  The 16 best grid points, ties to the lower index,
are picked by a partition and a stable sort of the rows tied at its
threshold (``_top_indices``).

Best responses are exact wherever the form allows it, and each result names
how it was obtained (``BestResponseResult.certificate``):

``exact``   Discrete spaces are enumerated.  Every SU(2) element is
            q0 I + i(q1 Z + q2 Y + q3 X) for a unit 4-vector q, so on qubits
            E is a real quadratic form q^T M q: the ``full`` optimum is the
            top eigenvector of the 4 x 4 matrix M, and the ``eisert`` box is
            the non-negative orthant of the (q0, q1, q3) subspace, whose
            optimum is an eigenvector of one of its 7 principal submatrices.
``bound``   Every unitary has |vec(U)|^2 = d, so no deviation pays more than
            d * lambda_max(T) at f = 1, or f * d * lambda_max(T) + (1 - f) * u
            at fidelity f.  For SU(3) the current strategy and the family
            presets are tried first; one that reaches the bound is returned.
``search``  Otherwise (SU(3) without an attained bound, and the symmetric
            Pareto scan) an exhaustive grid over the family's search box
            (``_search_box``: SU(3) fixes its phase gauge and scans 6^6 =
            46 656 rows) is assembled from per-axis factor tables, chunk by
            chunk, and followed by multi-start coordinate-descent
            refinement, every start in lockstep with one batched call per
            round (``_search_family``, ``_refine``).

Everything here is deterministic: eigenvectors are signed by a fixed rule,
grids are traversed in lexicographic order, ties resolve to the first
candidate encountered, and the only randomness (the supplementary random
starts and each start's axis orders) comes from the seed in `SearchConfig`.
The budget is a constant, not a setting.  A symmetric payoff ends in a
per-row reduction, so a row's value does not depend on the size of the
chunk or sub-batch it is evaluated in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .games import GameSpec, play_symmetric, protocol_amplitudes, protocol_fidelity
from .states import BATCH_BUDGET
from .strategies import (
    FAMILY_PRESETS,
    LOCAL_DIMENSION,
    Family,
    StrategySpec,
    assemble,
    factors,
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
_ORDER_BLOCK = 256  # sweeps of axis orders drawn at once per refinement start
_RANDOM_STARTS = 4
_MAX_GRID_POINTS = 256  # a 3-parameter grid then streams at most 16.7 M rows
_MAX_SWEEP_POINTS = 1001


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for grid search and refinement.

    seed sets the supplementary random refinement starts, drawn first, and
    then one child stream per start for the axis orders of its sweeps.  Given
    the same seed, results are reproducible bit for bit.
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

    def to_json(self) -> dict:
        return {
            "grid_points_per_axis": self.grid_points_per_axis,
            "refine_iterations": self.refine_iterations,
            "refine_initial_step": self.refine_initial_step,
            "epsilon_nash": self.epsilon_nash,
            "seed": self.seed,
        }


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

def _family_matrices(family: Family, params: np.ndarray) -> np.ndarray:
    """Batch-construct strategy matrices from an (N, k) parameter array."""
    if family == Family.FULL_SU2:
        return su2_full_batch(params[:, 0], params[:, 1], params[:, 2])
    if family == Family.EISERT_SU2:
        return su2_eisert_batch(params[:, 0], params[:, 1])
    if family == Family.FRAME_SU3:
        return su3_frame_batch(*[params[:, i] for i in range(8)])
    raise ValueError(f"{family.value} is not a continuous family")


def _discrete_candidates(space) -> list[StrategySpec] | None:
    if isinstance(space, Family):
        if space == Family.CLASSICAL_BIT:
            return [StrategySpec(space, (float(k),)) for k in range(2)]
        if space == Family.CYCLIC_C3:
            return [StrategySpec(space, (float(k),)) for k in range(3)]
        return None
    return [s if isinstance(s, StrategySpec) else StrategySpec(*s) for s in space]


def _space_dimension(space) -> int:
    if isinstance(space, Family):
        return LOCAL_DIMENSION[space]
    candidates = _discrete_candidates(space)
    if not candidates:
        raise ValueError("an explicit strategy space must be non-empty")
    dims = {c.local_dimension for c in candidates}
    if len(dims) != 1:
        raise ValueError("mixed local dimensions in strategy space")
    return dims.pop()


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


def _grid_axes(family: Family, grid_points: int) -> list[np.ndarray]:
    """The points along each axis of the family's search grid."""
    box = _search_box(family)
    points = grid_points if len(box) <= 3 else min(grid_points, 6)
    return [np.linspace(lo, hi, points if lo < hi else 1) for lo, hi in box]


def _grid_rows(axes: Sequence[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """Rows of the lexicographic grid over ``axes`` at the given flat indices."""
    digits = np.unravel_index(flat, [len(axis) for axis in axes])
    return np.stack([axis[i] for axis, i in zip(axes, digits)], axis=-1)


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
    The d^2 matrix units E_ab at the deviating slot, beside the fixed moves,
    run through the protocol as one batch and give d^2 final vectors v_ab;
    T = sum_K diag_K v_ab[K] conj(v_a'b'[K]).
    """
    n, d = game.shape.n, game.shape.d
    ops = np.repeat(np.stack(fixed_ops)[None], d * d, axis=0)  # (d^2, n, d, d)
    ops[:, n - player] = np.eye(d * d).reshape(d * d, d, d)   # the player's slot
    units = protocol_amplitudes(game, ops)
    return (units * game.payoffs[player - 1]) @ units.conj().T


def _deviation_payoffs(form: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Evaluate the bilinear payoff form on a batch of (N, d, d) matrices."""
    d = matrices.shape[-1]
    flat = matrices.reshape(-1, d * d)
    return np.real(np.einsum("gi,ij,gj->g", flat, form, flat.conj()))


def _symmetric_payoffs(game: GameSpec, matrices: np.ndarray) -> np.ndarray:
    """Noise-free player-1 payoff for symmetric profiles, batched over (N, d, d).

    On the GHZ state an outcome of occupation type m has the amplitude
    sum_k prod_i U[i, k]^{m_i} / sqrt(d), so the payoff is
    sum_m W_m |sum_k prod_i U[i, k]^{m_i}|^2 / d over ``occupation_types``.
    """
    d = game.shape.d
    if game.use_entangler_pair:
        final = protocol_amplitudes(game, np.stack([matrices, matrices], axis=1))
        return np.einsum("gi,i->g", np.abs(final) ** 2, game.payoffs[0])
    counts, weights = game.occupation_types
    top = int(counts.max(initial=1))
    rows = _search_rows(_symmetric_width(game))
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
        probabilities = (amplitudes.real ** 2 + amplitudes.imag ** 2) * weights[:, None]
        # both sums add whole rows in order: a value does not depend on its batch
        values[start:start + rows] = sum(probabilities) / d
    return values


def _symmetric_width(game: GameSpec) -> int:
    """Complex amplitudes ``_symmetric_payoffs`` holds per row.

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

    The factors of every axis point (``strategies.factors``) are built once;
    a chunk of ``_search_rows(d * d)`` rows gathers them at its rows' digits
    and assembles its matrices, so only one chunk exists at a time and no
    row computes a sine, cosine or phase of its own.
    """
    sizes = [len(axis) for axis in axes]
    # every axis padded to one length, then each table cut back to its axis
    padded = factors(family, [np.resize(axis, max(sizes)) for axis in axes])
    tables = [[f[:size] for f in per_axis] for per_axis, size in zip(padded, sizes)]
    strides = [math.prod(sizes[i + 1:]) for i in range(len(sizes))]
    total = math.prod(sizes)
    rows = _search_rows(LOCAL_DIMENSION[family] ** 2)
    payoffs = np.empty(total)
    for start in range(0, total, rows):
        flat = np.arange(start, min(start + rows, total))
        # the gathered factors are freed once assembled, before the evaluation
        payoffs[start:start + len(flat)] = evaluate(
            assemble(family, _gathered(tables, strides, sizes, flat)))
    return payoffs


def _gathered(tables, strides, sizes, flat: np.ndarray) -> list[list[np.ndarray]]:
    """Each axis's factors at the digits of the flat grid indices.

    A one-point axis passes its table as it is, to broadcast.
    """
    out = []
    for table, stride, size in zip(tables, strides, sizes):
        if size == 1:
            out.append(table)
        else:
            digit = flat // stride % size
            out.append([f[digit] for f in table])
    return out


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
            start_values: np.ndarray, box, cfg: SearchConfig,
            streams: Sequence[np.random.Generator]) -> tuple[np.ndarray, np.ndarray, int]:
    """Coordinate search with first improvement from every start in lockstep.

    Each start runs its own sweeps: +step and -step along each free axis
    (lo < hi), in an order drawn from its own stream, taking the first move
    that improves on its best point and scanning the rest of the sweep from
    there; a sweep with no improvement halves its step.  A start stops after
    ``refine_iterations`` sweeps or once its step falls below _MIN_STEP.
    Every round evaluates the pending moves of all active starts in one call.
    The starts lie in the box, so a move clips only the coordinate it moves.
    Returns the best points (S, k), their values and the rows evaluated.
    """
    best = np.array(starts, dtype=float)
    best_values = np.array(start_values, dtype=float)
    lower, upper = np.asarray(box, dtype=float).T
    free = np.flatnonzero(lower < upper)
    moves = 2 * len(free)
    signs = np.tile([1.0, -1.0], len(free))
    steps = np.full(len(best), cfg.refine_initial_step)
    sweeps = np.zeros(len(best), dtype=int)
    improved = np.zeros(len(best), dtype=bool)
    move_axes = np.empty((len(best), moves), dtype=int)
    first = np.full(len(best), moves)  # each start's next pending move; ``moves`` when idle
    # each start's axis orders, a block of sweeps at a time from its own stream:
    # the rows equal one permutation per sweep, and the block bounds the memory
    block = max(1, min(cfg.refine_iterations, _ORDER_BLOCK))
    orders = np.empty((len(best), block, len(free)), dtype=int)

    def open_sweeps(idle: np.ndarray) -> None:
        idle = idle[(sweeps[idle] < cfg.refine_iterations) & (steps[idle] >= _MIN_STEP)]
        row = sweeps[idle] % block
        for s in idle[row == 0]:
            orders[s] = streams[s].permuted(np.tile(np.arange(len(free)), (block, 1)), axis=1)
        move_axes[idle] = free[orders[idle, row]].repeat(2, axis=1)
        first[idle], improved[idle] = 0, False
        sweeps[idle] += 1

    open_sweeps(np.arange(len(best)))
    evaluations = 0
    while True:
        # array methods, not the numpy functions that wrap them: a round is
        # dozens of calls on a few hundred rows
        active = (first < moves).nonzero()[0]
        if not len(active):
            return best, best_values, evaluations
        next_move = first[active]
        pending = moves - next_move
        begin = pending.cumsum() - pending  # each start's first row in the batch
        owner = active.repeat(pending)
        move = np.arange(len(owner)) - (begin - next_move).repeat(pending)
        candidates = best[owner]
        rows, axis = np.arange(len(owner)), move_axes[owner, move]
        candidates[rows, axis] = (candidates[rows, axis] + signs[move] * steps[owner]).clip(
            lower[axis], upper[axis])
        values = evaluate_batch(candidates)
        evaluations += len(candidates)
        # each start's first improving row; a sentinel past the end marks none
        hits = np.concatenate(((values > best_values[owner]).nonzero()[0], [len(values)]))
        taken = hits[hits.searchsorted(begin)]
        found = taken < begin + pending
        won, taken = active[found], taken[found]
        best[won], best_values[won] = candidates[taken], values[taken]
        improved[won] = True
        stalled = active[~found]
        steps[stalled[~improved[stalled]]] /= 2.0
        first[stalled] = moves
        first[won] = move[taken] + 1
        open_sweeps(active[first[active] == moves])


def _search_family(family: Family, evaluate: Callable[[np.ndarray], np.ndarray],
                   extra_starts, cfg: SearchConfig,
                   extra_values=None) -> tuple[tuple[float, ...], float, int]:
    """Grid + multi-start refinement over one continuous family's search box.

    ``evaluate`` maps a batch of (N, d, d) strategy matrices to payoffs.  The
    grid builds its matrices from per-axis factor tables (``_chunked``);
    every other point is built by the family's batch constructor.  The best
    grid points start refinement with the values the grid scan gave them.
    The extra starts are mapped into the box by the gauge, which keeps their
    values, so ``extra_values``, when the caller has them, are used as they
    are; otherwise the extra starts are evaluated with the seeded random
    starts in one call.  The returned evaluation count is every row
    evaluated for the search: the grid, those starts, and every move each
    refinement sweep evaluated, including the moves it evaluated again after
    an improvement.
    """
    def evaluate_batch(params: np.ndarray) -> np.ndarray:
        return evaluate(_family_matrices(family, params))

    box = _search_box(family)
    axes = _grid_axes(family, cfg.grid_points_per_axis)
    grid_payoffs = _chunked(evaluate, family, axes)

    order = _top_indices(grid_payoffs, 16 if len(box) >= 4 else 1)
    rng = np.random.default_rng(cfg.seed)
    others = [_clamp_to_box(_gauge_fixed(family, params), box) for params in extra_starts]
    # drawn over the whole parameter box and then mapped, so a seed gives the
    # same starting payoffs as a draw over every axis
    randoms = [_gauge_fixed(family, [rng.uniform(lo, hi) for lo, hi in parameter_box(family)])
               for _ in range(_RANDOM_STARTS)]
    if extra_values is None:
        other_values = evaluate_batch(np.asarray(others + randoms))
    else:
        other_values = [*extra_values, *evaluate_batch(np.asarray(randoms))]
    others += randoms
    starts = np.concatenate([_grid_rows(axes, order), np.asarray(others)])
    values = np.concatenate([grid_payoffs[order], other_values])
    refined, refined_values, used = _refine(evaluate_batch, starts, values, box, cfg,
                                            rng.spawn(len(starts)))
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
_ROUND_OFF = 1e-14


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
    """Top eigenvector of m, signed so its largest entry is positive."""
    q = np.linalg.eigh(m)[1][:, -1]
    return q if q[int(np.argmax(np.abs(q)))] > 0 else -q


def _best_orthant_quaternion(m: np.ndarray) -> np.ndarray:
    """Maximiser of q^T m q over unit q >= 0.

    At the maximiser q with support S, q_S is an eigenvector of m[S, S]; and
    some maximiser has a support whose eigenvalue is simple, so enumerating
    the eigenvectors of every principal submatrix finds it.
    """
    k = m.shape[0]
    best, best_value = None, -math.inf
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            values, vectors = np.linalg.eigh(m[np.ix_(support, support)])
            for value, vector in zip(values, vectors.T):
                if vector.sum() < 0:
                    vector = -vector
                if vector.min() < -1e-12 or value <= best_value:
                    continue
                best = np.zeros(k)
                best[list(support)] = np.abs(vector)
                best_value = value
    return best / np.linalg.norm(best)


def _exact_su2_params(family: Family, form: np.ndarray) -> tuple[float, ...]:
    m = _quaternion_form(form)
    if family == Family.FULL_SU2:
        return _quaternion_params(_top_quaternion(m))
    q = np.zeros(4)
    q[list(_EISERT_AXES)] = _best_orthant_quaternion(m[np.ix_(_EISERT_AXES, _EISERT_AXES)])
    return _quaternion_params(q)[:2]  # q2 = 0 gives beta = 0


def _respond(form: np.ndarray, profile: Sequence[StrategySpec], player: int, space,
             cfg: SearchConfig, fidelity: float, uniform: float) -> BestResponseResult:
    """Best response for one player, given that player's noise-free deviation form.

    Deviations are compared at f = 1; the payoff returned is mapped to ``fidelity``.
    """
    def found(strategy: StrategySpec, value: float, evaluations: int,
              certificate: str) -> BestResponseResult:
        payoff = float(_at_fidelity(value, fidelity, uniform))
        return BestResponseResult(strategy, payoff, evaluations, certificate)

    discrete = _discrete_candidates(space)
    if discrete is not None:
        matrices = np.stack([spec.matrix() for spec in discrete])
        payoffs = _deviation_payoffs(form, matrices)
        index = int(np.argmax(payoffs))
        return found(discrete[index], payoffs[index], len(discrete), "exact")

    family = space

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
        top = current.local_dimension * float(np.linalg.eigvalsh(form)[-1])
        bound = _at_fidelity(top, fidelity, uniform)
        values = evaluate(_family_matrices(family, np.asarray(extra)))
        for params, value in zip(extra, values):
            # the gap to the bound shrinks with f: at f = 0 every deviation attains it
            if fidelity * (top - value) <= _BOUND_RTOL * max(1.0, abs(bound)):
                return found(StrategySpec(family, params), value, len(extra), "bound")
    params, value, evaluations = _search_family(family, evaluate, extra, cfg, values)
    return found(StrategySpec(family, params), value, evaluations, "search")


def _validated_ops(game: GameSpec, profile: Sequence[StrategySpec], space) -> list[np.ndarray]:
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
                  space, cfg: SearchConfig | None = None, fidelity: float = 1.0,
                  threads: int = 1) -> BestResponseResult:
    """Best strategy for one player with the rest of the profile held fixed.

    ``profile`` is player-1-first.  ``space`` is a Family or an explicit
    sequence of StrategySpec candidates.  Discrete spaces are enumerated and
    the qubit families solved exactly; SU(3) returns a strategy that attains
    the bound f * d * lambda_max(T) + (1 - f) * u if the current one or a
    preset does, and otherwise searches by grid plus refinement.  ``threads``
    is accepted for compatibility and ignored: every search runs in one thread.
    """
    cfg = cfg or SearchConfig()
    n = game.shape.n
    ordered = _validated_ops(game, profile, space)
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range 1..{n}")
    fidelity = protocol_fidelity(game, fidelity)
    form = _deviation_form(game, ordered, player)
    uniform = game.payoffs.mean(axis=1)[player - 1]
    return _respond(form, profile, player, space, cfg, fidelity, uniform)


def verify_nash(game: GameSpec, profile: Sequence[StrategySpec], space,
                cfg: SearchConfig | None = None, fidelity: float = 1.0,
                threads: int = 1) -> EquilibriumVerdict:
    """Scan every player for profitable unilateral deviations.

    Each player's deviation form is built once and gives both the profile
    payoff and the best response.  ``threads`` is accepted for compatibility
    and ignored.
    """
    cfg = cfg or SearchConfig()
    ordered = _validated_ops(game, profile, space)
    fidelity = protocol_fidelity(game, fidelity)
    n = game.shape.n
    profile_payoffs = []
    responses = []
    for player, uniform in enumerate(game.payoffs.mean(axis=1), 1):
        form = _deviation_form(game, ordered, player)
        own = ordered[n - player][None, :, :]
        value = _deviation_payoffs(form, own)[0]
        profile_payoffs.append(float(_at_fidelity(value, fidelity, uniform)))
        responses.append(_respond(form, profile, player, space, cfg, fidelity, uniform))
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
    # the player's digit is axis n - player of the index-order tensor
    own = np.moveaxis(game.numerators[player - 1].reshape((d,) * n), n - player, 0)
    table = own.reshape(d, -1)  # (own choice, opponent profile)
    for candidate in range(d):
        if (table[candidate] >= table).all():
            return candidate
    return None


def _payoff_sum_bound(game: GameSpec) -> Fraction:
    """max_b sum_i payoff_i(b); bounds total payoff in any state."""
    return Fraction(int(game.numerators.sum(axis=0).max()), game.denominator)


def pareto_check_symmetric(game: GameSpec, payoff: float, space,
                           cfg: SearchConfig | None = None, fidelity: float = 1.0,
                           threads: int = 1) -> ParetoVerdict:
    """Heuristic Pareto certificate for a symmetric common payoff.

    If the exact bound max_b sum_i payoff_i(b) / n already certifies the
    value, that analytic certificate is returned.  Otherwise symmetric
    profiles over the space are searched for one that beats the value by
    more than epsilon; finding one disproves optimality with a witness.
    A grid that would evaluate more than ``_WORK_BUDGET`` amplitudes (rows
    times the amplitudes ``_symmetric_payoffs`` holds per row) is rejected
    before any work, as is a payoff that is not finite.  ``threads`` is
    accepted for compatibility and ignored.
    """
    cfg = cfg or SearchConfig()
    if not math.isfinite(payoff):
        raise ValueError(f"payoff must be finite, got {payoff}")
    fidelity = protocol_fidelity(game, fidelity)
    if _space_dimension(space) != game.shape.d:
        raise ValueError("strategy space dimension does not match the game")
    discrete = _discrete_candidates(space)
    if discrete is None:
        rows = math.prod(len(axis) for axis in _grid_axes(space, cfg.grid_points_per_axis))
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
        values = _symmetric_payoffs(game, matrices)
        index = int(np.argmax(values))
        best_spec, best_value = discrete[index], float(values[index])
    else:
        family = space

        def evaluate(matrices: np.ndarray) -> np.ndarray:
            return _symmetric_payoffs(game, matrices)

        extra = list(FAMILY_PRESETS.get(family, ()))
        params, best_value, _ = _search_family(family, evaluate, extra, cfg)
        best_spec = StrategySpec(family, params)
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
