"""Numerical solution concepts over the strategy spaces.

Payoff evaluation for a unilateral deviation is reduced once per player to a
d^2 x d^2 Hermitian form T with E(U) = vec(U) . T . conj(vec(U)).  T is built
from the propagated pure state: the other players' moves are applied to the
shared state once, the deviating slot is opened with each matrix unit E_ab,
and white noise enters in closed form, which costs O(d^2 D) instead of the
O(d^2 D^3) of a density-matrix build.  Symmetric scans over the GHZ games
use the product structure of the shared state.  Both reductions are
cross-checked against a dense density-matrix reference in the tests.

Every search streams its work under one budget, ``_SEARCH_BUDGET`` complex
amplitudes (16 * ``states.BATCH_BUDGET``, 1 MB): the grid is evaluated in
sequential chunks of as many rows as the budget holds d x d strategy
matrices, and a symmetric GHZ scan splits each chunk again into sub-batches
of d^n * d amplitudes per row.  A search's working memory is therefore a
small constant, whatever the grid size or the number of players.  A
symmetric Pareto search whose grid would evaluate more than
``_WORK_BUDGET`` amplitudes (rows x D x d) is rejected before it starts.

Best responses are exact wherever the form allows it, and each result names
how it was obtained (``BestResponseResult.certificate``):

``exact``   Discrete spaces are enumerated.  Every SU(2) element is
            q0 I + i(q1 Z + q2 Y + q3 X) for a unit 4-vector q, so on qubits
            E is a real quadratic form q^T M q: the ``full`` optimum is the
            top eigenvector of the 4 x 4 matrix M, and the ``eisert`` box is
            the non-negative orthant of the (q0, q1, q3) subspace, whose
            optimum is an eigenvector of one of its 7 principal submatrices.
``bound``   Every unitary has |vec(U)|^2 = d, so no deviation pays more than
            d * lambda_max(T).  For SU(3) the current strategy and the family
            presets are tried first; one that reaches the bound is returned.
``search``  Otherwise (SU(3) without an attained bound, and the symmetric
            Pareto scan) an exhaustive grid over the family's search box is
            followed by coordinate-descent refinement.  For SU(3) the box
            fixes the phase gauge: alpha_k is a phase on row k of U (and the
            sum a phase on its third column), and a diagonal phase on the left
            commutes with the computational-basis measurement, so every
            payoff depends on the alphas only through their sum.  The search
            pins alpha1 = alpha2 = 0 and scans the other 6 axes on a coarse
            6-point grid, 6^6 = 46 656 rows, with multi-start refinement from
            the best 16 grid points; the extra and random starts are mapped
            into the gauge with alpha3 = (alpha1 + alpha2 + alpha3) mod 2 pi,
            which keeps their value.  Qubit boxes use the configured grid
            resolution directly.  The grid is streamed: each chunk's rows are
            built from their flat indices, so the whole grid never exists at
            once, and the starts are read back from the indices of the best
            values.  Every start is refined by coordinate descent, and all
            starts advance in lockstep.  A start's sweep tries +step and -step
            along every free axis, in an order drawn from the start's own
            stream, and takes the first move in scan order that improves on
            its best point (first improvement); the rest of the sweep is then
            scanned from the new point.  A sweep with no improvement halves
            the start's step.  Each round gathers the pending moves of every
            active start, from its next move to the end of its sweep, into
            one batched call, so a search makes one call per round rather
            than one per start and sweep.

Everything here is deterministic: eigenvectors are signed by a fixed rule,
grids are traversed in lexicographic order, ties resolve to the first
candidate encountered, and the only randomness (the supplementary random
starts and each start's axis orders) comes from the seed in `SearchConfig`.
The budget is a constant, not a setting: a symmetric sub-batch ends in one
matrix-vector product, which BLAS may round differently by a row's place in
its block, so another budget can move grid values by an ulp.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .games import GameSpec, entangler, play_symmetric, resource_state
from .states import BATCH_BUDGET, apply_local_pure, check_fidelity
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
# (d^n * d per row): 2^16, 1 MB
_SEARCH_BUDGET = 16 * BATCH_BUDGET
# amplitudes a symmetric Pareto search may evaluate on its grid, rows * D * d
_WORK_BUDGET = 1 << 30
_MIN_STEP = 1e-8
_RANDOM_STARTS = 4
_MAX_GRID_POINTS = 256  # a 3-parameter grid then streams at most 16.7 M rows
_MAX_SWEEP_POINTS = 1001


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for grid search and refinement.

    seed sets the supplementary random refinement starts, drawn first, and
    then the per-start axis-order streams: the generator spawns one child
    stream per start, and each sweep of that start draws its axis order from
    it.  Given the same seed, results are reproducible bit for bit.
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
        if self.epsilon_nash <= 0:
            raise ValueError("epsilon_nash must be positive")

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

def _tensor_slot(n: int, player: int) -> int:
    """Index of player's factor in a player-n-first operator list."""
    return n - player


def _deviation_form(game: GameSpec, fixed_ops: Sequence[np.ndarray], player: int,
                    fidelity: float) -> np.ndarray:
    """Hermitian form T with payoff(U) = vec(U) . T . conj(vec(U)).

    ``fixed_ops`` is the player-n-first operator list; the entry at the
    deviating player's slot is ignored.  The form folds in the shared state,
    the noise mix, the entangler pair for the dilemma, and the player's
    payoff operator.

    With the fixed moves applied to the shared state, E_ab at the deviating
    slot gives d^2 vectors v_ab, and the pure part is
    sum_K diag_K v_ab[K] conj(v_a'b'[K]).  White noise contributes
    (1 - f)/D * sum_K diag_K (C_ab C_a'b'^dagger)_KK, which for unitary fixed
    moves is diagonal: the sum of diag_K over the K whose slot digit is a, at
    entry (ab, ab).
    """
    n, d = game.shape.n, game.shape.d
    slot = _tensor_slot(n, player)
    diag = game.payoffs[player - 1]
    if game.use_entangler_pair:
        if fidelity != 1.0:
            raise ValueError("the dilemma protocol is pure; fidelity must be 1")
    else:
        fidelity = check_fidelity(fidelity)

    ops = list(fixed_ops)
    ops[slot] = np.eye(d)
    moved = apply_local_pure(ops, resource_state(game)).amplitudes
    rest = np.moveaxis(moved.reshape((d,) * n), slot, 0)   # (slot digit, others)
    units = np.zeros((d, d) + rest.shape, dtype=complex)   # (a, b, slot digit, others)
    for a in range(d):
        units[a, :, a] = rest
    units = np.moveaxis(units, 2, 2 + slot).reshape(d * d, -1)
    if game.use_entangler_pair:
        units = units @ entangler().conj()   # each row v -> J-dagger v
    form = fidelity * ((units * diag) @ units.conj().T)
    if fidelity < 1.0:
        slot_weights = np.moveaxis(diag.reshape((d,) * n), slot, 0).reshape(d, -1).sum(axis=1)
        form += np.diag(np.repeat(slot_weights, d) * ((1.0 - fidelity) / game.shape.dim))
    return form


def _deviation_payoffs(form: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """Evaluate the bilinear payoff form on a batch of (N, d, d) matrices."""
    d = matrices.shape[-1]
    flat = matrices.reshape(-1, d * d)
    return np.real(np.einsum("gi,ij,gj->g", flat, form, flat.conj()))


def _symmetric_payoffs(game: GameSpec, matrices: np.ndarray,
                       fidelity: float) -> np.ndarray:
    """Player-1 payoff for symmetric profiles, batched over (N, d, d)."""
    n, d = game.shape.n, game.shape.d
    diag = game.payoffs[0]
    if game.use_entangler_pair:
        if fidelity != 1.0:
            raise ValueError("the dilemma protocol is pure; fidelity must be 1")
        j = entangler()
        seed_state = resource_state(game).amplitudes
        pair = np.einsum("gab,gcd->gacbd", matrices, matrices).reshape(-1, 4, 4)
        final = np.einsum("ij,gj->gi", j.conj().T,
                          np.einsum("gij,j->gi", pair, seed_state))
        return (np.abs(final) ** 2) @ diag
    rows = _search_rows(d ** n * d)
    pure = np.concatenate([_ghz_pure_payoffs(matrices[i:i + rows], n, d, diag)
                           for i in range(0, len(matrices), rows)])
    if fidelity < 1.0:
        return fidelity * pure + (1.0 - fidelity) * float(diag.mean())
    return pure


def _ghz_pure_payoffs(matrices: np.ndarray, n: int, d: int, diag: np.ndarray) -> np.ndarray:
    """Noise-free payoffs of symmetric GHZ profiles for one sub-batch.

    The amplitude at |i_n ... i_1> is sum_k prod_j U[i_j, k] / sqrt(d).  The
    products over players 1 .. n-1 are broadcast into (g, k, i_{n-1} ... i_1);
    one batched matmul with U sums over k for player n.
    """
    g = len(matrices)
    factors = matrices.transpose(0, 2, 1)  # (g, k, i): U[i, k]
    products = factors if n > 1 else np.ones((g, d, 1))
    for _ in range(n - 2):
        products = (factors[:, :, :, None] * products[:, :, None, :]).reshape(g, d, -1)
    amplitudes = np.matmul(matrices, products).reshape(g, -1)
    del products  # free it before the probabilities are formed
    return (amplitudes.real ** 2 + amplitudes.imag ** 2) @ diag / d


def _search_rows(width: int) -> int:
    """Rows of ``width`` complex amplitudes per chunk or sub-batch under ``_SEARCH_BUDGET``."""
    return max(1, _SEARCH_BUDGET // width)


def _chunked(evaluate: Callable[[np.ndarray], np.ndarray], axes: Sequence[np.ndarray],
             width: int) -> np.ndarray:
    """Evaluate every grid row, in index order, one chunk at a time.

    A chunk holds ``_search_rows(width)`` rows, where ``width`` is the size of
    the strategy matrix each row builds; its rows are built from their flat
    indices when it runs, so only one chunk exists at a time.
    """
    total = math.prod(len(axis) for axis in axes)
    rows = _search_rows(width)
    payoffs = np.empty(total)
    for start in range(0, total, rows):
        stop = min(start + rows, total)
        payoffs[start:stop] = evaluate(_grid_rows(axes, np.arange(start, stop)))
    return payoffs


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

    def open_sweep(s: int) -> None:
        if sweeps[s] < cfg.refine_iterations and steps[s] >= _MIN_STEP:
            move_axes[s] = np.repeat(free[streams[s].permutation(len(free))], 2)
            first[s], improved[s] = 0, False
            sweeps[s] += 1

    for s in range(len(best)):
        open_sweep(s)
    evaluations = 0
    while True:
        active = np.flatnonzero(first < moves)
        if not len(active):
            return best, best_values, evaluations
        pending = moves - first[active]
        begin = np.cumsum(pending) - pending  # each start's first row in the batch
        owner = np.repeat(active, pending)
        move = np.arange(pending.sum()) - np.repeat(begin - first[active], pending)
        candidates = best[owner]
        candidates[np.arange(len(owner)), move_axes[owner, move]] += signs[move] * steps[owner]
        candidates = np.clip(candidates, lower, upper)
        values = evaluate_batch(candidates)
        evaluations += len(candidates)
        # each start's first improving row; a sentinel past the end marks none
        hits = np.append(np.flatnonzero(values > best_values[owner]), len(values))
        taken = hits[np.searchsorted(hits, begin)]
        found = taken < begin + pending
        won, taken = active[found], taken[found]
        best[won], best_values[won] = candidates[taken], values[taken]
        improved[won] = True
        stalled = active[~found]
        steps[stalled[~improved[stalled]]] /= 2.0
        first[stalled] = moves
        first[won] = move[taken] + 1
        for s in active[first[active] == moves]:
            open_sweep(s)


def _search_family(family: Family, evaluate_batch, extra_starts, cfg: SearchConfig,
                   extra_values=None) -> tuple[tuple[float, ...], float, int]:
    """Grid + multi-start refinement over one continuous family's search box.

    The best grid points start refinement with the values the grid scan gave
    them.  The extra starts are mapped into the box by the gauge, which keeps
    their values, so ``extra_values``, when the caller has them, are used as
    they are; otherwise the extra starts are evaluated with the seeded random
    starts in one call.  The returned evaluation count is every row evaluated
    for the search: the grid, those starts, and every move each refinement
    sweep evaluated, including the moves it evaluated again after an
    improvement.
    """
    box = _search_box(family)
    axes = _grid_axes(family, cfg.grid_points_per_axis)
    grid_payoffs = _chunked(evaluate_batch, axes, LOCAL_DIMENSION[family] ** 2)

    start_count = 16 if len(box) >= 4 else 1
    # a full stable argsort: a partition saves little on the gauge-fixed grids
    order = np.argsort(-grid_payoffs, kind="stable")[:start_count]
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


def _presets_for(space) -> list[tuple[float, ...]]:
    if isinstance(space, Family):
        return list(FAMILY_PRESETS.get(space, ()))
    return []


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
             cfg: SearchConfig) -> BestResponseResult:
    """Best response for one player, given that player's deviation form."""
    discrete = _discrete_candidates(space)
    if discrete is not None:
        matrices = np.stack([spec.matrix() for spec in discrete])
        payoffs = _deviation_payoffs(form, matrices)
        index = int(np.argmax(payoffs))
        return BestResponseResult(discrete[index], float(payoffs[index]), len(discrete), "exact")

    family = space

    def evaluate_batch(params: np.ndarray) -> np.ndarray:
        return _deviation_payoffs(form, _family_matrices(family, params))

    if family in (Family.FULL_SU2, Family.EISERT_SU2):
        params = _exact_su2_params(family, form)
        value = float(evaluate_batch(np.asarray([params]))[0])
        return BestResponseResult(StrategySpec(family, params), value, 1, "exact")

    extra = _presets_for(space)
    current = profile[player - 1]
    if current.family == family:
        extra = [current.params] + extra
    values = None
    if extra:
        bound = current.local_dimension * float(np.linalg.eigvalsh(form)[-1])
        values = evaluate_batch(np.asarray(extra))
        for params, value in zip(extra, values):
            if value >= bound - _BOUND_RTOL * max(1.0, abs(bound)):
                return BestResponseResult(StrategySpec(family, params), float(value),
                                          len(extra), "bound")
    params, value, evaluations = _search_family(family, evaluate_batch, extra, cfg, values)
    return BestResponseResult(StrategySpec(family, params), value, evaluations, "search")


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
    the d * lambda_max bound if the current one or a preset does, and
    otherwise searches by grid plus refinement.  ``threads`` is accepted for
    compatibility and ignored: every search runs in one thread.
    """
    cfg = cfg or SearchConfig()
    n = game.shape.n
    ordered = _validated_ops(game, profile, space)
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range 1..{n}")
    form = _deviation_form(game, ordered, player, fidelity)
    return _respond(form, profile, player, space, cfg)


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
    n = game.shape.n
    profile_payoffs = []
    responses = []
    for player in range(1, n + 1):
        form = _deviation_form(game, ordered, player, fidelity)
        own = ordered[_tensor_slot(n, player)][None, :, :]
        profile_payoffs.append(float(_deviation_payoffs(form, own)[0]))
        responses.append(_respond(form, profile, player, space, cfg))
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
    A grid that would evaluate more than ``_WORK_BUDGET`` amplitudes
    (rows x D x d) is rejected before any work.  ``threads`` is accepted for
    compatibility and ignored.
    """
    cfg = cfg or SearchConfig()
    check_fidelity(fidelity)
    if _space_dimension(space) != game.shape.d:
        raise ValueError("strategy space dimension does not match the game")
    if _discrete_candidates(space) is None:
        rows = math.prod(len(axis) for axis in _grid_axes(space, cfg.grid_points_per_axis))
        work = rows * game.shape.dim * game.shape.d
        if work > _WORK_BUDGET:
            raise ValueError(
                f"a symmetric search over {rows} grid rows evaluates {work} amplitudes "
                f"(rows x D x d), above the cap of {_WORK_BUDGET}")
    n = game.shape.n
    bound = _payoff_sum_bound(game) / n
    if payoff >= float(bound) - 1e-9:
        return ParetoVerdict(True, "payoff-sum-bound", None, None)

    discrete = _discrete_candidates(space)
    if discrete is not None:
        matrices = np.stack([spec.matrix() for spec in discrete])
        values = _symmetric_payoffs(game, matrices, fidelity)
        index = int(np.argmax(values))
        best_spec, best_value = discrete[index], float(values[index])
    else:
        family = space

        def evaluate_batch(params: np.ndarray) -> np.ndarray:
            return _symmetric_payoffs(game, _family_matrices(family, params), fidelity)

        extra = _presets_for(space)
        params, best_value, _ = _search_family(family, evaluate_batch, extra, cfg)
        best_spec = StrategySpec(family, params)

    if best_value > payoff + cfg.epsilon_nash:
        return ParetoVerdict(False, "symmetric-witness", best_spec, best_value)
    return ParetoVerdict(True, "symmetric-search-exhausted", best_spec, best_value)


def fidelity_sweep(game: GameSpec, strategy: StrategySpec | np.ndarray,
                   f_grid: Sequence[float]) -> FidelitySweep:
    """Symmetric payoffs across fidelities, with an affine least-squares fit."""
    if len(f_grid) > _MAX_SWEEP_POINTS:
        raise ValueError(
            f"a sweep takes at most {_MAX_SWEEP_POINTS} fidelities, got {len(f_grid)}")
    fs = [check_fidelity(f) for f in f_grid]
    if not fs:
        raise ValueError("fidelity grid must be non-empty")
    matrix = strategy.matrix() if isinstance(strategy, StrategySpec) else strategy
    rows = [play_symmetric(game, matrix, fidelity=f).payoffs for f in fs]
    means = np.array([float(np.mean(row)) for row in rows])
    xs = np.array(fs)
    if len(fs) >= 2 and float(np.ptp(xs)) > 0:
        slope, intercept = np.polyfit(xs, means, 1)
    else:
        slope, intercept = 0.0, float(means[0])
    residual = float(np.max(np.abs(means - (slope * xs + intercept))))
    return FidelitySweep(
        fidelities=tuple(fs),
        payoffs=tuple(tuple(row) for row in rows),
        slope=float(slope),
        intercept=float(intercept),
        max_residual=residual,
    )


def sweep_to_csv(sweep: FidelitySweep) -> str:
    """CSV rendering with columns f,player1,...,playerN."""
    players = len(sweep.payoffs[0])
    lines = ["f," + ",".join(f"player{i}" for i in range(1, players + 1))]
    for f, row in zip(sweep.fidelities, sweep.payoffs):
        lines.append(",".join(format(v, ".12g") for v in (f, *row)))
    return "\n".join(lines) + "\n"
