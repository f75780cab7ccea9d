"""Quantum states over n players with d choices each.

Conventions used everywhere in this package:

* Player ``i`` (1-based) occupies the i-th tensor factor counted from the
  RIGHT of a ket label.  A basis label like ``"120"`` on three qutrits means
  player 3 holds digit 1, player 2 holds digit 2, player 1 holds digit 0.
* The flat array index of a label is its base-d value read left to right,
  so player ``i`` contributes ``digit * d**(i-1)``.
* Operator lists, in ``games.play_profile`` and the moves of
  ``games.protocol_amplitudes``, are ordered player-n-first, matching the
  tensor product U_n (x) U_{n-1} (x) ... (x) U_1.

Everything here works on state vectors; no D x D matrix is built.  White
noise enters the protocols in closed form (see :mod:`qgames.games`).  The
unitarity checks every local move passes through live here too: a move that
is not unitary within ``ATOL_UNITARY`` raises ``ValueError``.

Local moves act on the protocols' shared states in one place,
``games.protocol_amplitudes``: every shared state is sum_k c_k |k...k>, so
the amplitudes come in closed form, over any leading axes of profiles, and
no state is propagated here.  That core checks nothing; callers check their
operators once, :func:`check_ops` a profile in one stacked product.  Its
batched callers (deviation forms, embedding checks, the property suite of
``qgames verify``) keep each call's output, the largest array it builds, to
at most ``BATCH_BUDGET`` complex amplitudes (or one state, where a state is
larger), sized by :func:`batch_rows`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# Largest total Hilbert dimension the package will build (3**9 = 19683).
DIMENSION_CAP = 3 ** 9

ATOL_NORM = 1e-9
# Tolerance for accepting a matrix as unitary.
ATOL_UNITARY = 1e-9
# complex amplitudes per batch of the batched callers: 64 kB arrays, a working
# set that stays in cache and off the process's peak memory
BATCH_BUDGET = 1 << 12


def batch_rows(width: int) -> int:
    """Rows of ``width`` complex amplitudes per batch under ``BATCH_BUDGET``."""
    return max(1, BATCH_BUDGET // width)


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only complex copy so values can be shared safely."""
    out = np.array(a, dtype=complex, copy=True)
    out.setflags(write=False)
    return out


def unitarity_residuals(mats) -> np.ndarray:
    """max |U-dagger U - I| of each matrix in a (..., k, k) stack, in one product."""
    mats = np.asarray(mats, dtype=complex)
    products = mats.conj().swapaxes(-1, -2) @ mats
    return np.max(np.abs(products - np.eye(mats.shape[-1])), axis=(-2, -1))


def unitarity_residual(u) -> float:
    """max |U-dagger U - I|, the deviation of U from unitarity."""
    um = np.asarray(u, dtype=complex)
    square = um.ndim == 2 and um.shape[0] == um.shape[1]
    return float(unitarity_residuals(um)) if square else float("inf")


def _require_residual(residual: float, name: str) -> None:
    if not residual < ATOL_UNITARY:  # NaN fails too: ``nan < atol`` is False
        raise ValueError(
            f"{name} is not unitary (residual {residual:.3e} >= {ATOL_UNITARY:.0e})")


def require_unitary(u, name: str = "operator") -> np.ndarray:
    """U as a complex array; raises ValueError unless it is a unitary matrix."""
    um = np.asarray(u, dtype=complex)
    if um.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {um.shape}")
    _require_residual(unitarity_residual(um), name)
    return um


@dataclass(frozen=True)
class SystemShape:
    """n subsystems (players), each of local dimension d (choices)."""

    n: int
    d: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one player, got n={self.n}")
        if self.d < 2:
            raise ValueError(f"local dimension must be >= 2, got d={self.d}")
        # multiplied up to the cap, so a huge n costs no more than a small one
        dim = 1
        for _ in range(self.n):
            dim *= self.d
            if dim > DIMENSION_CAP:
                raise ValueError(
                    f"total dimension {self.d}**{self.n} exceeds cap {DIMENSION_CAP}"
                )

    @property
    def dim(self) -> int:
        return self.d ** self.n


def labels(shape: SystemShape) -> Iterator[str]:
    """All basis labels as digit strings, in index order."""
    # the first digit is player n's, the most significant
    digits = [str(k) for k in range(shape.d)]
    return map("".join, itertools.product(digits, repeat=shape.n))


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over ``shape.dim`` basis states."""

    shape: SystemShape
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.shape.dim:
            raise ValueError(
                f"amplitude count {amp.size} does not match dim {self.shape.dim}"
            )
        nrm = float(np.linalg.norm(amp))
        if not abs(nrm - 1.0) <= ATOL_NORM:  # NaN fails too
            raise ValueError(f"state norm {nrm} is not 1 within {ATOL_NORM}")
        object.__setattr__(self, "amplitudes", frozen(amp))


def ghz(shape: SystemShape) -> PureState:
    """Maximally entangled shared state (sum_k |k...k>)/sqrt(d)."""
    amp = np.zeros(shape.dim, dtype=complex)
    step = (shape.dim - 1) // (shape.d - 1)  # index stride between |k...k> kets
    weight = 1.0 / math.sqrt(shape.d)
    for k in range(shape.d):
        amp[k * step] = weight
    return PureState(shape, amp)


def check_ops(ops: Sequence, shape: SystemShape) -> np.ndarray:
    """Validate one player-n-first operator profile and return it as one (n, d, d)
    stack.  A well-shaped unitary profile costs one stacked residual product;
    otherwise each player is checked in profile order and the first fault
    raises ValueError, naming the player."""
    if len(ops) != shape.n:
        raise ValueError(f"need {shape.n} local operators, got {len(ops)}")
    side = (shape.d, shape.d)
    mats = [np.asarray(op, dtype=complex) for op in ops]
    well_shaped = all(m.shape == side for m in mats)
    stack = np.array(mats if well_shaped else
                     [m if m.shape == side else np.eye(shape.d) for m in mats])
    residuals = unitarity_residuals(stack)
    if not (well_shaped and residuals.max() < ATOL_UNITARY):  # NaN fails too
        for k, (mat, residual) in enumerate(zip(mats, residuals)):
            name = f"operator for player {shape.n - k}"
            if mat.ndim != 2:
                raise ValueError(f"{name} must be 2-dimensional, got shape {mat.shape}")
            fits = mat.shape == side
            _require_residual(residual if fits else unitarity_residual(mat), name)
            if not fits:
                raise ValueError(f"local operator shape {mat.shape} != {side}")
    return stack


def check_fidelity(fidelity: float) -> float:
    """The fidelity as a float; NaN and values outside [0, 1] are rejected."""
    f = float(fidelity)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    return f
