"""Quantum states over n players with d choices each.

Conventions used everywhere in this package:

* Player ``i`` (1-based) occupies the i-th tensor factor counted from the
  RIGHT of a ket label.  A basis label like ``"120"`` on three qutrits means
  player 3 holds digit 1, player 2 holds digit 2, player 1 holds digit 0.
* The flat array index of a label is its base-d value read left to right,
  so player ``i`` contributes ``digit * d**(i-1)``.
* Operator lists, in ``games.play_profile`` and in each profile of
  :func:`apply_local_batch`, are ordered player-n-first, matching the tensor
  product U_n (x) U_{n-1} (x) ... (x) U_1.

Everything here works on state vectors; no D x D matrix is built.  White
noise enters the protocols in closed form (see :mod:`qgames.games`).  The
unitarity checks every local move passes through live here too.

:func:`apply_local_batch` is the one propagation kernel: a batch of
per-player operator profiles applied to a batch of states, one batched
matmul per player, with no unitarity check (its callers check their
operators once, :func:`check_ops` for a single profile).  Every play,
deviation form and embedding check reaches it through
``games.protocol_amplitudes``; the property suite of ``qgames verify``
calls it directly.  The batched callers split their work into batches of at
most ``BATCH_BUDGET`` complex amplitudes, sized by :func:`batch_rows`.
"""

from __future__ import annotations

import itertools
import math
import warnings
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


def unitarity_residual(u) -> float:
    """max |U-dagger U - I|, the deviation of U from unitarity."""
    um = np.asarray(u, dtype=complex)
    if um.ndim != 2 or um.shape[0] != um.shape[1]:
        return float("inf")
    return float(np.max(np.abs(um.conj().T @ um - np.eye(um.shape[0]))))


def require_unitary(u, atol: float = ATOL_UNITARY, strict: bool = True,
                    name: str = "operator") -> np.ndarray:
    """Validate unitarity; raise in strict mode, warn in lenient mode."""
    um = np.asarray(u, dtype=complex)
    if um.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {um.shape}")
    residual = unitarity_residual(um)
    if residual >= atol:
        message = f"{name} is not unitary (residual {residual:.3e} >= {atol:.0e})"
        if strict:
            raise ValueError(message)
        warnings.warn(message, stacklevel=2)
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
        if self.d ** self.n > DIMENSION_CAP:
            raise ValueError(
                f"total dimension {self.d}**{self.n} exceeds cap {DIMENSION_CAP}"
            )

    @property
    def dim(self) -> int:
        return self.d ** self.n


def label_to_index(shape: SystemShape, digits: Sequence[int]) -> int:
    """Flat index of a player-n-first digit sequence."""
    if len(digits) != shape.n:
        raise ValueError(f"label needs {shape.n} digits, got {len(digits)}")
    index = 0
    for digit in digits:
        if not 0 <= int(digit) < shape.d:
            raise ValueError(f"digit {digit} out of range for d={shape.d}")
        index = index * shape.d + int(digit)
    return index


def parse_label(shape: SystemShape, text: str) -> tuple[int, ...]:
    digits = tuple(int(ch) for ch in text)
    label_to_index(shape, digits)  # validates
    return digits


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
        if abs(nrm - 1.0) > ATOL_NORM:
            raise ValueError(f"state norm {nrm} is not 1 within {ATOL_NORM}")
        object.__setattr__(self, "amplitudes", frozen(amp))


def basis_state(shape: SystemShape, digits: Sequence[int] | str) -> PureState:
    """Computational basis ket |x_n ... x_1> for the given digit label."""
    if isinstance(digits, str):
        digits = parse_label(shape, digits)
    amp = np.zeros(shape.dim, dtype=complex)
    amp[label_to_index(shape, digits)] = 1.0
    return PureState(shape, amp)


def ghz(shape: SystemShape, phase: float = 0.0) -> PureState:
    """Maximally entangled shared state (sum_k |k...k>)/sqrt(d).

    For qubits the second branch picks up ``exp(i*phase)``:
    (|0...0> + e^{i phase}|1...1>)/sqrt(2).  For d >= 3 the state is defined
    with uniform positive amplitudes and a nonzero phase is rejected.
    """
    if shape.d > 2 and phase != 0.0:
        raise ValueError("a GHZ phase is only defined for qubit systems (d=2)")
    amp = np.zeros(shape.dim, dtype=complex)
    step = (shape.dim - 1) // (shape.d - 1)  # index stride between |k...k> kets
    weight = 1.0 / math.sqrt(shape.d)
    for k in range(shape.d):
        amp[k * step] = weight
    if shape.d == 2 and phase != 0.0:
        amp[shape.dim - 1] = weight * complex(math.cos(phase), math.sin(phase))
    return PureState(shape, amp)


_BELL_KINDS = {
    "phi+": ((0, 3), 1.0),
    "phi-": ((0, 3), -1.0),
    "psi+": ((1, 2), 1.0),
    "psi-": ((1, 2), -1.0),
}


def bell(kind: str) -> PureState:
    """One of the four two-qubit Bell states: phi+/phi-/psi+/psi-."""
    key = kind.strip().lower().replace("−", "-")
    if key not in _BELL_KINDS:
        raise ValueError(f"unknown Bell state {kind!r}; use phi+/phi-/psi+/psi-")
    (first, second), sign = _BELL_KINDS[key]
    amp = np.zeros(4, dtype=complex)
    amp[first] = 1.0 / math.sqrt(2)
    amp[second] = sign / math.sqrt(2)
    return PureState(SystemShape(2, 2), amp)


def check_ops(ops: Sequence, shape: SystemShape, strict: bool) -> list[np.ndarray]:
    """Validate one player-n-first operator profile; raise or warn per ``strict``."""
    if len(ops) != shape.n:
        raise ValueError(f"need {shape.n} local operators, got {len(ops)}")
    checked = []
    for k, op in enumerate(ops):
        mat = require_unitary(op, strict=strict, name=f"operator for player {shape.n - k}")
        if mat.shape != (shape.d, shape.d):
            raise ValueError(
                f"local operator shape {mat.shape} != ({shape.d}, {shape.d})"
            )
        checked.append(mat)
    return checked


def apply_local_batch(ops: np.ndarray, amplitudes: np.ndarray, d: int) -> np.ndarray:
    """(U_n (x) ... (x) U_1)|psi> for a batch of profiles and states.

    ``ops`` is (B, n, d, d), each profile player-n-first; ``amplitudes`` is
    (B, d**n) or broadcasts to it.  Returns the (B, d**n) moved amplitudes.
    The operators are not checked.
    """
    count, n = ops.shape[:2]
    amplitudes = np.broadcast_to(amplitudes, (count, d ** n))
    for axis in range(n):
        # player n - axis acts on tensor axis ``axis``
        amplitudes = ops[:, axis, None] @ amplitudes.reshape(count, d ** axis, d, -1)
    return amplitudes.reshape(count, d ** n)


def check_fidelity(fidelity: float) -> float:
    """The fidelity as a float; NaN and values outside [0, 1] are rejected."""
    f = float(fidelity)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    return f
