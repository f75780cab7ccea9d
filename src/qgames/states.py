"""Quantum states over n players with d choices each.

Conventions used everywhere in this package:

* Player ``i`` (1-based) occupies the i-th tensor factor counted from the
  RIGHT of a ket label.  A basis label like ``"120"`` on three qutrits means
  player 3 holds digit 1, player 2 holds digit 2, player 1 holds digit 0.
* The flat array index of a label is its base-d value read left to right,
  so player ``i`` contributes ``digit * d**(i-1)``.
* Operator lists passed to :func:`apply_local_pure` and
  :func:`conjugate_density` are ordered player-n-first, matching the tensor
  product U_n (x) U_{n-1} (x) ... (x) U_1.

The protocols in :mod:`qgames.games` run on state vectors.  The dense D x D
helpers here (:class:`DensityMatrix`, :func:`add_noise`,
:func:`conjugate_density`, :func:`expectation`, :func:`pure_to_density`) are
the independent reference that the tests and ``qgames verify`` check the
state-vector path against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .linalg import (
    ATOL_IDENTITY,
    as_matrix,
    frozen,
    hermitian_residual,
    kron_all,
    require_unitary,
)

# Largest total Hilbert dimension the package will build (3**9 = 19683).
DIMENSION_CAP = 3 ** 9

ATOL_NORM = 1e-9
ATOL_TRACE = 1e-9
ATOL_DIAG_NEGATIVE = 1e-9


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


def index_to_label(shape: SystemShape, index: int) -> tuple[int, ...]:
    if not 0 <= index < shape.dim:
        raise ValueError(f"index {index} out of range for dim {shape.dim}")
    digits = []
    for _ in range(shape.n):
        digits.append(index % shape.d)
        index //= shape.d
    return tuple(reversed(digits))


def label_string(digits: Sequence[int]) -> str:
    return "".join(str(int(d)) for d in digits)


def parse_label(shape: SystemShape, text: str) -> tuple[int, ...]:
    digits = tuple(int(ch) for ch in text)
    label_to_index(shape, digits)  # validates
    return digits


def labels(shape: SystemShape) -> Iterator[str]:
    """All basis labels as digit strings, in index order."""
    for index in range(shape.dim):
        yield label_string(index_to_label(shape, index))


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


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive (diagonal-checked) operator."""

    shape: SystemShape
    matrix: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.matrix, "density matrix")
        dim = self.shape.dim
        if mat.shape != (dim, dim):
            raise ValueError(f"density matrix shape {mat.shape} != ({dim}, {dim})")
        if hermitian_residual(mat) > ATOL_IDENTITY:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL_TRACE:
            raise ValueError(f"density matrix trace {tr} is not 1 within {ATOL_TRACE}")
        if float(np.min(mat.diagonal().real)) < -ATOL_DIAG_NEGATIVE:
            raise ValueError("density matrix has a negative diagonal element")
        object.__setattr__(self, "matrix", frozen(mat))


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


def _check_ops(ops: Sequence, shape: SystemShape, strict: bool) -> list[np.ndarray]:
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


def apply_local_pure(ops: Sequence, psi: PureState, strict: bool = True) -> PureState:
    """Apply per-player unitaries (player-n-first) to a pure state.

    The product (U_n (x) ... (x) U_1)|psi> is evaluated factor by factor on a
    reshaped amplitude tensor; the full dim x dim operator is never built.
    """
    shape = psi.shape
    mats = _check_ops(ops, shape, strict)
    tensor = psi.amplitudes.reshape((shape.d,) * shape.n)
    for axis, mat in enumerate(mats):
        tensor = np.moveaxis(np.tensordot(mat, tensor, axes=([1], [axis])), 0, axis)
    return PureState(shape, tensor.reshape(-1))


def conjugate_density(ops: Sequence, rho: DensityMatrix,
                      strict: bool = True) -> DensityMatrix:
    """Conjugate a density matrix by the tensor product of local unitaries."""
    shape = rho.shape
    mats = _check_ops(ops, shape, strict)
    full = kron_all(mats)
    return DensityMatrix(shape, full @ rho.matrix @ full.conj().T)


def pure_to_density(psi: PureState) -> DensityMatrix:
    amp = psi.amplitudes
    return DensityMatrix(psi.shape, np.outer(amp, amp.conj()))


def check_fidelity(fidelity: float) -> float:
    """The fidelity as a float; NaN and values outside [0, 1] are rejected."""
    f = float(fidelity)
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"fidelity must lie in [0, 1], got {f}")
    return f


def add_noise(psi: PureState, fidelity: float) -> DensityMatrix:
    """Mix a pure state with white noise: f |psi><psi| + (1-f)/D * I_D."""
    f = check_fidelity(fidelity)
    dim = psi.shape.dim
    amp = psi.amplitudes
    mat = f * np.outer(amp, amp.conj()) + (1.0 - f) / dim * np.eye(dim)
    return DensityMatrix(psi.shape, mat)


def expectation(rho: DensityMatrix, operator) -> float:
    """Tr(P rho) for a Hermitian operator P; the result must be real."""
    op = as_matrix(operator, "operator")
    dim = rho.shape.dim
    if op.shape != (dim, dim):
        raise ValueError(f"operator shape {op.shape} != ({dim}, {dim})")
    if hermitian_residual(op) > ATOL_IDENTITY:
        raise ValueError("expectation requires a Hermitian operator")
    value = complex(np.einsum("ij,ji->", op, rho.matrix))
    if abs(value.imag) >= 1e-9:
        raise ArithmeticError(
            f"expectation value has imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def outcome_probabilities(rho: DensityMatrix) -> dict[str, float]:
    """Measurement distribution over basis labels (the diagonal of rho)."""
    diag = rho.matrix.diagonal().real
    return {
        label: float(p) for label, p in zip(labels(rho.shape), diag)
    }
