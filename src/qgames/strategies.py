"""Parameterized families of local unitary strategies.

Five families are supported:

``full``    three-parameter SU(2): U(theta, alpha, beta)
``eisert``  two-parameter SU(2) subset used in the entangled dilemma protocol
``bit``     the classical one-bit operators {I, sigma_x}
``c3``      powers of the cyclic shift s on a qutrit, s|k> = |k+1 mod 3>
``su3``     eight-parameter SU(3) built from an orthonormal complex frame

All constructors return exactly unitary matrices up to floating point noise;
``full`` and ``su3`` additionally have determinant 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .states import unitarity_residual


class Family(str, Enum):
    FULL_SU2 = "full"
    EISERT_SU2 = "eisert"
    CLASSICAL_BIT = "bit"
    CYCLIC_C3 = "c3"
    FRAME_SU3 = "su3"


def _axes(lo: float, hi: float, *names: str) -> tuple[tuple[str, float, float], ...]:
    return tuple((name, lo, hi) for name in names)


# The one home of each continuous family's parameters: (name, lo, hi) in
# order.  The boxes, the constructors' range checks, the property draws of
# ``qgames verify`` and the solver's periodic axes all read it.
_PARAMETERS = {
    Family.FULL_SU2: _axes(0.0, math.pi, "theta") + _axes(-math.pi, math.pi, "alpha", "beta"),
    Family.EISERT_SU2: _axes(0.0, math.pi, "theta") + _axes(0.0, math.pi / 2, "alpha"),
    Family.FRAME_SU3: _axes(0.0, math.pi / 2, "phi", "theta", "chi")
    + _axes(0.0, 2 * math.pi, "alpha1", "alpha2", "alpha3", "beta1", "beta2"),
}

# the discrete families take one integer power
PARAM_COUNTS = {family: len(_PARAMETERS[family]) if family in _PARAMETERS else 1
                for family in Family}

LOCAL_DIMENSION = {
    Family.FULL_SU2: 2,
    Family.EISERT_SU2: 2,
    Family.CLASSICAL_BIT: 2,
    Family.CYCLIC_C3: 3,
    Family.FRAME_SU3: 3,
}

# Optimal symmetric strategies quoted by the protocols (see games/solver).
MINORITY_OPTIMAL_PARAMS = (math.pi / 2, -math.pi / 8, math.pi / 8)
PD_EQUILIBRIUM_PARAMS = (0.0, math.pi / 2)
KOLKATA_OPTIMAL_PARAMS = (
    math.pi / 4,
    math.acos(1.0 / math.sqrt(3.0)),
    math.pi / 4,
    5 * math.pi / 18,
    5 * math.pi / 18,
    5 * math.pi / 18,
    math.pi / 3,
    11 * math.pi / 6,
)

# Preset payoff-relevant starting points per family, used by search warm starts.
FAMILY_PRESETS = {
    Family.FULL_SU2: (MINORITY_OPTIMAL_PARAMS, (0.0, math.pi / 2, 0.0)),
    Family.EISERT_SU2: (PD_EQUILIBRIUM_PARAMS,),
    Family.FRAME_SU3: (KOLKATA_OPTIMAL_PARAMS,),
}


def parameter_box(family: Family) -> tuple[tuple[float, float], ...] | None:
    """Search box per parameter, or None for the discrete families."""
    if family not in _PARAMETERS:
        return None
    return tuple((lo, hi) for _, lo, hi in _PARAMETERS[family])


def _require_box(family: Family, params: Sequence[float]) -> None:
    """Reject a parameter outside its interval (1e-12 slack) or NaN."""
    for (name, lo, hi), value in zip(_PARAMETERS[family], params):
        value = float(value)
        if not lo - 1e-12 <= value <= hi + 1e-12:
            raise ValueError(f"{name}={value} outside [{lo:.6g}, {hi:.6g}]")


# --- SU(2) -----------------------------------------------------------------

def su2_full_batch(theta, alpha, beta) -> np.ndarray:
    """Vectorized three-parameter SU(2); returns shape (..., 2, 2).

    The parameters broadcast against each other.  Each cosine, sine and phase
    is taken on its own argument, so an open mesh costs one per axis point.
    """
    t, a, b = (np.asarray(p, dtype=float) for p in (theta, alpha, beta))
    cos, sin = np.cos(t / 2), np.sin(t / 2)
    out = np.empty(np.broadcast(t, a, b).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * a) * cos
    out[..., 0, 1] = 1j * np.exp(1j * b) * sin
    out[..., 1, 0] = 1j * np.exp(-1j * b) * sin
    out[..., 1, 1] = np.exp(-1j * a) * cos
    return out


def su2_full(theta: float, alpha: float, beta: float) -> np.ndarray:
    """General SU(2) operator U(theta, alpha, beta), parameters within
    ``parameter_box(Family.FULL_SU2)``."""
    _require_box(Family.FULL_SU2, (theta, alpha, beta))
    return su2_full_batch(theta, alpha, beta)


def su2_eisert_batch(theta, alpha) -> np.ndarray:
    """su2_full_batch(theta, alpha, 0.0); returns shape (..., 2, 2)."""
    return su2_full_batch(theta, alpha, 0.0)


def su2_eisert(theta: float, alpha: float) -> np.ndarray:
    """Two-parameter SU(2) subset: the phase-free-beta slice of su2_full.

    U(0, 0) is the identity, U(0, pi/2) = diag(i, -i), and U(pi, 0) is the
    bit flip up to a global phase (i * sigma_x).  This is the restricted
    strategy set under which the entangled dilemma protocol has its
    cooperative equilibrium.
    """
    _require_box(Family.EISERT_SU2, (theta, alpha))
    return su2_eisert_batch(theta, alpha)


_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(which: str) -> np.ndarray:
    key = which.strip().upper()
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli {which!r}; use I/X/Y/Z")
    return _PAULI[key].copy()


# --- qutrit shifts and SU(3) -------------------------------------------------

# Generator of the cyclic group C3: s|k> = |k+1 mod 3>.
_CYCLIC_S = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)


def cyclic_s(k: int) -> np.ndarray:
    """k-th power of the qutrit cyclic shift, k in {0, 1, 2}."""
    if k not in (0, 1, 2):
        raise ValueError(f"cyclic power must be 0, 1 or 2, got {k}")
    return np.linalg.matrix_power(_CYCLIC_S, k).astype(complex)


def su3_frame_batch(phi, theta, chi, a1, a2, a3, b1, b2) -> np.ndarray:
    """Vectorized SU(3) constructor; returns shape (..., 3, 3).

    The parameters broadcast against each other, and each cosine, sine and
    phase is taken on its own argument.  alpha_k is a phase on row k of the
    first two columns, and the third column is conj(x) x y written out
    component by component.
    """
    params = [np.asarray(p, dtype=float) for p in (phi, theta, chi, a1, a2, a3, b1, b2)]
    phi, theta, chi, a1, a2, a3, b1, b2 = params
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_theta, sin_theta = np.cos(theta), np.sin(theta)
    cos_chi, sin_chi = np.cos(chi), np.sin(chi)
    row1, row2, row3 = np.exp(1j * a1), np.exp(1j * a2), np.exp(1j * a3)
    beta1, beta2 = np.exp(-1j * b1), np.exp(-1j * b2)
    out = np.empty(np.broadcast(*params).shape + (3, 3), dtype=complex)
    x1 = out[..., 0, 0] = sin_theta * cos_phi * row1
    x2 = out[..., 1, 0] = sin_theta * sin_phi * row2
    x3 = out[..., 2, 0] = cos_theta * row3
    # column 2 is conj(y)
    w1 = out[..., 0, 1] = (cos_chi * cos_theta * cos_phi * beta1 + sin_chi * sin_phi * beta2) * row1
    w2 = out[..., 1, 1] = (cos_chi * cos_theta * sin_phi * beta1 - sin_chi * cos_phi * beta2) * row2
    w3 = out[..., 2, 1] = -cos_chi * sin_theta * beta1 * row3
    # conj(x) x y = conj(x x conj(y))
    out[..., 0, 2] = (x2 * w3 - x3 * w2).conj()
    out[..., 1, 2] = (x3 * w1 - x1 * w3).conj()
    out[..., 2, 2] = (x1 * w2 - x2 * w1).conj()
    return out


def su3_frame(phi, theta, chi, a1, a2, a3, b1, b2) -> np.ndarray:
    """SU(3) operator with columns (x, conj(y), cross(conj(x), y)).

    x and y are the unit vectors of the eight-parameter frame construction;
    the third column is the unique completion that makes the matrix special
    unitary.  The parameters lie within ``parameter_box(Family.FRAME_SU3)``.
    """
    _require_box(Family.FRAME_SU3, (phi, theta, chi, a1, a2, a3, b1, b2))
    out = su3_frame_batch(phi, theta, chi, a1, a2, a3, b1, b2)
    residual = unitarity_residual(out)
    if not residual < 1e-9:
        raise RuntimeError(
            f"frame construction produced a non-unitary matrix (residual {residual:.3e})"
        )
    return out


def classical_set(d: int) -> list[np.ndarray]:
    """The classical operator set: {I, sigma_x} for d=2, {s^0, s^1, s^2} for d=3."""
    if d == 2:
        return [pauli("I"), pauli("X")]
    if d == 3:
        return [cyclic_s(0), cyclic_s(1), cyclic_s(2)]
    raise ValueError(f"no classical operator set for local dimension {d}")


# --- StrategySpec and literals ----------------------------------------------

@dataclass(frozen=True)
class StrategySpec:
    """A named family plus its parameter list."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self):
        family = Family(self.family)
        params = tuple(float(p) for p in self.params)
        expected = PARAM_COUNTS[family]
        if len(params) != expected:
            raise ValueError(
                f"{family.value} takes {expected} parameters, got {len(params)}"
            )
        if family in (Family.CLASSICAL_BIT, Family.CYCLIC_C3):
            k = params[0]
            if k != int(k):
                raise ValueError(f"{family.value} parameter must be an integer")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    @property
    def local_dimension(self) -> int:
        return LOCAL_DIMENSION[self.family]

    def matrix(self) -> np.ndarray:
        if self.family == Family.FULL_SU2:
            return su2_full(*self.params)
        if self.family == Family.EISERT_SU2:
            return su2_eisert(*self.params)
        if self.family == Family.CLASSICAL_BIT:
            k = int(self.params[0])
            if k not in (0, 1):
                raise ValueError(f"bit strategy must be 0 or 1, got {k}")
            return classical_set(2)[k]
        if self.family == Family.CYCLIC_C3:
            return cyclic_s(int(self.params[0]))
        return su3_frame(*self.params)

    def literal(self) -> str:
        if self.family in (Family.CLASSICAL_BIT, Family.CYCLIC_C3):
            return f"{self.family.value}:{int(self.params[0])}"
        body = ",".join(format(p, ".12g") for p in self.params)
        return f"{self.family.value}:{body}"


_RADIAN_RE = re.compile(
    r"""^(?P<sign>[+-]?)
        (?:
            (?P<coeff>\d+(?:\.\d+)?)?pi(?:/(?P<den>\d+(?:\.\d+)?))?
          | (?P<plain>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
        )$""",
    re.VERBOSE,
)

_ACOS_TOKEN = "acos(1/sqrt3)"


def parse_radians(token: str) -> float:
    """Parse a radian literal: decimals, pi fractions, or acos(1/sqrt3).

    Accepted forms include ``0.5``, ``pi``, ``-pi/8``, ``11pi/6``,
    ``5pi/18`` and the special token ``acos(1/sqrt3)``.
    """
    text = token.strip().replace(" ", "")
    if text.lower() == _ACOS_TOKEN:
        return math.acos(1.0 / math.sqrt(3.0))
    match = _RADIAN_RE.match(text.lower())
    if match is None:
        raise ValueError(f"cannot parse radian value {token!r}")
    sign = -1.0 if match.group("sign") == "-" else 1.0
    if match.group("plain") is not None:
        return sign * float(match.group("plain"))
    coeff = float(match.group("coeff")) if match.group("coeff") else 1.0
    den = float(match.group("den")) if match.group("den") else 1.0
    return sign * coeff * math.pi / den


# Named parameter presets accepted in strategy literals.
LITERAL_PRESETS = {
    (Family.FRAME_SU3, "table2"): KOLKATA_OPTIMAL_PARAMS,
}


def parse_strategy(text: str) -> StrategySpec:
    """Parse a strategy literal like ``eisert:0,pi/2`` or ``su3:table2``."""
    if ":" not in text:
        raise ValueError(f"strategy literal {text!r} needs a family prefix")
    prefix, _, body = text.partition(":")
    try:
        family = Family(prefix.strip().lower())
    except ValueError:
        known = ", ".join(f.value for f in Family)
        raise ValueError(f"unknown strategy family {prefix!r}; known: {known}") from None
    body = body.strip()
    preset = LITERAL_PRESETS.get((family, body.lower()))
    if preset is not None:
        return StrategySpec(family, preset)
    if not body:
        raise ValueError(f"strategy literal {text!r} has no parameters")
    params = tuple(parse_radians(piece) for piece in body.split(","))
    return StrategySpec(family, params)
