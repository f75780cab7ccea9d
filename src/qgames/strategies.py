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

import numpy as np

from .states import unitarity_residual


class Family(str, Enum):
    FULL_SU2 = "full"
    EISERT_SU2 = "eisert"
    CLASSICAL_BIT = "bit"
    CYCLIC_C3 = "c3"
    FRAME_SU3 = "su3"


PARAM_COUNTS = {
    Family.FULL_SU2: 3,
    Family.EISERT_SU2: 2,
    Family.CLASSICAL_BIT: 1,
    Family.CYCLIC_C3: 1,
    Family.FRAME_SU3: 8,
}

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
    if family == Family.FULL_SU2:
        return ((0.0, math.pi), (-math.pi, math.pi), (-math.pi, math.pi))
    if family == Family.EISERT_SU2:
        return ((0.0, math.pi), (0.0, math.pi / 2))
    if family == Family.FRAME_SU3:
        return tuple([(0.0, math.pi / 2)] * 3 + [(0.0, 2 * math.pi)] * 5)
    return None


def _require_range(value: float, lo: float, hi: float, name: str) -> None:
    if not lo - 1e-12 <= value <= hi + 1e-12:
        raise ValueError(f"{name}={value} outside [{lo:.6g}, {hi:.6g}]")


# --- factors and assembly --------------------------------------------------
#
# Each continuous family's matrix is assembled from per-parameter factors: the
# cosine and sine of an angle (of theta / 2 for SU(2)) and unit phases.  A
# phase e^{ix} is cos x + 1j sin x, equal bit for bit to np.exp(1j * x), signed
# zeros included, so a grid can build the factors of its axis points once and
# gather them, and every caller of the builders gets the same values.

# per family: the parameters that enter as (cos, sin), then those that enter
# as e^{ix} and as e^{-ix}; SU(2)'s angle theta enters as theta / 2
_LAYOUT = {
    Family.FULL_SU2: (slice(0, 1), slice(1, 3), slice(1, 3)),
    Family.EISERT_SU2: (slice(0, 1), slice(1, 2), slice(1, 2)),
    Family.FRAME_SU3: (slice(0, 3), slice(3, 6), slice(6, 8)),
}
_HALF_ANGLES = (Family.FULL_SU2, Family.EISERT_SU2)


def _continuous(family) -> Family:
    family = Family(family)
    if family not in _LAYOUT:
        raise ValueError(f"{family.value} is not a continuous family")
    return family


def _unit_phases(x: np.ndarray, sign: int) -> np.ndarray:
    """e^{sign i x} as cos x + sign i sin x, bit for bit np.exp(sign * 1j * x).

    The exponent sign * 1j * x has imaginary part 0.0 + x or -x, so exp
    takes the sine of +0.0 at x = -0.0 for sign = 1; the sine is odd.
    """
    out = np.empty(x.shape, dtype=complex)
    np.cos(x, out=out.real)
    np.sin(x, out=out.imag)
    if sign > 0:
        out.imag += 0.0
    else:
        np.negative(out.imag, out=out.imag)
    return out


def factors(family: Family, params) -> list[tuple[np.ndarray, ...]]:
    """One tuple of factors per parameter, from the (k, ...) array of their values.

    An angle gives (cos, sin), of half the angle for SU(2)'s theta; a phase
    gives e^{ix} or e^{-ix}, or both for SU(2).  ``assemble`` builds the
    matrices from them.
    """
    return _factors(_continuous(family), np.array(params, dtype=float))


def _factors(family: Family, values: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """``factors`` of a float (k, ...) array that it may overwrite."""
    angle, up, down = _LAYOUT[family]
    angles = values[angle]
    if family in _HALF_ANGLES:
        angles /= 2
    # each table holds only the parameters that enter the matrix through it
    cos, sin = np.cos(angles), np.sin(angles)
    ups, downs = _unit_phases(values[up], 1), _unit_phases(values[down], -1)
    if up == down:  # SU(2): each phase enters as e^{ix} and as e^{-ix}
        return [*zip(cos, sin), *zip(ups, downs)]
    return [*zip(cos, sin), *zip(ups), *zip(downs)]


def _su2_assemble(cos, sin, row, row_conj, col, col_conj) -> np.ndarray:
    out = np.empty(np.broadcast(cos, sin, row, col).shape + (2, 2), dtype=complex)
    out[..., 0, 0] = row * cos
    out[..., 0, 1] = 1j * col * sin
    out[..., 1, 0] = 1j * col_conj * sin
    out[..., 1, 1] = row_conj * cos
    return out


# beta = 0 of the eisert slice: e^{i0} and e^{-i0} as np.exp gives them
_EISERT_BETA = (np.complex128(1.0), np.complex128(complex(1.0, -0.0)))


def _su3_assemble(cos_phi, sin_phi, cos_theta, sin_theta, cos_chi, sin_chi,
                  row1, row2, row3, beta1, beta2) -> np.ndarray:
    """The frame (x, conj(y), conj(x) x y): alpha_k is a phase on row k of the
    first two columns, and the third column is written out component by
    component."""
    shape = np.broadcast(cos_phi, cos_theta, cos_chi, row1, row2, row3, beta1, beta2).shape
    out = np.empty(shape + (3, 3), dtype=complex)
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


def assemble(family: Family, factors) -> np.ndarray:
    """Strategy matrices (..., d, d) from one tuple of ``factors`` per parameter.

    The factors broadcast against each other.
    """
    return _assemble(_continuous(family), factors)


def _assemble(family: Family, factors) -> np.ndarray:
    flat = [f for per_parameter in factors for f in per_parameter]
    if family == Family.FULL_SU2:
        return _su2_assemble(*flat)
    if family == Family.EISERT_SU2:
        return _su2_assemble(*flat, *_EISERT_BETA)
    return _su3_assemble(*flat)


def _build(family: Family, params) -> np.ndarray:
    """Factors, then assembly, of parameters broadcast to one shape."""
    values = np.empty((len(params),) + np.broadcast(*params).shape)
    for i, p in enumerate(params):
        values[i] = p
    per_parameter = _factors(family, values)
    del values  # the factors hold no view of it: freed before the assembly
    return _assemble(family, per_parameter)


# --- SU(2) -----------------------------------------------------------------

def su2_full_batch(theta, alpha, beta) -> np.ndarray:
    """Vectorized three-parameter SU(2); returns shape (..., 2, 2)."""
    return _build(Family.FULL_SU2, (theta, alpha, beta))


def su2_full(theta: float, alpha: float, beta: float) -> np.ndarray:
    """General SU(2) operator U(theta, alpha, beta): theta in [0, pi], alpha and
    beta in [-pi, pi]."""
    _require_range(theta, 0.0, math.pi, "theta")
    _require_range(alpha, -math.pi, math.pi, "alpha")
    _require_range(beta, -math.pi, math.pi, "beta")
    return su2_full_batch(theta, alpha, beta)


def su2_eisert_batch(theta, alpha) -> np.ndarray:
    """su2_full_batch(theta, alpha, 0.0); returns shape (..., 2, 2)."""
    return _build(Family.EISERT_SU2, (theta, alpha))


def su2_eisert(theta: float, alpha: float) -> np.ndarray:
    """Two-parameter SU(2) subset: the phase-free-beta slice of su2_full.

    U(0, 0) is the identity, U(0, pi/2) = diag(i, -i), and U(pi, 0) is the
    bit flip up to a global phase (i * sigma_x).  This is the restricted
    strategy set under which the entangled dilemma protocol has its
    cooperative equilibrium.
    """
    _require_range(theta, 0.0, math.pi, "theta")
    _require_range(alpha, 0.0, math.pi / 2, "alpha")
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

    Each sine, cosine and phase is computed once, and ``assemble`` builds
    the frame from them.
    """
    return _build(Family.FRAME_SU3, (phi, theta, chi, a1, a2, a3, b1, b2))


def su3_frame(phi, theta, chi, a1, a2, a3, b1, b2) -> np.ndarray:
    """SU(3) operator with columns (x, conj(y), cross(conj(x), y)).

    x and y are the unit vectors of the eight-parameter frame construction;
    the third column is the unique completion that makes the matrix special
    unitary.  phi, theta, chi lie in [0, pi/2]; the alphas and betas in
    [0, 2*pi].
    """
    for name, value in (("phi", phi), ("theta", theta), ("chi", chi)):
        _require_range(float(value), 0.0, math.pi / 2, name)
    for name, value in (
        ("alpha1", a1), ("alpha2", a2), ("alpha3", a3), ("beta1", b1), ("beta2", b2)
    ):
        _require_range(float(value), 0.0, 2 * math.pi, name)
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
