"""The dense density-matrix protocol, the reference the state-vector path is checked against.

Plain numpy on D x D matrices, with no validation of its own: a noisy state
f |psi><psi| + (1 - f)/D I, its conjugation by U_n (x) ... (x) U_1 (operator
lists player-n-first, as everywhere in the package), and the expected
payoff Tr(diag(p) rho) of a payoff row p.

Beside it, the ``full`` SU(2) and the SU(3) frame written out with their
phases through np.exp: the reference the package's factor-and-assembly
constructors must match bit for bit.
"""

from functools import reduce

import numpy as np


def tensor(ops):
    """U_n (x) ... (x) U_1 for a player-n-first list; the left factor is the high digit."""
    return reduce(np.kron, ops)


def density(amplitudes, fidelity=1.0):
    """f |psi><psi| + (1 - f)/D I."""
    amp = np.asarray(amplitudes)
    dim = amp.size
    return fidelity * np.outer(amp, amp.conj()) + (1.0 - fidelity) / dim * np.eye(dim)


def conjugate(ops, rho):
    """K rho K-dagger with K = tensor(ops)."""
    full = tensor(ops)
    return full @ rho @ full.conj().T


def expectation(p, rho):
    """Tr(diag(p) rho): the expected value of the payoff row p."""
    return float(np.real(np.einsum("i,ii->", p, rho)))


def su2_full(theta, alpha, beta):
    """U(theta, alpha, beta) by its defining formula, phases through np.exp."""
    t, a, b = np.broadcast_arrays(*(np.asarray(p, dtype=float) for p in (theta, alpha, beta)))
    cos, sin = np.cos(t / 2), np.sin(t / 2)
    out = np.empty(t.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.exp(1j * a) * cos
    out[..., 0, 1] = 1j * np.exp(1j * b) * sin
    out[..., 1, 0] = 1j * np.exp(-1j * b) * sin
    out[..., 1, 1] = np.exp(-1j * a) * cos
    return out


def su3_frame(phi, theta, chi, a1, a2, a3, b1, b2):
    """The frame (x, conj(y), conj(x) x y) by its defining formula, phases through np.exp."""
    phi, theta, chi, a1, a2, a3, b1, b2 = np.broadcast_arrays(
        *(np.asarray(p, dtype=float) for p in (phi, theta, chi, a1, a2, a3, b1, b2)))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    cos_theta, sin_theta = np.cos(theta), np.sin(theta)
    cos_chi, sin_chi = np.cos(chi), np.sin(chi)
    row1, row2, row3 = np.exp(1j * a1), np.exp(1j * a2), np.exp(1j * a3)
    beta1, beta2 = np.exp(-1j * b1), np.exp(-1j * b2)
    out = np.empty(phi.shape + (3, 3), dtype=complex)
    x1 = out[..., 0, 0] = sin_theta * cos_phi * row1
    x2 = out[..., 1, 0] = sin_theta * sin_phi * row2
    x3 = out[..., 2, 0] = cos_theta * row3
    w1 = out[..., 0, 1] = (cos_chi * cos_theta * cos_phi * beta1 + sin_chi * sin_phi * beta2) * row1
    w2 = out[..., 1, 1] = (cos_chi * cos_theta * sin_phi * beta1 - sin_chi * cos_phi * beta2) * row2
    w3 = out[..., 2, 1] = -cos_chi * sin_theta * beta1 * row3
    out[..., 0, 2] = (x2 * w3 - x3 * w2).conj()
    out[..., 1, 2] = (x3 * w1 - x1 * w3).conj()
    out[..., 2, 2] = (x1 * w2 - x2 * w1).conj()
    return out
