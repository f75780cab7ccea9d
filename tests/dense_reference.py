"""The dense density-matrix protocol, the reference the state-vector path is checked against.

Plain numpy on D x D matrices, with no validation of its own: a noisy state
f |psi><psi| + (1 - f)/D I, its conjugation by U_n (x) ... (x) U_1 (operator
lists player-n-first, as everywhere in the package), and the expected
payoff Tr(diag(p) rho) of a payoff row p.
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
