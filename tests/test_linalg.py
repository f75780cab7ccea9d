"""Linear algebra the cross-checks rest on.

The tensor order, conjugation, traces and projectors of the dense reference
(``dense_reference``), and the unitarity checks in :mod:`qgames.states`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from qgames.states import require_unitary, unitarity_residual, unitarity_residuals
from qgames.strategies import cyclic_s, pauli, su2_full

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.diag([1.0, 0.0])


def random_unitary(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestMatmul:
    """Conjugation K rho K-dagger of the dense reference."""

    def test_identity(self):
        rho = dense.density(np.array([0.6, 0.8j]), 0.3)
        np.testing.assert_array_equal(dense.conjugate([I2], rho), rho)

    def test_bit_flip_involution(self):
        rho = dense.density(np.array([0.6, 0.8j]), 0.3)
        np.testing.assert_array_equal(dense.conjugate([X], dense.conjugate([X], rho)), rho)

    def test_xz_hand_expansion(self):
        # X (x) Z sends |00> to |10> up to sign: |00><00| becomes |10><10|
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        np.testing.assert_array_equal(dense.conjugate([X, Z], np.diag([1.0, 0, 0, 0])),
                                      expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dense.conjugate([I2], np.eye(3) / 3)


class TestKron:
    """The reference's tensor product: player n is the left, high-digit factor."""

    def test_identity(self):
        np.testing.assert_array_equal(dense.tensor([I2, I2]), np.eye(4))

    def test_basis_ket_order(self):
        # |1> (x) |0> must land at index 2: the left factor is the high digit
        ket1 = np.array([[0.0], [1.0]])
        ket0 = np.array([[1.0], [0.0]])
        product = dense.tensor([ket1, ket0]).reshape(-1)
        np.testing.assert_array_equal(product, [0, 0, 1, 0])

    def test_double_flip(self):
        ket00 = np.zeros(4)
        ket00[0] = 1
        np.testing.assert_allclose(dense.tensor([X, X]) @ ket00, [0, 0, 0, 1], atol=1e-15)

    def test_associativity_exact_on_integer_entries(self):
        a, b, c = pauli("X"), pauli("Z"), cyclic_s(1)
        np.testing.assert_array_equal(dense.tensor([a, b, c]),
                                      dense.tensor([a, dense.tensor([b, c])]))
        np.testing.assert_array_equal(dense.tensor([a, b, c]),
                                      dense.tensor([dense.tensor([a, b]), c]))

    def test_associativity_random(self):
        # float multiplication regroups, so allow one ulp of slack here
        rng = np.random.default_rng(3)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        np.testing.assert_allclose(dense.tensor([a, b, c]),
                                   dense.tensor([a, dense.tensor([b, c])]),
                                   rtol=1e-15, atol=1e-15)

    def test_dagger_distributes(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_array_equal(dense.tensor([a, b]).conj().T,
                                      dense.tensor([a.conj().T, b.conj().T]))


class TestDagger:
    """``unitarity_residual``: max |U-dagger U - I|."""

    def test_identity(self):
        assert unitarity_residual(np.eye(3)) == 0.0

    def test_hermitian_pauli(self):
        for name in "IXYZ":
            assert unitarity_residual(pauli(name)) == 0.0
        assert unitarity_residual(np.diag([1.0, 2.0])) == 3.0
        assert unitarity_residual(np.ones((2, 3))) == float("inf")

    def test_unitarity_of_parameterized_operators(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            u = su2_full(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                         rng.uniform(-np.pi, np.pi))
            assert unitarity_residual(u) < 1e-12


class TestTrace:
    """Tr(diag(p) rho) of the dense reference; unit weights give the trace."""

    def test_identity(self):
        assert dense.expectation(np.ones(4), np.eye(4)) == 4

    def test_rank_one_projector(self):
        ket = np.zeros(4)
        ket[0] = 1
        assert dense.expectation(np.ones(4), dense.density(ket)) == 1

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            dense.expectation(np.ones(2), np.ones((2, 3)))

    def test_cyclic_property(self):
        # Tr(a rho a^-1) = Tr(rho) for any invertible a, and Tr(diag(p) rho)
        # reads only the diagonal of rho
        rng = np.random.default_rng(6)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = dense.density(random_unitary(rng, 4)[:, 0], float(rng.uniform(0, 1)))
            p = rng.uniform(0, 5, 4)
            moved = a @ rho @ np.linalg.inv(a)
            assert abs(dense.expectation(np.ones(4), moved) - 1.0) < 1e-12
            assert abs(dense.expectation(p, np.diag(np.diag(rho)))
                       - dense.expectation(p, rho)) < 1e-12


class TestOuter:
    """The pure limit of the reference's noisy state is the projector |psi><psi|."""

    def test_ground_projector(self):
        np.testing.assert_array_equal(dense.density(np.array([1.0, 0.0])), KET0)

    def test_projector_idempotent(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        p = dense.density(v)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)

    def test_bell_projector_corners(self):
        # hand expansion: (|00>+|11>)/sqrt(2) gives 1/2 at the four corners
        bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
        p = dense.density(bell)
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(p, expected, atol=1e-15)


class TestUnitarityHelpers:
    def test_residual_of_unitary(self):
        rng = np.random.default_rng(8)
        u = random_unitary(rng, 3)
        assert unitarity_residual(u) < 1e-12

    def test_require_unitary_strict(self):
        with pytest.raises(ValueError, match="not unitary"):
            require_unitary(np.diag([1.0, 2.0]))
        with pytest.raises(ValueError, match="must be 2-dimensional"):
            require_unitary(np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_operator_is_not_unitary(self, bad):
        # a NaN residual fails the check: ``nan < atol`` is False
        op = np.array([[bad, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"not unitary \(residual nan >= 1e-09\)"):
            require_unitary(op)

    def test_stacked_residuals_equal_the_scalar_ones(self):
        rng = np.random.default_rng(9)
        mats = np.stack([random_unitary(rng, 3) for _ in range(5)] + [np.diag([1.0, 2.0, 1.0])])
        stacked = unitarity_residuals(mats)
        assert stacked.shape == (6,)
        assert stacked.tolist() == [unitarity_residual(m) for m in mats]
        assert stacked[-1] == 3.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0, np.pi, allow_nan=False),
        st.floats(-np.pi, np.pi, allow_nan=False),
        st.floats(-np.pi, np.pi, allow_nan=False),
    )
    def test_norm_preserved_by_unitaries(self, theta, alpha, beta):
        u = su2_full(theta, alpha, beta)
        v = np.array([0.6, 0.8j])
        assert abs(np.linalg.norm(u @ v) - 1.0) < 1e-12
