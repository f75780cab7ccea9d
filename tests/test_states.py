import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from qgames.games import kolkata, minority, play_profile, play_symmetric
from qgames.states import (
    ATOL_UNITARY,
    PureState,
    SystemShape,
    apply_local_batch,
    basis_state,
    bell,
    check_fidelity,
    check_ops,
    ghz,
    label_to_index,
    labels,
    parse_label,
    unitarity_residual,
)
from qgames.strategies import cyclic_s, pauli, su2_full, su3_frame

X = pauli("X")
I2 = pauli("I")


def random_state(rng, shape):
    raw = rng.standard_normal(shape.dim) + 1j * rng.standard_normal(shape.dim)
    return PureState(shape, raw / np.linalg.norm(raw))


def random_su2(rng):
    return su2_full(rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi),
                    rng.uniform(-np.pi, np.pi))


def random_su3(rng):
    return su3_frame(*rng.uniform(0, np.pi / 2, 3), *rng.uniform(0, 2 * np.pi, 5))


def moved(ops, psi):
    """(U_n (x) ... (x) U_1)|psi> for one player-n-first profile, through the kernel."""
    return apply_local_batch(np.stack(ops)[None], psi.amplitudes, psi.shape.d)[0]


class TestShapeAndLabels:
    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            SystemShape(0, 2)
        with pytest.raises(ValueError):
            SystemShape(2, 1)
        with pytest.raises(ValueError):
            SystemShape(10, 3)  # 3**10 exceeds the dimension cap

    def test_label_round_trip(self):
        shape = SystemShape(3, 3)
        texts = list(labels(shape))
        assert len(texts) == shape.dim
        for index, text in enumerate(texts):
            assert label_to_index(shape, parse_label(shape, text)) == index

    def test_index_arithmetic_oracle(self):
        # player i contributes digit * d**(i-1); recompute positionally
        shape = SystemShape(3, 3)
        digits = (1, 2, 0)  # player 3, player 2, player 1
        by_hand = 0 * 1 + 2 * 3 + 1 * 9
        assert label_to_index(shape, digits) == by_hand == 15

    def test_out_of_range_digit(self):
        with pytest.raises(ValueError):
            label_to_index(SystemShape(2, 2), (0, 2))


class TestBasisState:
    def test_two_qubit_column_vector(self):
        psi = basis_state(SystemShape(2, 2), "10")
        np.testing.assert_array_equal(psi.amplitudes, [0, 0, 1, 0])

    def test_single_qutrit(self):
        psi = basis_state(SystemShape(1, 3), "2")
        np.testing.assert_array_equal(psi.amplitudes, [0, 0, 1])

    def test_three_qutrits(self):
        psi = basis_state(SystemShape(3, 3), "120")
        assert psi.amplitudes[15] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1


class TestGhzAndBell:
    def test_two_qubit_ghz_is_bell(self):
        np.testing.assert_allclose(
            ghz(SystemShape(2, 2)).amplitudes, bell("phi+").amplitudes, atol=1e-15
        )

    def test_four_qubit_ghz(self):
        psi = ghz(SystemShape(4, 2))
        expected = np.zeros(16)
        expected[0] = expected[15] = 1 / math.sqrt(2)
        np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)

    def test_qubit_phase(self):
        psi = ghz(SystemShape(2, 2), phase=math.pi / 2)
        assert abs(psi.amplitudes[3] - 1j / math.sqrt(2)) < 1e-15

    def test_qutrit_ghz_uniform(self):
        psi = ghz(SystemShape(3, 3))
        nonzero = np.flatnonzero(psi.amplitudes)
        np.testing.assert_array_equal(nonzero, [0, 13, 26])
        np.testing.assert_allclose(psi.amplitudes[nonzero], 1 / math.sqrt(3))

    def test_qutrit_phase_rejected(self):
        with pytest.raises(ValueError):
            ghz(SystemShape(3, 3), phase=0.3)

    def test_bell_states(self):
        np.testing.assert_allclose(
            bell("phi-").amplitudes, np.array([1, 0, 0, -1]) / math.sqrt(2)
        )
        np.testing.assert_allclose(
            bell("psi+").amplitudes, np.array([0, 1, 1, 0]) / math.sqrt(2)
        )
        with pytest.raises(ValueError):
            bell("sigma+")

    def test_bell_reduced_density_oracle(self):
        # partial trace over the second qubit computed by explicit summation
        for kind in ("phi+", "phi-", "psi+", "psi-"):
            amp = bell(kind).amplitudes.reshape(2, 2)
            reduced = np.einsum("ij,kj->ik", amp, amp.conj())
            np.testing.assert_allclose(np.diag(reduced).real, [0.5, 0.5], atol=1e-15)
            assert abs(np.linalg.norm(bell(kind).amplitudes) - 1) < 1e-15


class TestLocalOperations:
    def test_identity_leaves_state(self):
        psi = ghz(SystemShape(3, 2))
        np.testing.assert_allclose(moved([I2, I2, I2], psi), psi.amplitudes, atol=1e-15)

    def test_double_flip(self):
        psi = basis_state(SystemShape(2, 2), "00")
        np.testing.assert_allclose(moved([X, X], psi), [0, 0, 0, 1], atol=1e-15)

    def test_qutrit_shift_profile(self):
        # s^1 (x) s^2 (x) s^0 |000> = |120>
        psi = basis_state(SystemShape(3, 3), "000")
        np.testing.assert_allclose(
            moved([cyclic_s(1), cyclic_s(2), cyclic_s(0)], psi),
            basis_state(SystemShape(3, 3), "120").amplitudes,
            atol=1e-15,
        )

    def test_matches_explicit_kronecker(self):
        rng = np.random.default_rng(11)
        shape = SystemShape(3, 2)
        psi = random_state(rng, shape)
        ops = [random_su2(rng) for _ in range(3)]
        full = np.kron(np.kron(ops[0], ops[1]), ops[2])
        np.testing.assert_allclose(moved(ops, psi), full @ psi.amplitudes, atol=1e-12)

    def test_non_unitary_rejected_and_lenient(self):
        bad = np.array([[1.0, 0.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not unitary"):
            play_profile(minority(2), [bad, I2])
        with pytest.warns(UserWarning, match="not unitary"):
            with pytest.raises(ValueError, match="state norm"):
                # lenient mode only warns; the broken norm still fails
                play_profile(minority(2), [bad, I2], strict=False)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_norm_preservation(self, seed):
        rng = np.random.default_rng(seed)
        shape = SystemShape(3, 2)
        psi = random_state(rng, shape)
        out = moved([random_su2(rng) for _ in range(3)], psi)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-9


class TestApplyLocalBatch:
    @pytest.mark.parametrize("n, d", [(1, 2), (1, 3), (2, 2), (4, 2), (3, 3), (6, 3), (11, 2)])
    def test_matches_dense_reference(self, n, d):
        rng = np.random.default_rng(17 + n * d)
        shape = SystemShape(n, d)
        draw = random_su2 if d == 2 else random_su3
        states = [random_state(rng, shape) for _ in range(5)]
        profiles = [[draw(rng) for _ in range(n)] for _ in states]
        rows = apply_local_batch(np.array(profiles),
                                 np.array([psi.amplitudes for psi in states]), d)
        for row, ops, psi in zip(rows, profiles, states):
            np.testing.assert_allclose(row, dense.tensor(ops) @ psi.amplitudes,
                                       rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d, n", [(2, n) for n in range(1, 12)]
                             + [(3, n) for n in range(1, 12)])
    def test_rows_do_not_depend_on_their_batch(self, d, n):
        # every row is bit-identical to its profile run alone, for per-row
        # states and for one broadcast state
        rng = np.random.default_rng(100 * d + n)
        count, dim = 3, d ** n
        raw = rng.standard_normal((count, n, d, d)) + 1j * rng.standard_normal((count, n, d, d))
        ops = np.linalg.qr(raw)[0]
        psi = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        rows = apply_local_batch(ops, psi, d)
        shared = apply_local_batch(ops, psi[0], d)
        assert rows.shape == shared.shape == (count, dim)
        for k in range(count):
            np.testing.assert_array_equal(rows[k], apply_local_batch(ops[k:k + 1], psi[k], d)[0])
            np.testing.assert_array_equal(shared[k], apply_local_batch(ops[k:k + 1], psi[0], d)[0])


class TestCheckOps:
    """One stacked unitarity check per profile, with the per-operator messages."""

    SHAPE = SystemShape(4, 2)
    BAD = np.diag([1.0, 2.0])

    def check(self, ops, strict):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                check_ops(ops, self.SHAPE, strict)
                error = None
            except ValueError as exc:
                error = str(exc)
        return error, [str(w.message) for w in caught]

    def test_non_unitary_names_the_first_bad_player(self):
        ops = [I2, self.BAD, I2, self.BAD]
        message = "operator for player {} is not unitary (residual 3.000e+00 >= 1e-09)"
        assert self.check(ops, strict=True) == (message.format(3), [])
        assert self.check(ops, strict=False) == (None, [message.format(3), message.format(1)])

    def test_wrong_shape(self):
        square = [I2, np.eye(3), I2, I2]
        for strict in (True, False):
            assert self.check(square, strict) == ("local operator shape (3, 3) != (2, 2)", [])
        ragged = [I2, I2, np.ones((2, 3)), I2]
        unitary = "operator for player 2 is not unitary (residual inf >= 1e-09)"
        assert self.check(ragged, strict=True) == (unitary, [])
        assert self.check(ragged, strict=False) == (
            "local operator shape (2, 3) != (2, 2)", [unitary])

    def test_wrong_ndim(self):
        for op, shape in ((np.ones(4), "(4,)"), (np.ones((1, 2, 2)), "(1, 2, 2)")):
            message = f"operator for player 2 must be 2-dimensional, got shape {shape}"
            for strict in (True, False):
                assert self.check([I2, I2, op, I2], strict) == (message, [])

    def test_earlier_bad_operator_comes_first(self):
        ops = [self.BAD, I2, np.ones(4), I2]
        unitary = "operator for player 4 is not unitary (residual 3.000e+00 >= 1e-09)"
        assert self.check(ops, strict=True) == (unitary, [])
        assert self.check(ops, strict=False) == (
            "operator for player 2 must be 2-dimensional, got shape (4,)", [unitary])

    def test_verdict_at_the_tolerance_matches_unitarity_residual(self):
        # diag(1, e) with e^2 - 1 straddling ATOL_UNITARY, rotated so that the
        # residual carries round-off
        rng = np.random.default_rng(21)
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rotation = np.linalg.qr(raw)[0]
        edge = math.sqrt(1.0 + ATOL_UNITARY)
        verdicts = set()
        for step in range(-40, 41):
            op = rotation @ np.diag([1.0, edge + step * 2.0 ** -52])
            unitary = unitarity_residual(op) < ATOL_UNITARY
            verdicts.add(unitary)
            error, _ = self.check([I2, I2, op, I2], strict=True)
            assert (error is None) == unitary
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_operator(self, bad):
        op = np.array([[bad, 0.0], [0.0, 1.0]])
        message = "operator for player 4 is not unitary (residual nan >= 1e-09)"
        with pytest.raises(ValueError, match=re.escape(message)):
            play_symmetric(minority(4), op)
        # lenient mode warns for every player; the play then fails on the norm
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="state norm nan is not 1"):
                play_symmetric(minority(4), op, strict=False)
        assert [str(w.message) for w in caught if w.category is UserWarning] == [
            f"operator for player {k} is not unitary (residual nan >= 1e-09)"
            for k in (4, 3, 2, 1)]


class TestDensityOperations:
    """The dense reference in ``dense_reference``: the cross-checks rest on it."""

    def test_identity_conjugation(self):
        rho = dense.density(ghz(SystemShape(2, 2)).amplitudes, 0.7)
        out = dense.conjugate([I2, I2], rho)
        np.testing.assert_allclose(out, rho, atol=1e-15)

    def test_pure_state_consistency(self):
        rng = np.random.default_rng(12)
        shape = SystemShape(2, 2)
        psi = random_state(rng, shape)
        ops = [random_su2(rng), random_su2(rng)]
        via_density = dense.conjugate(ops, dense.density(psi.amplitudes))
        via_pure = dense.density(moved(ops, psi))
        np.testing.assert_allclose(via_density, via_pure, atol=1e-12)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(13)
        shape = SystemShape(2, 2)
        rho = dense.density(random_state(rng, shape).amplitudes, 0.5)
        ops = [random_su2(rng), random_su2(rng)]
        phased = [np.exp(1j * 0.811) * op for op in ops]
        np.testing.assert_allclose(
            dense.conjugate(ops, rho), dense.conjugate(phased, rho), atol=1e-12,
        )

    def test_trace_preservation(self):
        rng = np.random.default_rng(14)
        shape = SystemShape(3, 3)
        for _ in range(10):
            rho = dense.density(random_state(rng, shape).amplitudes, float(rng.uniform(0, 1)))
            out = dense.conjugate([random_su3(rng) for _ in range(3)], rho)
            assert abs(np.trace(out) - 1.0) < 1e-9
            # produced matrices stay Hermitian and positive
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.min(np.linalg.eigvalsh(out)) > -1e-9


class TestNoise:
    def test_pure_limit(self):
        amp = ghz(SystemShape(3, 3)).amplitudes
        np.testing.assert_allclose(
            dense.density(amp, 1.0), np.outer(amp, amp.conj()), atol=1e-15
        )

    def test_maximally_mixed_limit(self):
        psi = ghz(SystemShape(3, 3))
        np.testing.assert_allclose(dense.density(psi.amplitudes, 0.0), np.eye(27) / 27,
                                   atol=1e-15)

    def test_half_mix_diagonal(self):
        rho = dense.density(ghz(SystemShape(3, 3)).amplitudes, 0.5)
        assert abs(rho[0, 0] - 5 / 27) < 1e-12

    def test_out_of_range(self):
        # the fidelity check every noisy play and sweep passes through
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                check_fidelity(bad)
        assert check_fidelity(1) == 1.0

    def test_noise_linearity(self):
        rng = np.random.default_rng(15)
        shape = SystemShape(3, 3)
        psi = random_state(rng, shape)
        proj = np.zeros(27)
        proj[5] = 1.0
        pure_value = dense.expectation(proj, dense.density(psi.amplitudes))
        for f in (0.0, 0.3, 0.77, 1.0):
            mixed = dense.expectation(proj, dense.density(psi.amplitudes, f))
            assert abs(mixed - (f * pure_value + (1 - f) / 27)) < 1e-12


class TestExpectationAndProbabilities:
    def test_identity_expectation(self):
        rho = dense.density(ghz(SystemShape(2, 2)).amplitudes, 0.4)
        assert abs(dense.expectation(np.ones(4), rho) - 1.0) < 1e-12

    def test_bell_projector(self):
        rho = dense.density(bell("phi+").amplitudes)
        proj = np.array([1.0, 0, 0, 0])
        assert abs(dense.expectation(proj, rho) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        rho = dense.density(bell("phi+").amplitudes)
        with pytest.raises(ValueError):
            dense.expectation(np.ones(8), rho)

    def test_ghz_outcomes(self):
        # the identity profile measures the GHZ state itself
        probs = play_symmetric(kolkata(), np.eye(3)).probabilities
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        for label in ("000", "111", "222"):
            assert abs(probs[label] - 1 / 3) < 1e-12
        assert probs["012"] == 0.0

    def test_maximally_mixed_outcomes(self):
        probs = play_symmetric(kolkata(), np.eye(3), fidelity=0.0).probabilities
        assert all(abs(p - 1 / 27) < 1e-12 for p in probs.values())
        assert list(probs) == list(labels(SystemShape(3, 3)))


class TestValidation:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(SystemShape(1, 2), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        # a NaN norm fails the check: ``nan <= ATOL_NORM`` is False
        with pytest.raises(ValueError, match="state norm .* is not 1"):
            PureState(SystemShape(1, 2), np.array([bad, 0.0]))

    def test_states_are_immutable(self):
        psi = ghz(SystemShape(2, 2))
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0
