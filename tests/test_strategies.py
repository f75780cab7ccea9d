import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from qgames.games import entangler
from qgames.strategies import (
    FAMILY_PRESETS,
    Family,
    KOLKATA_OPTIMAL_PARAMS,
    MINORITY_OPTIMAL_PARAMS,
    StrategySpec,
    assemble,
    classical_set,
    cyclic_s,
    factors,
    parameter_box,
    parse_radians,
    parse_strategy,
    pauli,
    su2_eisert,
    su2_eisert_batch,
    su2_full,
    su2_full_batch,
    su3_frame,
    su3_frame_batch,
)

ATOL = 1e-12


def su3_params(rng):
    return tuple(rng.uniform(0, np.pi / 2, 3)) + tuple(rng.uniform(0, 2 * np.pi, 5))


class TestPauli:
    def test_involution(self):
        for name in "XYZ":
            np.testing.assert_allclose(pauli(name) @ pauli(name), np.eye(2), atol=ATOL)

    def test_bit_flip(self):
        np.testing.assert_array_equal(pauli("X") @ [1, 0], [0, 1])

    def test_z(self):
        np.testing.assert_array_equal(pauli("Z"), np.diag([1.0, -1.0]))

    def test_unknown(self):
        with pytest.raises(ValueError):
            pauli("W")


class TestSu2Full:
    def test_identity(self):
        np.testing.assert_allclose(su2_full(0, 0, 0), np.eye(2), atol=ATOL)

    def test_pi_gives_phased_bit_flip(self):
        np.testing.assert_allclose(su2_full(math.pi, 0, 0), 1j * pauli("X"), atol=ATOL)

    def test_minority_operator_unitary(self):
        u = su2_full(*MINORITY_OPTIMAL_PARAMS)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=ATOL)

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            su2_full(3.5, 0, 0)

    @pytest.mark.parametrize("params,name", [
        ((0, 7, 0), "alpha"), ((0, 1e308, 0), "alpha"), ((0, 0, -3.2), "beta"),
        ((0, 0, float("inf")), "beta"),
    ])
    def test_phase_range_enforced(self, params, name):
        with pytest.raises(ValueError, match=rf"^{name}=.* outside \[-3.14159, 3.14159\]$"):
            StrategySpec(Family.FULL_SU2, params).matrix()
        su2_full(0, math.pi, -math.pi)  # the box is closed

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0, math.pi, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
        st.floats(-math.pi, math.pi, allow_nan=False),
    )
    def test_unitary_det_one(self, theta, alpha, beta):
        u = su2_full(theta, alpha, beta)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12


class TestSu2Eisert:
    def test_identity(self):
        np.testing.assert_allclose(su2_eisert(0, 0), np.eye(2), atol=ATOL)

    def test_quantum_equilibrium_matrix(self):
        np.testing.assert_allclose(
            su2_eisert(0, math.pi / 2), np.diag([1j, -1j]), atol=ATOL
        )

    def test_theta_pi_is_bit_flip_up_to_phase(self):
        u = su2_eisert(math.pi, 0)
        np.testing.assert_allclose(u, 1j * pauli("X"), atol=ATOL)
        # global phase: same action on outcome probabilities as sigma_x
        probs = np.abs(u @ np.array([1.0, 0.0])) ** 2
        np.testing.assert_allclose(probs, [0, 1], atol=ATOL)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            su2_eisert(0, 2.0)

    def test_subset_of_full_family(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = rng.uniform(0, math.pi)
            alpha = rng.uniform(0, math.pi / 2)
            np.testing.assert_allclose(
                su2_eisert(theta, alpha), su2_full(theta, alpha, 0.0), atol=ATOL
            )


class TestCyclic:
    def test_zero_power_identity(self):
        np.testing.assert_array_equal(cyclic_s(0), np.eye(3))

    def test_cubes_to_identity(self):
        s = cyclic_s(1)
        np.testing.assert_allclose(s @ s @ s, np.eye(3), atol=ATOL)

    def test_square_is_transpose(self):
        np.testing.assert_allclose(cyclic_s(2), cyclic_s(1).T, atol=ATOL)

    def test_shift_action(self):
        for k in range(3):
            ket = np.zeros(3)
            ket[0] = 1
            shifted = cyclic_s(k) @ ket
            assert shifted[k] == 1.0

    def test_range(self):
        with pytest.raises(ValueError):
            cyclic_s(3)


class TestSu3Frame:
    def test_published_optimum_is_special_unitary(self):
        u = su3_frame(*KOLKATA_OPTIMAL_PARAMS)
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(u) - 1) < 1e-9

    def test_random_frames_orthonormal(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            # the columns (x, conj(y), conj(x) x y) of the frame construction
            columns = su3_frame(*su3_params(rng)).T
            for i in range(3):
                assert abs(np.linalg.norm(columns[i]) - 1) < 1e-12
                for j in range(i + 1, 3):
                    assert abs(np.vdot(columns[i], columns[j])) < 1e-12

    def test_first_vector_third_component(self):
        # theta = acos(1/sqrt(3)) and alpha3 = 0 puts 1/sqrt(3) in slot 3
        x = su3_frame(0.3, math.acos(1 / math.sqrt(3)), 0.2, 0.1, 0.4, 0.0, 1.0, 2.0)[:, 0]
        assert abs(x[2] - 1 / math.sqrt(3)) < 1e-12

    def test_one_pass_matches_frame_vectors_and_cross_product(self):
        # the frame written out, and its third vector completed by np.cross
        params = np.array([su3_params(np.random.default_rng(24)) for _ in range(1000)]).T
        phi, theta, chi, a1, a2, a3, b1, b2 = params
        x = np.stack([np.sin(theta) * np.cos(phi) * np.exp(1j * a1),
                      np.sin(theta) * np.sin(phi) * np.exp(1j * a2),
                      np.cos(theta) * np.exp(1j * a3)], axis=-1)
        y = np.stack([np.cos(chi) * np.cos(theta) * np.cos(phi) * np.exp(1j * (b1 - a1))
                      + np.sin(chi) * np.sin(phi) * np.exp(1j * (b2 - a1)),
                      np.cos(chi) * np.cos(theta) * np.sin(phi) * np.exp(1j * (b1 - a2))
                      - np.sin(chi) * np.cos(phi) * np.exp(1j * (b2 - a2)),
                      -np.cos(chi) * np.sin(theta) * np.exp(1j * (b1 - a3))], axis=-1)
        reference = np.stack([x, y.conj(), np.cross(x.conj(), y, axis=-1)], axis=-1)
        np.testing.assert_allclose(su3_frame_batch(*params), reference, rtol=0, atol=1e-14)
        u = su3_frame(*params[:, 0])
        for got, want in zip((u[:, 0], u[:, 1].conj(), u[:, 2]), (x[0], y[0], reference[0, :, 2])):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(23)
        params = np.array([su3_params(rng) for _ in range(8)])
        batch = su3_frame_batch(*[params[:, i] for i in range(8)])
        for row, mats in zip(params, batch):
            np.testing.assert_allclose(mats, su3_frame(*row), atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_unitary_det_one(self, seed):
        rng = np.random.default_rng(seed)
        u = su3_frame(*su3_params(rng))
        assert np.max(np.abs(u.conj().T @ u - np.eye(3))) < 1e-9
        assert abs(np.linalg.det(u) - 1) < 1e-9

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            su3_frame(2.0, 0.3, 0.3, 0, 0, 0, 0, 0)


def bits(array):
    """The raw bits of a complex array: equal bits mean equal values and signs of zero."""
    return np.ascontiguousarray(array).view(np.uint64)


# exact zeros of both signs, the box edges and tiny magnitudes, where a phase
# built from cos and sin could differ from np.exp in a sign or a last bit
SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, math.pi / 2, 2 * math.pi, 5e-324, -1e-300]


class TestFactorsAndAssembly:
    """The builders against their defining formulas, phases through np.exp."""

    BUILDERS = [
        (su2_full_batch, dense.su2_full, 3),
        (su2_eisert_batch, lambda t, a: dense.su2_full(t, a, 0.0), 2),
        (su3_frame_batch, dense.su3_frame, 8),
    ]

    @pytest.mark.parametrize("builder,reference,k", BUILDERS)
    @pytest.mark.parametrize("rows", [1, 7, 300, 7281])
    def test_batch_builders_match_the_exp_formulas_bit_for_bit(self, builder, reference, k, rows):
        rng = np.random.default_rng(rows + k)
        params = rng.uniform(-7, 7, (k, rows))
        params[:, :len(SPECIAL_ANGLES)] = np.array(SPECIAL_ANGLES)[:rows, None].T
        zeros = rng.random(params.shape) < 0.2  # one-point gauge axes sit at 0
        params[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
        np.testing.assert_array_equal(bits(builder(*params)), bits(reference(*params)))

    @pytest.mark.parametrize("builder,reference,k", BUILDERS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_scalar_builders_match_the_exp_formulas_bit_for_bit(self, builder, reference, k, data):
        angle = st.one_of(st.sampled_from(SPECIAL_ANGLES), st.floats(-7, 7))
        params = data.draw(st.lists(angle, min_size=k, max_size=k))
        np.testing.assert_array_equal(bits(builder(*params)), bits(reference(*params)))

    def test_factors_broadcast_in_assembly(self):
        # a parameter fixed for the batch passes its factors at shape (1,)
        rng = np.random.default_rng(31)
        params = np.array([su3_params(rng) for _ in range(50)]).T
        params[3:5] = 0.0
        per_row = factors(Family.FRAME_SU3, params)
        fixed = factors(Family.FRAME_SU3, params[:, :1])
        mixed = [fixed[i] if i in (3, 4) else per_row[i] for i in range(8)]
        np.testing.assert_array_equal(bits(assemble(Family.FRAME_SU3, mixed)),
                                      bits(su3_frame_batch(*params)))

    def test_discrete_families_have_no_factors(self):
        for family in (Family.CLASSICAL_BIT, Family.CYCLIC_C3):
            with pytest.raises(ValueError, match="not a continuous family"):
                factors(family, [[0.0]])
            with pytest.raises(ValueError, match="not a continuous family"):
                assemble(family, [])


class TestClassicalSets:
    def test_qubit_set(self):
        ops = classical_set(2)
        assert len(ops) == 2
        np.testing.assert_array_equal(ops[0], np.eye(2))
        np.testing.assert_array_equal(ops[1], pauli("X"))

    def test_qutrit_set_permutations(self):
        ops = classical_set(3)
        assert len(ops) == 3
        for op in ops:
            assert np.max(np.abs(op.conj().T @ op - np.eye(3))) < ATOL
            assert set(np.unique(op.real)) <= {0.0, 1.0}
            assert np.max(np.abs(op.imag)) == 0.0

    def test_group_closure(self):
        for d in (2, 3):
            ops = classical_set(d)
            for a in ops:
                for b in ops:
                    product = a @ b
                    assert any(
                        np.max(np.abs(product - member)) < ATOL for member in ops
                    )

    def test_entangler_commutation(self):
        # every V (x) W with V, W in {I, X} commutes with the entangler
        j = entangler()
        for v in classical_set(2):
            for w in classical_set(2):
                vw = np.kron(v, w)
                assert np.max(np.abs(j @ vw - vw @ j)) < ATOL

    def test_no_set_for_other_dimensions(self):
        with pytest.raises(ValueError):
            classical_set(4)


class TestStrategySpec:
    def test_param_count_enforced(self):
        with pytest.raises(ValueError):
            StrategySpec(Family.FULL_SU2, (0.0, 0.0))

    def test_discrete_validation(self):
        with pytest.raises(ValueError):
            StrategySpec(Family.CYCLIC_C3, (0.5,))

    def test_matrix_dispatch(self):
        spec = StrategySpec(Family.CLASSICAL_BIT, (1.0,))
        np.testing.assert_array_equal(spec.matrix(), pauli("X"))

    def test_literal_round_trip(self):
        specs = [
            StrategySpec(Family.FULL_SU2, MINORITY_OPTIMAL_PARAMS),
            StrategySpec(Family.EISERT_SU2, (0.0, math.pi / 2)),
            StrategySpec(Family.CYCLIC_C3, (2.0,)),
            StrategySpec(Family.FRAME_SU3, KOLKATA_OPTIMAL_PARAMS),
        ]
        for spec in specs:
            parsed = parse_strategy(spec.literal())
            assert parsed.family == spec.family
            np.testing.assert_allclose(parsed.params, spec.params, atol=1e-11)

    def test_classical_strategies(self):
        # the bit and c3 specs are the classical operator sets, in order
        for family, d in ((Family.CLASSICAL_BIT, 2), (Family.CYCLIC_C3, 3)):
            for k, op in enumerate(classical_set(d)):
                np.testing.assert_array_equal(StrategySpec(family, (k,)).matrix(), op)


class TestLiterals:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("0", 0.0),
            ("1.25", 1.25),
            ("pi", math.pi),
            ("-pi/8", -math.pi / 8),
            ("11pi/6", 11 * math.pi / 6),
            ("5pi/18", 5 * math.pi / 18),
            ("2pi", 2 * math.pi),
            ("0.5pi", math.pi / 2),
            ("acos(1/sqrt3)", math.acos(1 / math.sqrt(3))),
        ],
    )
    def test_radian_tokens(self, token, value):
        assert abs(parse_radians(token) - value) < 1e-15

    def test_bad_tokens(self):
        for bad in ("pie", "pi/", "--1", "1/2/3", "cos(1)"):
            with pytest.raises(ValueError):
                parse_radians(bad)

    def test_parse_strategy(self):
        spec = parse_strategy("eisert:0,pi/2")
        assert spec.family == Family.EISERT_SU2
        np.testing.assert_allclose(spec.params, (0.0, math.pi / 2))

    def test_preset_token_expands_to_optimal_parameters(self):
        spec = parse_strategy("su3:table2")
        assert spec.params == KOLKATA_OPTIMAL_PARAMS

    def test_bad_literals(self):
        for bad in ("eisert", "warp:1", "eisert:", "bit:7"):
            with pytest.raises(ValueError):
                parse_strategy(bad).matrix()


class TestBoxesAndPresets:
    def test_boxes_cover_named_optima(self):
        box = parameter_box(Family.FULL_SU2)
        for value, (lo, hi) in zip(MINORITY_OPTIMAL_PARAMS, box):
            assert lo <= value <= hi
        box = parameter_box(Family.FRAME_SU3)
        for value, (lo, hi) in zip(KOLKATA_OPTIMAL_PARAMS, box):
            assert lo <= value <= hi

    def test_discrete_families_have_no_box(self):
        assert parameter_box(Family.CLASSICAL_BIT) is None
        assert parameter_box(Family.CYCLIC_C3) is None

    def test_presets_valid(self):
        for family, presets in FAMILY_PRESETS.items():
            for params in presets:
                StrategySpec(family, params).matrix()
