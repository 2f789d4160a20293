"""Plant model tests: ODE values, RK4 against analytic/matrix-exponential
oracles, linear-model assembly, ACE, and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from agcsim.dynamics import (AreaParams, LfcModel, PlantInputs, TieTopology,
                             two_area_benchmark)
from agcsim.errors import NumericError, StructuralError


def single_area_model(**kwargs):
    return LfcModel([AreaParams(**kwargs)], TieTopology(1))


class TestAreaParams:
    def test_defaults_valid(self):
        AreaParams()

    @pytest.mark.parametrize("field,value", [
        ("inertia", 0.0), ("inertia", -1.0), ("governor_tc", 0.0),
        ("turbine_tc", -0.1), ("droop", 0.0), ("damping", -0.01),
        ("freq_bias", 0.0), ("inertia", np.nan), ("damping", np.nan),
        ("droop", np.inf),
    ])
    def test_invalid_rejected(self, field, value):
        with pytest.raises(StructuralError):
            AreaParams(**{field: value})


class TestTieTopology:
    def test_asymmetric_rejected(self):
        coef = np.array([[0.0, 0.1], [0.2, 0.0]])
        with pytest.raises(StructuralError):
            TieTopology(2, coef)

    def test_nonzero_diagonal_rejected(self):
        coef = np.array([[0.1, 0.1], [0.1, 0.0]])
        with pytest.raises(StructuralError):
            TieTopology(2, coef)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -0.1])
    def test_bad_coefficient_rejected(self, value):
        coef = np.array([[0.0, value], [value, 0.0]])
        with pytest.raises(StructuralError, match="finite and >= 0"):
            TieTopology(2, coef)

    def test_disconnected_rejected(self):
        coef = np.zeros((3, 3))
        coef[0, 1] = coef[1, 0] = 0.1
        with pytest.raises(StructuralError):
            TieTopology(3, coef)

    def test_pairs_order(self):
        coef = np.ones((3, 3)) - np.eye(3)
        topo = TieTopology(3, 0.1 * coef)
        assert topo.pairs == [(0, 1), (0, 2), (1, 2)]


class TestDerivatives:
    def test_equilibrium(self):
        m = two_area_benchmark()
        d = m.derivatives(m.zero_state(), m.inputs([0, 0], [0, 0]))
        assert np.all(d == 0)

    def test_load_pulls_frequency_down(self):
        # dDf/dt = (pm - load - D*df - tie)/M = -0.01/10 with only a load
        m = single_area_model(inertia=10.0, damping=1.0)
        d = m.derivatives(m.zero_state(), m.inputs([0.0], [0.01]))
        assert d[0] == pytest.approx(-0.001, abs=1e-15)

    def test_command_drives_valve(self):
        # dPv/dt = (p_c - df/R - pv)/T_g = 0.01/0.08
        m = single_area_model(governor_tc=0.08)
        d = m.derivatives(m.zero_state(), m.inputs([0.01], [0.0]))
        assert d[2] == pytest.approx(0.125, abs=1e-15)

    def test_dimension_mismatch(self):
        m = two_area_benchmark()
        with pytest.raises(StructuralError):
            m.derivatives(np.zeros(5), m.inputs([0, 0], [0, 0]))
        with pytest.raises(StructuralError):
            m.derivatives(m.zero_state(), m.inputs([0.0], [0.0]))

    def test_non_finite_state(self):
        m = two_area_benchmark()
        bad = m.zero_state()
        bad[0] = np.nan
        with pytest.raises(NumericError):
            m.derivatives(bad, m.inputs([0, 0], [0, 0]))

    def test_linearity(self):
        m = two_area_benchmark()
        rng = np.random.default_rng(7)
        for _ in range(20):
            s1 = rng.normal(0, 0.03, m.dim)
            s2 = rng.normal(0, 0.03, m.dim)
            u1 = rng.normal(0, 0.03, 2)
            u2 = rng.normal(0, 0.03, 2)
            l1 = rng.normal(0, 0.01, 2)
            l2 = rng.normal(0, 0.01, 2)
            a = rng.normal()
            lhs = m.derivatives(a * s1 + s2,
                                PlantInputs(a * u1 + u2, a * l1 + l2))
            rhs = a * m.derivatives(s1, PlantInputs(u1, l1)) + \
                m.derivatives(s2, PlantInputs(u2, l2))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSaturation:
    def test_command_clamped_by_plant(self):
        inputs = PlantInputs(np.array([0.9, -2.0]), np.zeros(2))
        assert np.all(inputs.p_c == [0.5, -0.5])

    def test_custom_limit(self):
        inputs = PlantInputs(np.array([0.9]), np.zeros(1), p_c_max=1.0)
        assert inputs.p_c[0] == 0.9


class TestRk4:
    def test_zero_stays_zero(self):
        m = two_area_benchmark()
        s = m.rk4_step(m.zero_state(), m.inputs([0, 0], [0, 0]), 0.01)
        assert np.all(s == 0)

    def test_first_order_lag_analytic(self):
        # Governor alone is dx/dt = (u - x)/T with df pinned at 0; use a
        # single area where only the valve state moves.
        m = LfcModel([AreaParams(governor_tc=0.3, turbine_tc=1e6,
                                 inertia=1e6)], TieTopology(1), p_c_max=2.0)
        state = m.zero_state()
        inputs = m.inputs([1.0], [0.0])
        for _ in range(10):
            state = m.rk4_step(state, inputs, 0.03)
        assert state[2] == pytest.approx(1 - np.exp(-1), abs=1e-6)

    def test_matrix_exponential_oracle(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        u = np.array([0.05, -0.02])
        rng = np.random.default_rng(3)
        x0 = rng.normal(0, 0.02, m.dim)
        h = 0.001
        steps = 1000  # 1 s
        state = x0.copy()
        inputs = m.inputs(u, [0.0, 0.0])
        for _ in range(steps):
            state = m.rk4_step(state, inputs, h)
        # Exact discrete map via the augmented exponential.
        n = m.dim
        aug = np.zeros((n + 2, n + 2))
        aug[:n, :n] = A
        aug[:n, n:] = B
        phi = expm(aug * (h * steps))
        exact = phi[:n, :n] @ x0 + phi[:n, n:] @ u
        assert np.max(np.abs(state - exact)) < 1e-7

    def test_order_of_convergence(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        u = np.array([0.03, 0.01])
        x0 = np.full(m.dim, 0.01)
        inputs = m.inputs(u, [0.0, 0.0])
        horizon = 1.0

        def rollout(h):
            state = x0.copy()
            for _ in range(round(horizon / h)):
                state = m.rk4_step(state, inputs, h)
            return state

        n = m.dim
        aug = np.zeros((n + 2, n + 2))
        aug[:n, :n] = A
        aug[:n, n:] = B
        phi = expm(aug * horizon)
        exact = phi[:n, :n] @ x0 + phi[:n, n:] @ u
        e1 = np.max(np.abs(rollout(0.02) - exact))
        e2 = np.max(np.abs(rollout(0.01) - exact))
        order = np.log2(e1 / e2)
        assert order >= 3.8

    def test_bad_step_size(self):
        m = two_area_benchmark()
        with pytest.raises(StructuralError):
            m.rk4_step(m.zero_state(), m.inputs([0, 0], [0, 0]), 0.0)


class TestLinearModel:
    def test_matches_derivatives(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        L = m.load_gain()
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = rng.normal(0, 0.05, m.dim)
            u = rng.normal(0, 0.05, 2)
            load = rng.normal(0, 0.02, 2)
            lhs = m.derivatives(s, PlantInputs(u, load))
            rhs = A @ s + B @ u - L @ load
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_single_area_structure(self):
        m = single_area_model(inertia=0.2, damping=0.04)
        A, B = m.assemble_linear_model()
        assert A.shape == (3, 3)
        assert A[0, 0] == pytest.approx(-0.04 / 0.2)

    def test_missing_line_decouples(self):
        # A pair without a line (T_ij = 0) must contribute no coupling at
        # all: its state slot is inert in both directions.
        coef = np.zeros((3, 3))
        coef[0, 1] = coef[1, 0] = 0.1
        coef[1, 2] = coef[2, 1] = 0.1
        m = LfcModel([AreaParams()] * 3, TieTopology(3, coef))
        A, _ = m.assemble_linear_model()
        # Pair (0, 2) has no line: its state row/column must be zero.
        k = m.pairs.index((0, 2))
        idx = 3 * 3 + k
        assert np.all(A[idx, :] == 0)
        assert np.all(A[:, idx] == 0)


class TestAce:
    def test_zero(self):
        m = two_area_benchmark()
        assert m.ace(m.zero_state(), 0) == 0.0

    def test_direct_arithmetic(self):
        m = two_area_benchmark()
        s = m.zero_state()
        s[0] = 0.1       # df_1
        s[6] = 0.05      # ptie_12
        assert m.ace(s, 0) == pytest.approx(0.425 * 0.1 + 0.05, abs=1e-15)

    def test_antisymmetric_flow(self):
        m = two_area_benchmark()
        s = m.zero_state()
        s[6] = 0.05
        assert m.ace(s, 1) == pytest.approx(-0.05, abs=1e-15)
        assert m.tie_flow(s, 1, 0) == -m.tie_flow(s, 0, 1)

    def test_bad_index(self):
        m = two_area_benchmark()
        with pytest.raises(StructuralError):
            m.ace(m.zero_state(), 2)


class TestPrimaryControlSteadyState:
    def test_droop_offset(self):
        # Constant load step, zero commands: df converges to the coherent
        # droop-determined offset -dP / sum(D_i + 1/R_i).
        m = two_area_benchmark()
        load = np.array([0.01, 0.0])
        inputs = m.inputs([0.0, 0.0], load)
        state = m.zero_state()
        for _ in range(6000):  # 60 s at h = 0.01
            state = m.rk4_step(state, inputs, 0.01)
        expected = -0.01 / sum(a.damping + 1 / a.droop for a in m.areas)
        for df in m.freq(state):
            assert abs(df - expected) / abs(expected) < 0.005


def _span(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def connected_grids(draw):
    """A random connected N-area grid, N <= 6, with plausible constants."""
    n = draw(st.integers(1, 6))
    areas = [AreaParams(inertia=draw(_span(0.1, 0.25)),
                        damping=draw(_span(0.0, 0.02)),
                        droop=draw(_span(1.5, 3.5)),
                        governor_tc=draw(_span(0.05, 0.15)),
                        turbine_tc=draw(_span(0.2, 0.5)),
                        freq_bias=draw(_span(0.3, 0.6)))
             for _ in range(n)]
    coef = np.zeros((n, n))
    for i in range(1, n):  # a spanning tree keeps the graph connected
        j = draw(st.integers(0, i - 1))
        coef[i, j] = coef[j, i] = draw(_span(0.02, 0.12))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=5)):
        if i != j:
            coef[i, j] = coef[j, i] = draw(_span(0.02, 0.12))
    return LfcModel(areas, TieTopology(n, coef))


def _period_error(model, h, steps, seed):
    """Relative max error of period_map against `steps` sequential RK4
    steps with the command held and a fresh load each step."""
    rng = np.random.default_rng(seed)
    n = model.n_areas
    x = rng.normal(0, 0.05, model.dim)
    u = rng.normal(0, 0.4, n)   # some entries beyond the saturation limit
    loads = rng.normal(0, 0.02, (steps, n))
    held = np.clip(u, -model.p_c_max, model.p_c_max)
    lifted = model.period_map(h, steps) @ np.concatenate(
        [x, held, loads.ravel()])
    ref = []
    state = x
    for j in range(steps):
        state = model.rk4_step(state, model.inputs(u, loads[j]), h)
        ref.append(state)
    ref = np.array(ref)
    scale = max(np.max(np.abs(x)), np.max(np.abs(ref)))
    return np.max(np.abs(lifted.reshape(steps, model.dim) - ref)) / scale


class TestPeriodMap:
    """period_map against rk4_step, the integrator it must reproduce."""

    @settings(max_examples=60, deadline=None)
    @given(model=connected_grids(), h=_span(0.001, 0.02),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_one_step_is_rk4(self, model, h, seed):
        # steps=1 is x+ = M x + N g for one held input g.
        assert _period_error(model, h, 1, seed) <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(model=connected_grids(), h=_span(0.001, 0.02),
           steps=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1))
    def test_period_is_sequential_rk4(self, model, h, steps, seed):
        assert _period_error(model, h, steps, seed) <= 1e-14

    def test_shape(self):
        m = two_area_benchmark()
        assert m.period_map(0.01, 10).shape == (10 * m.dim, m.dim + 2 + 20)

    def test_bad_step_size(self):
        with pytest.raises(StructuralError):
            two_area_benchmark().period_map(0.0, 10)
