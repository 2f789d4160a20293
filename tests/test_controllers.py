"""Baseline controllers: PID arithmetic, ZOH discretization, Riccati solver,
MPC/LQR equivalence, and the PID tuner."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from agcsim import controllers
from agcsim.attacks import (ATTACK_KINDS, CHANNELS, AttackSignal,
                            InjectionPoint, MeasurementFrame)
from agcsim.controllers import (LqrController, MpcController, PidController,
                                PidGains, StateEstimator, ZeroController,
                                dare_residual, default_weights, expm,
                                mpc_gain, mpc_step, riccati_doubling,
                                riccati_step, solve_dare, tune_pid,
                                zoh_discretize)
from agcsim.dynamics import (AreaParams, LfcModel, TieTopology,
                             two_area_benchmark)
from agcsim.errors import (ConvergenceError, InstabilityError, NumericError,
                           StructuralError)
from agcsim.harness import compute_metrics, run_episode
from agcsim.scenario import LoadEvent, Scenario, load_scenario
from tests.test_cli import GRID3
from tests.test_scenario import SCENARIO_DIR


def frame(freq, tie, t=0.0):
    return MeasurementFrame(np.array(freq, dtype=float),
                            np.array(tie, dtype=float), t)


class TestPid:
    def test_zero_gains_zero_output(self):
        ctrl = PidController([0.425], PidGains(), 0.01)
        out = ctrl.observe(frame([0.3], [0.1]))
        assert np.all(out == 0)

    def test_proportional_only(self):
        ctrl = PidController([1.0], PidGains(kp=0.5), 0.01)
        # ACE = 1.0 * 0.1 + 0.0
        out = ctrl.observe(frame([0.1], [0.0]))
        assert out[0] == pytest.approx(-0.05, abs=1e-15)

    def test_trapezoid_integral(self):
        # Constant ACE = 0.1, h = 0.01, Ki = 1: the integral accumulates
        # 0.001 per step (the first call seeds the previous sample).
        ctrl = PidController([1.0], PidGains(ki=1.0), 0.01)
        out1 = ctrl.observe(frame([0.1], [0.0]))
        out2 = ctrl.observe(frame([0.1], [0.0]))
        assert out1[0] == pytest.approx(-0.001, abs=1e-15)
        assert out2[0] == pytest.approx(-0.002, abs=1e-15)

    def test_reset_clears_state(self):
        ctrl = PidController([1.0], PidGains(ki=1.0), 0.01)
        ctrl.observe(frame([0.1], [0.0]))
        ctrl.reset()
        out = ctrl.observe(frame([0.1], [0.0]))
        assert out[0] == pytest.approx(-0.001, abs=1e-15)

    def test_invalid_gains(self):
        with pytest.raises(StructuralError):
            PidGains(ki=-0.1)
        with pytest.raises(StructuralError):
            PidGains(deriv_filter=0.0)


class TestZohDiscretize:
    def test_zero_dynamics(self):
        B = np.array([[1.0], [2.0]])
        Ad, Bd = zoh_discretize(np.zeros((2, 2)), B, 0.25)
        assert np.allclose(Ad, np.eye(2), atol=1e-14)
        assert np.allclose(Bd, 0.25 * B, atol=1e-14)

    def test_scalar_closed_form(self):
        Ad, Bd = zoh_discretize(np.array([[-2.0]]), np.array([[1.0]]), 0.5)
        assert Ad[0, 0] == pytest.approx(np.exp(-1), abs=1e-12)
        assert Bd[0, 0] == pytest.approx((1 - np.exp(-1)) / 2, abs=1e-12)

    def test_semigroup(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        Ad1, _ = zoh_discretize(A, B, 0.1)
        Ad2, _ = zoh_discretize(A, B, 0.2)
        assert np.max(np.abs(Ad1 @ Ad1 - Ad2)) < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError):
            zoh_discretize(np.array([[0.0, bad], [0.0, 0.0]]),
                           np.array([[0.0], [1.0]]), 0.1)


@st.composite
def norm_bounded_matrices(draw):
    """Square matrices of dim <= 10 with 1-norm <= 10."""
    n = draw(st.integers(1, 10))
    M = draw(arrays(np.float64, (n, n), elements=st.floats(
        -1.0, 1.0).map(lambda v: round(v, 3))))
    norm = np.abs(M).sum(axis=0).max()
    return M * (draw(st.floats(0.0, 10.0)) / norm) if norm > 0 else M


class TestExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(expm(np.zeros((4, 4))), np.eye(4))

    @pytest.mark.parametrize("theta", [0.1, 1.0, 3.0, 10.0])
    def test_rotation(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        E = expm(theta * np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.max(np.abs(E - [[c, -s], [s, c]])) < 1e-14

    @settings(max_examples=200, deadline=None)
    @given(M=norm_bounded_matrices())
    def test_agrees_with_scipy(self, M):
        expected = scipy.linalg.expm(M)
        tol = 1e-11 * max(1.0, np.max(np.abs(expected)))
        assert np.max(np.abs(expm(M) - expected)) < tol

    def test_package_imports_without_scipy(self):
        code = ("import sys; import agcsim, agcsim.cli, agcsim.controllers, "
                "agcsim.dqn, agcsim.factory; print('scipy' in sys.modules)")
        src = str(Path(controllers.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert run.stdout.split() == ["False"], run.stderr


class TestSolveDare:
    def test_scalar_golden_ratio(self):
        one = np.array([[1.0]])
        P, K = solve_dare(one, one, one, one)
        assert P[0, 0] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-9)
        assert K[0, 0] == pytest.approx((np.sqrt(5) - 1) / 2, abs=1e-9)

    def test_zero_cost(self):
        P, K = solve_dare(np.array([[0.5]]), np.array([[1.0]]),
                          np.zeros((1, 1)), np.array([[1.0]]))
        assert P[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert K[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_residual_on_benchmark(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        Ad, Bd = zoh_discretize(A, B, 0.1)
        Q, R = default_weights(m)
        P, K = solve_dare(Ad, Bd, Q, R)
        assert dare_residual(Ad, Bd, Q, R, P) < 1e-8

    def test_closed_loop_stable(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        Ad, Bd = zoh_discretize(A, B, 0.1)
        Q, R = default_weights(m)
        _, K = solve_dare(Ad, Bd, Q, R)
        eig = np.linalg.eigvals(Ad - Bd @ K)
        assert np.max(np.abs(eig)) < 1.0


def scenario_system(scenario, **weights):
    """(Ad, Bd, Q, R) that LqrController builds for the scenario."""
    m = scenario.build_model()
    Ad, Bd = zoh_discretize(*m.assemble_linear_model(),
                            scenario.control_period)
    return (Ad, Bd, *default_weights(m, **weights))


@st.composite
def dare_systems(draw):
    """(Ad, Bd, Q, R) with N <= 6 states: Q and R positive definite, so the
    pair is detectable, and every eigenvalue of modulus >= 0.9 reached by
    the commands with a margin (stabilizable)."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))

    # Entries on a 1e-3 grid: a subnormal overflows scipy's balancing.
    def matrix(rows, cols, bound):
        return draw(arrays(np.float64, (rows, cols), elements=st.floats(
            -bound, bound).map(lambda v: round(v, 3))))

    Ad, Bd = matrix(n, n, 1.0), matrix(n, m, 1.0)
    L, M = matrix(n, n, 1.0), matrix(m, m, 1.0)
    for lam in np.linalg.eigvals(Ad):
        if abs(lam) >= 0.9:
            pbh = np.hstack([lam * np.eye(n) - Ad, Bd])
            assume(np.linalg.svd(pbh, compute_uv=False)[-1] > 0.1)
    return Ad, Bd, L @ L.T + 0.1 * np.eye(n), M @ M.T + 0.1 * np.eye(m)


class TestRiccatiDoubling:
    @pytest.mark.parametrize("seed", range(5))
    def test_update_k_is_step_two_to_the_k(self, seed):
        rng = np.random.default_rng(seed)
        n, m = 2 + seed, 1 + seed // 2
        Ad = rng.normal(0, 0.6, (n, n))
        Bd = rng.normal(0, 1, (n, m))
        L = rng.normal(0, 1, (n, n))
        Q, R = L @ L.T, 0.5 * np.eye(m)
        P, steps = Q, 0
        for k, H in enumerate(itertools.islice(
                riccati_doubling(Ad, Bd, Q, R), 7)):
            while steps < 2 ** k:
                P, _ = riccati_step(Ad, Bd, Q, R, P)
                steps += 1
            assert np.max(np.abs(Q + H - P)) < 1e-12 * np.max(np.abs(P))

    @settings(max_examples=150, deadline=None)
    @given(system=dare_systems())
    def test_agrees_with_scipy(self, system):
        Ad, Bd, Q, R = system
        expected = scipy.linalg.solve_discrete_are(Ad, Bd, Q, R)
        scale = np.max(np.abs(expected))
        P, K = solve_dare(Ad, Bd, Q, R)
        assert dare_residual(Ad, Bd, Q, R, P) < 1e-12 * scale
        # scipy's QZ method can miss on a degenerate draw (it returned a P
        # off by 0.017 for Bd = 0, Ad = 2.2e-16 everywhere); compare only
        # where its own answer solves the equation.
        if dare_residual(Ad, Bd, Q, R, expected) < 1e-10 * scale:
            assert np.max(np.abs(P - expected)) < 1e-10 * scale
        assert np.max(np.abs(np.linalg.eigvals(Ad - Bd @ K))) < 1.0

    def test_zero_command_weight(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_a.txt")
        Ad, Bd, Q, R = scenario_system(sc, r_weight=0.0)
        P, _ = solve_dare(Ad, Bd, Q, R)
        assert dare_residual(Ad, Bd, Q, R, P) < 1e-8

    def test_unreachable_weighted_mode_fails_fast(self, tmp_path,
                                                  monkeypatch):
        # On GRID3 the default tie weight grows P without bound: the
        # doubling must see it within its budget, not step 100 000 times.
        path = tmp_path / "grid3.txt"
        path.write_text(GRID3)
        system = scenario_system(load_scenario(path))
        steps = []

        def counted(*args):
            steps.append(1)
            return riccati_step(*args)

        monkeypatch.setattr(controllers, "riccati_step", counted)
        with pytest.raises(ConvergenceError, match="did not converge"):
            solve_dare(*system)
        assert 0 < len(steps) < 100

    def test_singular_first_step(self):
        Ad, Bd = np.eye(2), np.ones((2, 1))
        with pytest.raises(ConvergenceError, match="singular R \\+ B'PB"):
            solve_dare(Ad, Bd, np.zeros((2, 2)), np.zeros((1, 1)))


class TestMpc:
    def test_zero_state_zero_control(self):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        Ad, Bd = zoh_discretize(A, B, 0.1)
        Q, R = default_weights(m)
        P, _ = solve_dare(Ad, Bd, Q, R)
        u = mpc_step(Ad, Bd, Q, R, P, 10, np.zeros(m.dim))
        assert np.allclose(u, 0.0, atol=1e-15)

    @pytest.mark.parametrize("horizon", [1, 3, 20])
    def test_equals_lqr_with_riccati_terminal_cost(self, horizon):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        Ad, Bd = zoh_discretize(A, B, 0.1)
        Q, R = default_weights(m)
        P, K = solve_dare(Ad, Bd, Q, R)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(0, 0.05, m.dim)
            u = mpc_step(Ad, Bd, Q, R, P, horizon, x)
            assert np.max(np.abs(u - (-K @ x))) < 1e-9

    # A Riccati terminal cost is a fixed point of the recursion, so these
    # terminal costs are the ones that tell the two solvers apart.
    @pytest.mark.parametrize("terminal", ["Q", "zero"])
    @pytest.mark.parametrize("horizon", [1, 3, 20])
    def test_recursion_gain_equals_batch_solution(self, horizon, terminal):
        m = two_area_benchmark()
        A, B = m.assemble_linear_model()
        Ad, Bd = zoh_discretize(A, B, 0.1)
        Q, R = default_weights(m)
        P_term = Q if terminal == "Q" else np.zeros_like(Q)
        batch = np.column_stack([-mpc_step(Ad, Bd, Q, R, P_term, horizon, e)
                                 for e in np.eye(m.dim)])
        gain = mpc_gain(Ad, Bd, Q, R, P_term, horizon)
        assert np.max(np.abs(gain - batch)) < 1e-12 * max(
            1.0, np.max(np.abs(batch)))

    def test_one_step_scalar_closed_form(self):
        a, b, q, r, p = 0.9, 0.7, 1.0, 0.3, 2.0
        x = 0.4
        u = mpc_step(np.array([[a]]), np.array([[b]]), np.array([[q]]),
                     np.array([[r]]), np.array([[p]]), 1, np.array([x]))
        expected = -(b * p * a) / (r + b * p * b) * x
        assert u[0] == pytest.approx(expected, abs=1e-12)

    def test_bad_horizon(self):
        with pytest.raises(StructuralError):
            mpc_step(np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1),
                     0, np.zeros(1))
        with pytest.raises(StructuralError):
            mpc_gain(np.eye(1), np.eye(1), np.eye(1), np.eye(1), np.eye(1), 0)


class TestClosedLoopControllers:
    def test_zero_gain_pid_equals_open_loop(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 5.0)], horizon=20.0)
        m = sc.build_model()
        pid = PidController(m.beta, PidGains(), sc.control_period)
        zero = ZeroController(2)
        t1 = run_episode(sc, pid, model=m)
        t2 = run_episode(sc, zero, model=m)
        assert np.array_equal(t1.states, t2.states)

    def test_lqr_and_mpc_agree_in_closed_loop(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 2.0)], horizon=10.0)
        m = sc.build_model()
        Q, R = default_weights(m)
        t1 = run_episode(sc, LqrController(m, sc.control_period, Q, R),
                         model=m)
        t2 = run_episode(sc, MpcController(m, sc.control_period, Q, R),
                         model=m)
        assert np.max(np.abs(t1.states - t2.states)) < 1e-7

    def test_estimator_tracks_plant_without_attack(self):
        # Open-loop turbine/governor replication must agree with the plant
        # when fed the same commands and true frequency measurements.
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)], horizon=5.0)
        m = sc.build_model()

        class Probe(ZeroController):
            def __init__(self):
                super().__init__(2)
                self.est = StateEstimator(m, sc.control_period)
                self.errors = []

            def reset(self):
                self.est.reset()

            def observe(self, f):
                x = self.est.estimate(f)
                self.errors.append(x)
                u = np.zeros(2)
                self.est.advance(f, u)
                return u

        probe = Probe()
        traj = run_episode(sc, probe, model=m)
        ratio = sc.steps_per_control
        # Compare estimates against true states at the control instants.
        for k, est in enumerate(probe.errors):
            true = traj.states[k * ratio]
            assert np.max(np.abs(est[:2] - true[:2])) < 1e-12   # measured df
            assert np.max(np.abs(est[6:] - true[6:])) < 1e-12   # measured tie

    def test_estimator_equals_per_area_oracle(self):
        # A 3-area path grid with distinct constants, so a swapped block or
        # input order shows; the oracle discretizes each area's turbine and
        # governor on its own and steps them one area at a time.
        areas = [AreaParams(inertia=0.15, droop=2.0, governor_tc=0.07,
                            turbine_tc=0.25),
                 AreaParams(inertia=0.2, droop=2.6, governor_tc=0.09,
                            turbine_tc=0.35),
                 AreaParams(inertia=0.18, droop=3.1, governor_tc=0.12,
                            turbine_tc=0.45)]
        coef = np.zeros((3, 3))
        coef[0, 1] = coef[1, 0] = 0.06
        coef[1, 2] = coef[2, 1] = 0.04
        m = LfcModel(areas, TieTopology(3, coef))
        period = 0.1
        blocks = []
        for a in areas:
            a2 = np.array([[-1.0 / a.turbine_tc, 1.0 / a.turbine_tc],
                           [0.0, -1.0 / a.governor_tc]])
            b2 = np.array([[0.0, 0.0],
                           [1.0 / a.governor_tc,
                            -1.0 / (a.droop * a.governor_tc)]])
            blocks.append(zoh_discretize(a2, b2, period))
        mech, valve = np.zeros(3), np.zeros(3)

        est = StateEstimator(m, period)
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = frame(rng.normal(0, 0.01, 3), rng.normal(0, 0.01, 3))
            x = est.estimate(f)
            assert np.max(np.abs(x[3:6] - mech)) < 1e-15
            assert np.max(np.abs(x[6:9] - valve)) < 1e-15
            u = rng.normal(0, 0.05, 3)
            est.advance(f, u)
            for i, (ad, bd) in enumerate(blocks):
                z = ad @ [mech[i], valve[i]] + bd @ [u[i], f.freq[i]]
                mech[i], valve[i] = z
        assert np.max(np.abs(mech)) > 1e-3   # the commands moved the states


class TestTunePid:
    def test_single_candidate_returned(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 5.0)], horizon=30.0)
        g = tune_pid(sc, kp_grid=[0.3], ki_grid=[0.4])
        assert g.kp == 0.3 and g.ki == 0.4

    def test_denser_grid_never_worse(self):
        from agcsim.harness import compute_metrics

        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 5.0)], horizon=30.0)
        m = sc.build_model()

        def achieved_cost(gains):
            ctrl = PidController(m.beta, gains, sc.control_period)
            traj = run_episode(sc, ctrl, model=m)
            return compute_metrics(traj, m).ise

        coarse = np.logspace(-1, 0, 3)
        dense = np.logspace(-1, 0, 5)  # superset of the coarse grid
        g1 = tune_pid(sc, kp_grid=coarse, ki_grid=coarse)
        g2 = tune_pid(sc, kp_grid=dense, ki_grid=dense)
        assert achieved_cost(g2) <= achieved_cost(g1) + 1e-15

    def test_unstable_candidate_skipped(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 5.0)], horizon=30.0,
                      command_limit=50.0)
        m = sc.build_model()
        wild = PidGains(kp=1e4, ki=0.3)
        with pytest.raises(InstabilityError):
            run_episode(sc, PidController(m.beta, wild, sc.control_period),
                        model=m)
        g = tune_pid(sc, kp_grid=[0.3, 1e4], ki_grid=[0.3])
        assert (g.kp, g.ki) == (0.3, 0.3)

    def test_other_errors_propagate(self, monkeypatch):
        def broken(self, frame):
            raise ValueError("bug in the controller")

        monkeypatch.setattr(PidController, "observe", broken)
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 5.0)], horizon=5.0)
        with pytest.raises(ValueError, match="bug in the controller"):
            tune_pid(sc, kp_grid=[0.3], ki_grid=[0.3])

    @pytest.mark.parametrize("costs, want", [
        ([1.0, 1.0, 1.0, 1.0], (0.3, 0.1)),
        # Smallest Ki first, then smallest Kp; costs within 1e-15 tie.
        ([np.nan, 1.0, 1.0 - 5e-16, 1.0], (0.4, 0.1)),
        ([1.0, 1.0, 1.0 - 2e-15, 1.0], (0.3, 0.2)),
    ])
    def test_ties_break_to_smallest_ki_then_kp(self, monkeypatch, costs,
                                               want):
        order = []

        def fixed_costs(scenario, model, kp, ki):
            order.extend(zip(ki, kp))
            return np.array(costs)

        monkeypatch.setattr(controllers, "_pid_costs", fixed_costs)
        sc = Scenario(horizon=5.0)
        g = tune_pid(sc, kp_grid=[0.4, 0.3], ki_grid=[0.2, 0.1])
        assert order == [(0.1, 0.3), (0.1, 0.4), (0.2, 0.3), (0.2, 0.4)]
        assert (g.kp, g.ki) == want

    def test_equal_costs_on_a_real_episode(self):
        # A load that starts after the horizon leaves every cost at 0.
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 50.0)], horizon=5.0)
        g = tune_pid(sc, kp_grid=[0.5, 0.2], ki_grid=[0.4, 0.1])
        assert (g.kp, g.ki) == (0.2, 0.1)


@st.composite
def attack_signals(draw):
    kind = draw(st.sampled_from(ATTACK_KINDS))
    limit = 0.003 if kind == "ramp" else 0.02   # p.u./s or p.u.
    return AttackSignal(
        kind, draw(st.floats(-limit, limit)), draw(st.floats(0.0, 8.0)),
        InjectionPoint(draw(st.sampled_from(CHANNELS)),
                       draw(st.integers(0, 1))),
        duration=draw(st.floats(0.5, 4.0)) if kind == "pulse" else 0.0)


class TestBatchedCosts:
    """Every candidate of the stacked tuning rollout against a lone
    run_episode of the same gains."""

    @settings(max_examples=40, deadline=None)
    @given(gains=st.lists(st.tuples(st.floats(-2.0, 1.5),
                                    st.floats(-2.0, 1.5)),
                          min_size=1, max_size=6),
           attacks=st.lists(attack_signals(), max_size=2))
    @example(gains=[(np.log10(0.3), np.log10(0.3)), (4.0, np.log10(0.3))],
             attacks=[])
    def test_rows_equal_lone_episodes(self, gains, attacks):
        # With a high command limit about half of these gains diverge
        # within the horizon.
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)],
                      attacks=attacks, horizon=10.0, command_limit=50.0)
        m = sc.build_model()
        kp, ki = 10.0 ** np.array(gains).T
        costs = controllers._pid_costs(sc, m, kp, ki)
        for i, cost in enumerate(costs):
            ctrl = PidController(m.beta, PidGains(kp=kp[i], ki=ki[i]),
                                 sc.control_period)
            try:
                traj = run_episode(sc, ctrl, model=m)
            except (InstabilityError, NumericError):
                assert np.isnan(cost), (kp[i], ki[i])
                continue
            ise = compute_metrics(traj, m).ise
            assert abs(cost - ise) <= 1e-12 * ise, (kp[i], ki[i])
