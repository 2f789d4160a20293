"""Baseline controllers: PID arithmetic, ZOH discretization, Riccati solver,
MPC/LQR equivalence, and the PID tuner."""

import numpy as np
import pytest

from agcsim.attacks import MeasurementFrame
from agcsim.controllers import (LqrController, MpcController, PidController,
                                PidGains, StateEstimator, ZeroController,
                                dare_residual, default_weights, mpc_step,
                                solve_dare, tune_pid, zoh_discretize)
from agcsim.dynamics import two_area_benchmark
from agcsim.errors import InstabilityError, StructuralError
from agcsim.harness import run_episode
from agcsim.scenario import LoadEvent, Scenario


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
        t1 = run_episode(sc, LqrController(m, sc.control_period), model=m)
        t2 = run_episode(sc, MpcController(m, sc.control_period), model=m)
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
