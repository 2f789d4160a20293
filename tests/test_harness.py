"""Episode execution, metrics, trajectory persistence, and comparison."""

from pathlib import Path

import numpy as np
import pytest

from agcsim.attacks import (AttackSignal, InjectionPoint, corrupt_control,
                            corrupt_measurements, measure)
from agcsim.controllers import PidController, PidGains, ZeroController
from agcsim.dynamics import AreaParams
from agcsim.errors import InstabilityError, NumericError, StructuralError
from agcsim.factory import build_controller
from agcsim.cli import main
from agcsim.harness import (Trajectory, _rollout, compare, compute_metrics,
                            control_reward, format_comparison,
                            read_trajectory_csv, run_episode,
                            write_comparison_csv, write_trajectory_csv)
from agcsim.scenario import LoadEvent, Scenario, load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def empty_trajectory(model, plant_step=0.01, control_period=0.1):
    """A trajectory with no rows."""
    n = model.n_areas
    return Trajectory(np.empty(0), np.empty((0, model.dim)),
                      np.empty((0, n)), np.empty((0, n)),
                      np.empty((0, n)), np.empty((0, n)),
                      np.empty(0), plant_step, control_period)


def freq_attack(area=1, magnitude=0.01, start=5.0):
    return AttackSignal("step", magnitude, start,
                        InjectionPoint("frequency_sensor", area))


class TestRunEpisode:
    def test_equilibrium_stays_zero(self):
        sc = Scenario(horizon=5.0)
        traj = run_episode(sc, ZeroController(2))
        assert np.all(traj.states == 0)
        assert np.all(traj.rewards == 0)

    def test_grid_lengths(self):
        sc = Scenario(horizon=5.0)
        traj = run_episode(sc, ZeroController(2))
        assert len(traj) == 501
        assert len(traj.rewards) == 50
        assert traj.t[-1] == pytest.approx(5.0)

    def test_sensor_attack_cannot_touch_plant(self):
        base = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)], horizon=10.0)
        attacked = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)],
                            attacks=[freq_attack()], horizon=10.0)
        t1 = run_episode(base, ZeroController(2))
        t2 = run_episode(attacked, ZeroController(2))
        assert np.array_equal(t1.states, t2.states)
        assert not np.array_equal(t1.meas_freq, t2.meas_freq)

    def test_commands_change_only_at_control_rate(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)], horizon=5.0)
        m = sc.build_model()
        pid = PidController(m.beta, PidGains(kp=0.3, ki=0.3),
                            sc.control_period)
        traj = run_episode(sc, pid, model=m)
        ratio = sc.steps_per_control
        changes = np.nonzero(np.any(np.diff(traj.u_cmd, axis=0) != 0,
                                    axis=1))[0] + 1
        assert np.all(changes % ratio == 0)

    def test_rewards_recomputable_from_states(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)], horizon=5.0)
        m = sc.build_model()
        traj = run_episode(sc, ZeroController(2), model=m)
        ratio = sc.steps_per_control
        for mth, r in enumerate(traj.rewards):
            state = traj.states[(mth + 1) * ratio]
            assert r == control_reward(m, state, sc.control_period)

    def test_determinism(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_a.txt")
        m = sc.build_model()
        from agcsim.factory import build_controller
        t1 = run_episode(sc, build_controller(sc, model=m), model=m)
        t2 = run_episode(sc, build_controller(sc, model=m), model=m)
        assert np.array_equal(t1.states, t2.states)
        assert np.array_equal(t1.rewards, t2.rewards)

    def test_divergence_guard(self):
        class Runaway(ZeroController):
            def observe(self, frame):
                return np.full(2, 1e6)  # clamped to 0.5, pushes hard

        sc = Scenario(horizon=400.0, command_limit=60.0)
        with pytest.raises(InstabilityError):
            run_episode(sc, Runaway(2))


def reference_episode(scenario, controller, model):
    """The plain loop run_episode must reproduce: one rk4_step per plant
    step, a scalar load sum, and a measurement frame at every plant step.

    Returns (states, meas_freq, meas_tie, u_cmd, u_applied, rewards).
    """
    n = model.n_areas
    h = scenario.plant_step
    ratio = scenario.steps_per_control
    k_total = scenario.n_control_steps * ratio
    controller.reset()
    attacks = scenario.attacks
    state = model.zero_state()
    rows = []
    rewards = []
    cmd = applied = np.zeros(n)
    for k in range(k_total + 1):
        t = k * h
        frame = corrupt_measurements(measure(model, state, t), attacks, t)
        if k % ratio == 0 and k < k_total:
            cmd = np.asarray(controller.observe(frame), dtype=float)
            applied = corrupt_control(cmd, attacks, t)
        rows.append((state, frame.freq, frame.net_tie, cmd, applied))
        if k == k_total:
            break
        load = np.zeros(n)
        for ev in scenario.loads:
            if t - ev.start >= 0:
                load[ev.area] += ev.magnitude if ev.kind == "step" \
                    else ev.magnitude * (t - ev.start)
        state = model.rk4_step(state, model.inputs(applied, load), h)
        if np.max(np.abs(state)) > 10.0:
            raise InstabilityError(
                f"state exceeded 10.0 p.u. at t={t + h:.3f}s", t=t + h)
        if (k + 1) % ratio == 0:
            rewards.append(control_reward(model, state,
                                          scenario.control_period))
    return (*(np.array(col) for col in zip(*rows)), np.array(rewards))


def five_area_scenario(**kwargs):
    """A ring of five areas with a tie across; attacks on every channel."""
    n = 5
    coef = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        coef[i, j] = coef[j, i] = 0.05 + 0.01 * i
    coef[0, 2] = coef[2, 0] = 0.04
    attacks = [
        AttackSignal("ramp", 0.002, 2.0, InjectionPoint("tieline_sensor", 3)),
        AttackSignal("pulse", -0.01, 1.0, InjectionPoint("frequency_sensor", 1),
                     duration=1.5),
        AttackSignal("step", 0.01, 3.0, InjectionPoint("control_signal", 4)),
    ]
    return Scenario(areas=[AreaParams(inertia=0.15 + 0.01 * i)
                           for i in range(n)],
                    tie_coefficients=coef, attacks=attacks,
                    loads=[LoadEvent(2, "step", 0.01, 0.5),
                           LoadEvent(0, "ramp", -0.002, 1.0)], **kwargs)


class TestAgainstReferenceLoop:
    """run_episode advances a control period per matrix product; it must
    match the plain RK4 loop to round-off."""

    @pytest.mark.parametrize("key", ["a", "b", "c"])
    @pytest.mark.parametrize("spec", [None, "zero", "lqr", "mpc"])
    def test_shipped_scenarios(self, key, spec):
        sc = load_scenario(SCENARIO_DIR / f"scenario_{key}.txt")
        m = sc.build_model()
        traj = run_episode(sc, build_controller(sc, spec=spec, model=m),
                           model=m)
        states, mf, mt, uc, ua, rewards = reference_episode(
            sc, build_controller(sc, spec=spec, model=m), m)
        assert np.max(np.abs(traj.states - states)) <= 1e-12
        assert np.max(np.abs(traj.meas_freq - mf)) <= 1e-12
        assert np.max(np.abs(traj.meas_tie - mt)) <= 1e-12
        assert np.max(np.abs(traj.rewards - rewards)) <= 1e-12
        if spec == "zero":
            assert np.array_equal(traj.u_cmd, uc)
            assert np.array_equal(traj.u_applied, ua)
        else:
            assert np.max(np.abs(traj.u_cmd - uc)) <= 1e-10
            assert np.max(np.abs(traj.u_applied - ua)) <= 1e-10

    def test_five_area_grid(self):
        sc = five_area_scenario(horizon=6.0, plant_step=0.005,
                                control_period=0.05)
        m = sc.build_model()
        pid = PidController(m.beta, PidGains(kp=0.3, ki=0.3),
                            sc.control_period)
        traj = run_episode(sc, pid, model=m)
        states, mf, mt, uc, ua, rewards = reference_episode(sc, pid, m)
        assert np.max(np.abs(traj.states - states)) <= 1e-12
        assert np.max(np.abs(traj.u_applied - ua)) <= 1e-10

    def test_divergence_reports_first_step(self):
        class Runaway(ZeroController):
            def observe(self, frame):
                return np.full(2, 1e6)

        sc = Scenario(horizon=400.0, command_limit=60.0)
        m = sc.build_model()
        with pytest.raises(InstabilityError) as ref:
            reference_episode(sc, Runaway(2), m)
        with pytest.raises(InstabilityError) as got:
            run_episode(sc, Runaway(2), model=m)
        assert str(got.value) == str(ref.value)
        assert got.value.t == ref.value.t

    def test_non_finite_state(self, monkeypatch):
        sc = Scenario(horizon=1.0)
        m = sc.build_model()
        lift = m.period_map(sc.plant_step, sc.steps_per_control)
        lift[3 * m.dim] = np.nan   # a row of the period's fourth state
        monkeypatch.setattr(m, "period_map", lambda h, steps: lift)
        with pytest.raises(NumericError, match="non-finite state"):
            run_episode(sc, ZeroController(2), model=m)


class TestRollout:
    def test_stopped_row_frozen_at_zero_with_lone_error(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 5.0)], horizon=30.0,
                      command_limit=50.0)
        m = sc.build_model()
        gains = PidGains(kp=np.array([[0.3], [1e4]]), ki=0.3)
        blocks = []
        t_grid, faults = _rollout(
            sc, m, PidController(m.beta, gains, sc.control_period),
            lambda *period: blocks.append(period[-1].copy()),
            batch=(2,))
        with pytest.raises(InstabilityError) as lone:
            run_episode(sc, PidController(m.beta, PidGains(kp=1e4, ki=0.3),
                                          sc.control_period), model=m)
        assert faults[0] is None
        assert type(faults[1]) is InstabilityError
        assert str(faults[1]) == str(lone.value)
        assert faults[1].t == lone.value.t
        stop = int(lone.value.t / sc.control_period - 1e-9)
        assert len(blocks) == sc.n_control_steps
        assert np.any(blocks[stop - 1][1] != 0)
        assert all(np.all(b[1] == 0) for b in blocks[stop:])
        assert all(np.any(b[0] != 0) for b in blocks[stop:])


class TestRecordedMeasurements:
    """The per-plant-step measurement record is computed once per episode;
    it must hold what corrupt_measurements gives for each row."""

    @pytest.mark.parametrize("key", ["a", "b", "c"])
    def test_bit_identical_to_per_row_frames(self, key):
        sc = load_scenario(SCENARIO_DIR / f"scenario_{key}.txt")
        m = sc.build_model()
        traj = run_episode(sc, build_controller(sc, model=m), model=m)
        for k, t in enumerate(traj.t):
            frame = corrupt_measurements(measure(m, traj.states[k], t),
                                         sc.attacks, t)
            assert np.array_equal(frame.freq, traj.meas_freq[k])
            assert np.array_equal(frame.net_tie, traj.meas_tie[k])

    def test_controller_rows_exact_on_five_areas(self):
        sc = five_area_scenario(horizon=3.0)
        m = sc.build_model()

        class Recorder(ZeroController):
            seen = []

            def observe(self, frame):
                self.seen.append(frame.copy())
                return super().observe(frame)

        rec = Recorder(5)
        traj = run_episode(sc, rec, model=m)
        ratio = sc.steps_per_control
        for i, frame in enumerate(rec.seen):
            assert np.array_equal(frame.freq, traj.meas_freq[i * ratio])
            assert np.array_equal(frame.net_tie, traj.meas_tie[i * ratio])
        for k, t in enumerate(traj.t):
            frame = corrupt_measurements(measure(m, traj.states[k], t),
                                         sc.attacks, t)
            assert np.array_equal(frame.freq, traj.meas_freq[k])
            # Other rows: the stacked net tie flow sums in another order.
            assert np.max(np.abs(frame.net_tie - traj.meas_tie[k])) <= 1e-15


class TestComputeMetrics:
    def _constant_zero(self):
        sc = Scenario(horizon=2.0)
        return run_episode(sc, ZeroController(2)), sc.build_model()

    def test_zero_trajectory(self):
        traj, m = self._constant_zero()
        met = compute_metrics(traj, m)
        assert np.all(met.max_freq_dev == 0)
        assert np.all(met.settling_time == 0)
        assert np.all(met.settled)
        assert met.ise == 0
        assert met.cumulative_reward == 0

    def test_synthetic_exponential_settling(self):
        m = Scenario(horizon=6.0).build_model()
        t = np.arange(0, 6.001, 0.01)
        states = np.zeros((len(t), m.dim))
        states[:, 0] = 0.01 * np.exp(-t)
        n = len(t)
        traj = Trajectory(t, states, states[:, :2], np.zeros((n, 2)),
                          np.zeros((n, 2)), np.zeros((n, 2)),
                          np.zeros(6), 0.01, 1.0)
        met = compute_metrics(traj, m, band=1e-3)
        assert met.settling_time[0] == pytest.approx(np.log(10), abs=0.011)
        assert met.settled[0]

    def test_diverging_not_settled(self):
        m = Scenario(horizon=2.0).build_model()
        t = np.arange(0, 2.001, 0.01)
        states = np.zeros((len(t), m.dim))
        states[:, 0] = 0.01 * np.exp(t)
        n = len(t)
        traj = Trajectory(t, states, states[:, :2], np.zeros((n, 2)),
                          np.zeros((n, 2)), np.zeros((n, 2)),
                          np.zeros(2), 0.01, 1.0)
        met = compute_metrics(traj, m, band=1e-3)
        assert not met.settled[0]
        assert np.isnan(met.settling_time[0])

    def test_empty_rejected(self):
        m = Scenario(horizon=2.0).build_model()
        with pytest.raises(StructuralError):
            compute_metrics(empty_trajectory(m), m)


class TestTrajectoryCsv:
    def _random_traj(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)],
                      attacks=[freq_attack(start=1.0)], horizon=3.0)
        m = sc.build_model()
        pid = PidController(m.beta, PidGains(kp=0.3, ki=0.3),
                            sc.control_period)
        return run_episode(sc, pid, model=m), m

    def test_round_trip(self, tmp_path):
        traj, m = self._random_traj()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, m)
        back = read_trajectory_csv(path, m)
        for attr in ("t", "states", "meas_freq", "meas_tie", "u_cmd",
                     "u_applied", "rewards"):
            assert np.array_equal(getattr(traj, attr), getattr(back, attr)), attr
        assert back.plant_step == traj.plant_step
        assert back.control_period == traj.control_period

    def test_column_count(self, tmp_path):
        traj, m = self._random_traj()
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, m)
        lines = path.read_text().splitlines()
        n, p = 2, 1
        expected = 1 + 3 * n + p + 2 * n + 2 * n + 1
        assert len(lines[1].split(",")) == expected
        assert lines[1].startswith("t,df_1,df_2,")

    def test_empty_trajectory_header_only(self, tmp_path):
        m = Scenario(horizon=2.0).build_model()
        path = tmp_path / "empty.csv"
        write_trajectory_csv(empty_trajectory(m), path, m)
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # metadata + header row

    @pytest.mark.parametrize("cut", ["mid_row", "long_row", "bad_number",
                                     "bad_header"])
    def test_damaged_file_names_path_and_line(self, tmp_path, capsys, cut):
        path = tmp_path / "traj.csv"
        assert main(["simulate", str(SCENARIO_DIR / "scenario_a.txt"),
                     "--out", str(path)]) == 0
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        if cut == "mid_row":   # the file ends halfway through its last row
            damaged = text[:len(text) - len(lines[-1]) // 2]
        elif cut == "long_row":
            damaged = "".join(lines[:5]) + lines[5].rstrip("\n") + ",0.0\n"
        elif cut == "bad_number":
            damaged = "".join(lines[:5]) + lines[5].replace(",", ",x", 1)
        else:
            damaged = text.replace("plant_step=", "plant_step", 1)
        path.write_text(damaged)
        line = {"mid_row": len(lines), "bad_header": 1}.get(cut, 6)
        m = load_scenario(SCENARIO_DIR / "scenario_a.txt").build_model()
        with pytest.raises(StructuralError, match=f"line {line}:") as err:
            read_trajectory_csv(path, m)
        assert str(path) in str(err.value)

    def test_write_error_carries_path(self):
        traj, m = self._random_traj()
        with pytest.raises(OSError, match="/nonexistent/x.csv"):
            write_trajectory_csv(traj, "/nonexistent/x.csv", m)


class TestCompare:
    def test_controller_against_itself(self):
        sc = Scenario(loads=[LoadEvent(0, "step", 0.01, 1.0)], horizon=5.0)
        m = sc.build_model()
        rows = compare(sc, [
            ("a", PidController(m.beta, PidGains(kp=0.3, ki=0.3),
                                sc.control_period)),
            ("b", PidController(m.beta, PidGains(kp=0.3, ki=0.3),
                                sc.control_period)),
        ])
        for key in rows[0]:
            if key == "controller":
                continue
            np.testing.assert_equal(rows[0][key], rows[1][key])  # nan-safe

    def test_empty_list(self):
        sc = Scenario(horizon=2.0)
        rows = compare(sc, [])
        assert rows == []
        table = format_comparison(rows)
        assert table.startswith("controller")

    def test_failing_row_does_not_abort_others(self):
        class Broken(ZeroController):
            def observe(self, frame):
                raise RuntimeError("boom")

        sc = Scenario(horizon=2.0)
        rows = compare(sc, [("bad", Broken(2)), ("ok", ZeroController(2))])
        assert "error" in rows[0]
        assert "error" not in rows[1]

    def test_csv_output(self, tmp_path):
        sc = Scenario(horizon=2.0)
        rows = compare(sc, [("zero", ZeroController(2))])
        path = tmp_path / "cmp.csv"
        write_comparison_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("controller,max_freq_dev")
        assert len(lines) == 2
