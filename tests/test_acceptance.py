"""End-to-end acceptance gate.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s`` and in failure reports) and asserts the same condition, so a
red test and a FAIL line always agree.  The expensive artifacts — tuned PID
gains and a trained DQN policy — are built once per session.
"""

import copy
import filecmp
import time

import numpy as np
import pytest
from scipy.linalg import expm

from agcsim import cli
from agcsim.attacks import AttackSignal, MeasurementFrame
from agcsim.controllers import (PidController, PidGains, dare_residual,
                                default_weights, mpc_step, solve_dare,
                                tune_pid, zoh_discretize)
from agcsim.dqn import (ActionTable, DqnController, HyperParams, QNetwork,
                        Transition, loss_and_grads, select_action, train,
                        train_step)
from agcsim.dynamics import two_area_benchmark
from agcsim.errors import InstabilityError
from agcsim.harness import (compute_metrics, control_reward, run_episode,
                            write_comparison_csv)
from agcsim.scenario import load_scenario
from tests.test_dqn import td_target
from tests.test_scenario import SCENARIO_DIR

# Training setup used for the resilience checks; chosen by a calibration
# sweep so a desk-scale budget (fixed seed, well under 500 episodes and
# 15 minutes) yields a policy that beats the PID baseline under attack.
ACCEPT_EPISODES = 500
ACCEPT_SEED = 0
ACCEPT_HYPER = HyperParams(span=0.02, levels=5, gamma=0.99, obs_scale=100.0,
                           reward_scale=1e3, learning_rate=5e-3)

TRAIN_BUDGET_S = 15 * 60


def _verdict(label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {tag}{suffix}")
    assert ok, f"{label}{suffix}"


@pytest.fixture(scope="session")
def scenario_a():
    return load_scenario(SCENARIO_DIR / "scenario_a.txt")


@pytest.fixture(scope="session")
def pid_gains(scenario_a):
    return tune_pid(scenario_a)


@pytest.fixture(scope="session")
def pid_metrics_under_attack(scenario_a, pid_gains):
    model = scenario_a.build_model()
    ctrl = PidController(model.beta, pid_gains, scenario_a.control_period)
    traj = run_episode(scenario_a, ctrl, model=model)
    return compute_metrics(traj, model)


@pytest.fixture(scope="session")
def trained_dqn(scenario_a):
    t0 = time.perf_counter()
    net, log = train(scenario_a, ACCEPT_HYPER,
                     episodes=ACCEPT_EPISODES, seed=ACCEPT_SEED)
    wall = time.perf_counter() - t0
    table = ActionTable(len(scenario_a.areas), levels=ACCEPT_HYPER.levels,
                        span=ACCEPT_HYPER.span)
    ctrl = DqnController(net, table, ACCEPT_HYPER.obs_scale)
    return {"net": net, "log": log, "controller": ctrl, "wall": wall}


# ---------------------------------------------------------------------------
# 1. Fixed-step integrator accuracy against a matrix-exponential oracle
# ---------------------------------------------------------------------------

def test_c1_integrator_matches_matrix_exponential_oracle():
    t0 = time.perf_counter()
    model = two_area_benchmark()
    A, _ = model.assemble_linear_model()
    E = model.load_gain()
    p_load = np.array([0.01, 0.0])
    drive = -E @ p_load
    dim = A.shape[0]

    def max_error(h, t_end):
        steps = int(round(t_end / h))
        # Exact one-step map of x' = A x + drive via an augmented exponential.
        aug = np.zeros((dim + 1, dim + 1))
        aug[:dim, :dim] = A * h
        aug[:dim, dim] = drive * h
        phi = expm(aug)
        inputs = model.inputs(np.zeros(2), p_load)
        x = model.zero_state()
        x_ref = np.zeros(dim + 1)
        x_ref[dim] = 1.0
        worst = 0.0
        for _ in range(steps):
            x = model.rk4_step(x, inputs, h)
            x_ref = phi @ x_ref
            worst = max(worst, float(np.max(np.abs(x - x_ref[:dim]))))
        return worst

    err_fine = max_error(0.001, 10.0)
    e1 = max_error(0.02, 10.0)
    e2 = max_error(0.01, 10.0)
    order = np.log2(e1 / e2)
    wall = time.perf_counter() - t0

    _verdict("1a integrator error vs exact discretization (10 s, h=0.001)",
             err_fine < 1e-7, f"max abs {err_fine:.3g}")
    _verdict("1b observed convergence order",
             order >= 3.8, f"order {order:.3f}")
    _verdict("1c runtime", wall < 5.0, f"{wall:.2f} s")


# ---------------------------------------------------------------------------
# 2. Tuned PID regulates an attack-free load step
# ---------------------------------------------------------------------------

def test_c2_pid_holds_band_without_attack(scenario_a, pid_gains):
    clean = copy.deepcopy(scenario_a)
    clean.attacks = []
    model = clean.build_model()
    ctrl = PidController(model.beta, pid_gains, clean.control_period)
    traj = run_episode(clean, ctrl, model=model)
    late = traj.t >= 40.0
    worst = float(np.max(np.abs(traj.states[late, :model.n_areas])))
    _verdict("2 attack-free PID |df| < 1e-3 for t >= 40 s",
             worst < 1e-3, f"worst {worst:.3g}")


# ---------------------------------------------------------------------------
# 3. The same PID sustains a frequency offset under the sensor-bias attack
# ---------------------------------------------------------------------------

def test_c3_pid_offset_under_sensor_bias(pid_metrics_under_attack):
    dev = float(pid_metrics_under_attack.steady_state_freq_dev[1])
    # Independent prediction: a constant bias a on one frequency sensor
    # shifts both areas to -a/2 once the measured ACEs integrate to zero.
    predicted = 0.01 / 2.0
    _verdict("3 PID steady-state |df_2| under attack >= 5e-3",
             dev >= 5e-3 - 1e-6,
             f"dev {dev:.6g}, analytic {predicted}")
    np.testing.assert_allclose(dev, predicted, rtol=1e-3)


# ---------------------------------------------------------------------------
# 4. Trained DQN at desk scale beats the PID baseline under the same attack
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c4_dqn_resilience(scenario_a, trained_dqn, pid_metrics_under_attack):
    model = scenario_a.build_model()
    traj = run_episode(scenario_a, trained_dqn["controller"], model=model)
    dqn_dev = float(compute_metrics(traj, model).steady_state_freq_dev[1])
    pid_dev = float(pid_metrics_under_attack.steady_state_freq_dev[1])
    _verdict("4a training budget",
             trained_dqn["wall"] <= TRAIN_BUDGET_S
             and ACCEPT_EPISODES <= 500,
             f"{ACCEPT_EPISODES} episodes in {trained_dqn['wall']:.0f} s")
    _verdict("4b DQN steady-state |df_2| at most half of PID's",
             dqn_dev < pid_dev and dqn_dev <= 0.5 * pid_dev,
             f"dqn {dqn_dev:.6g} vs pid {pid_dev:.6g}")


# ---------------------------------------------------------------------------
# 5. Equation-level checks
# ---------------------------------------------------------------------------

def test_c5_equation_level_suite():
    # Exploration law: the greedy arm is taken with probability 1 - eps + eps/K.
    rng = np.random.default_rng(7)
    q = np.array([0.1, 0.9, -0.3, 0.2])
    eps, n = 0.3, 40_000
    hits = sum(select_action(q, eps, rng) == 1 for _ in range(n))
    p = 1.0 - eps + eps / q.size
    sigma = np.sqrt(p * (1.0 - p) / n)
    _verdict("5a epsilon-greedy frequency within 3 sigma",
             abs(hits / n - p) <= 3.0 * sigma,
             f"rate {hits / n:.4f} vs {p:.4f}")

    # Bootstrapped target and squared-error loss on hand-checked numbers.
    net = QNetwork([2, 3])
    net.weights[0][:] = 0.0
    net.biases[0][:] = [1.0, 2.0, 0.5]
    tr = Transition(np.zeros(2), 0, 1.0, np.zeros(2), False)
    target = td_target(tr, net, gamma=0.5)        # 1 + 0.5 * max(1,2,0.5)
    loss, _, _ = loss_and_grads(net, [tr.state], [tr.action], [target])
    _verdict("5b TD target and squared loss",
             abs(target - 2.0) < 1e-12 and abs(loss - 1.0) < 1e-12,
             f"target {target}, loss {loss}")

    # Zero learning rate must leave the parameters untouched.
    before = [w.copy() for w in net.weights]
    train_step(net, net.copy(), [tr], lr=0.0, gamma=0.5)
    unchanged = all(np.array_equal(a, b)
                    for a, b in zip(before, net.weights))
    _verdict("5c zero-step-size update is a no-op", unchanged)

    # Reward arithmetic: known state, and r <= 0 with equality iff quiet.
    model = two_area_benchmark()
    x = model.zero_state()
    _verdict("5d zero state gives exactly zero reward",
             control_reward(model, x, 0.1) == 0.0)
    x[0] = 0.01
    expected = -0.1 * (model.beta[0] * 0.01) ** 2
    got = control_reward(model, x, 0.1)
    _verdict("5e reward value and sign",
             got < 0.0 and abs(got - expected) < 1e-18,
             f"{got} vs {expected}")

    # Scalar Riccati fixed point: A=B=Q=R=1 gives the golden ratio.
    one = np.array([[1.0]])
    P, _ = solve_dare(one, one, one, one)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    res = float(np.max(np.abs(dare_residual(one, one, one, one, P))))
    _verdict("5f scalar Riccati solution",
             abs(P[0, 0] - golden) < 1e-9 and res < 1e-8,
             f"P {P[0, 0]:.12f}, residual {res:.3g}")

    # Receding-horizon first move equals the infinite-horizon feedback.
    A, B = model.assemble_linear_model()
    Ad, Bd = zoh_discretize(A, B, 0.1)
    Q, R = default_weights(model)
    Pinf, K = solve_dare(Ad, Bd, Q, R)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        x = rng.normal(scale=0.02, size=A.shape[0])
        u_mpc = mpc_step(Ad, Bd, Q, R, Pinf, horizon=20, x=x)
        worst = max(worst, float(np.max(np.abs(u_mpc - (-K @ x)))))
    _verdict("5g receding-horizon first move matches Riccati feedback",
             worst < 1e-9, f"max gap {worst:.3g}")

    # Backpropagated gradients against central finite differences.
    rng = np.random.default_rng(11)
    net = QNetwork([4, 8, 3], rng)
    states = rng.normal(size=(5, 4))
    actions = rng.integers(3, size=5)
    targets = rng.normal(size=5)
    _, gw, gb = loss_and_grads(net, states, actions, targets)
    eps_fd = 1e-6
    worst_rel = 0.0
    for params, grads in ((net.weights, gw), (net.biases, gb)):
        for arr, g in zip(params, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + eps_fd
                lp, _, _ = loss_and_grads(net, states, actions, targets)
                arr[idx] = keep - eps_fd
                lm, _, _ = loss_and_grads(net, states, actions, targets)
                arr[idx] = keep
                fd = (lp - lm) / (2.0 * eps_fd)
                denom = max(abs(fd), abs(g[idx]), 1e-8)
                worst_rel = max(worst_rel, abs(fd - g[idx]) / denom)
    _verdict("5h analytic vs finite-difference gradients",
             worst_rel < 1e-4, f"worst relative gap {worst_rel:.3g}")


# ---------------------------------------------------------------------------
# 6. Bit-level determinism of simulate and train
# ---------------------------------------------------------------------------

def test_c6_determinism(tmp_path):
    scen = str(SCENARIO_DIR / "scenario_a.txt")
    t1, t2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
    assert cli.main(["simulate", scen, "--out", str(t1)]) == 0
    assert cli.main(["simulate", scen, "--out", str(t2)]) == 0
    same_traj = filecmp.cmp(t1, t2, shallow=False)
    _verdict("6a repeated simulate gives bit-identical trajectories",
             same_traj)

    c1, c2 = tmp_path / "q1.txt", tmp_path / "q2.txt"
    for path in (c1, c2):
        code = cli.main(["train", scen, "--episodes", "5", "--seed", "0",
                         "--checkpoint", str(path)])
        assert code == 0
    same_ckpt = filecmp.cmp(c1, c2, shallow=False)
    _verdict("6b repeated train gives bit-identical checkpoints", same_ckpt)


# ---------------------------------------------------------------------------
# 7. Remaining attack scenarios run clean; learned policy beats doing nothing
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_c7_scenarios_b_c(trained_dqn, tmp_path):
    for name in ("scenario_b", "scenario_c"):
        scenario = load_scenario(SCENARIO_DIR / f"{name}.txt")
        model = scenario.build_model()
        rows = []
        rewards = {}
        for label, ctrl in (("dqn", trained_dqn["controller"]),
                            ("zero", None)):
            if ctrl is None:
                from agcsim.controllers import ZeroController
                ctrl = ZeroController(model.n_areas)
            try:
                traj = run_episode(scenario, ctrl, model=model)
            except InstabilityError as exc:
                _verdict(f"7 {name} runs without instability", False,
                         str(exc))
            met = compute_metrics(traj, model)
            rewards[label] = met.cumulative_reward
            rows.append({"controller": label, **met.row()})
        out = tmp_path / f"{name}_metrics.csv"
        write_comparison_csv(rows, out)
        _verdict(f"7a {name} executes and writes metrics",
                 out.is_file() and out.stat().st_size > 0)
        _verdict(f"7b {name} learned policy beats doing nothing",
                 rewards["dqn"] > rewards["zero"],
                 f"dqn {rewards['dqn']:.4g} vs zero {rewards['zero']:.4g}")
