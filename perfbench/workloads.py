"""The benchmark's four workloads.

A workload class has

* a constructor that makes the workload's inputs from the seed, writing any
  file the program reads (generated scenario, DQN checkpoint) to a work
  directory;
* `setup(workdir)`, everything a user pays before the first episode: parse,
  model build, controller synthesis, checkpoint load.  run.py times it in
  fresh processes for setup_s;
* `cases`, the operations of one cycle, in a seeded order;
* `run(state, case)`, one timed operation, returning an Outcome;
* `check(state, case, outcome)`, which raises CheckFailed on a wrong output.

Every check holds for any seed.  README.md gives the reason for each
workload.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from agcsim import controllers, dqn, factory, harness, scenario
from agcsim.attacks import CHANNELS
from agcsim.errors import AgcSimError

BENCH = Path(__file__).resolve().parent
SCENARIOS = BENCH.parent / "scenarios"
SHIPPED = ("a", "b", "c")

# Relative tolerance on the ISE of the evaluate cases that take no seed,
# against reference_ise.json.  Measured on the shipped scenarios: reordering
# the arithmetic of an RK4 step moves the ISE by at most 6e-15 and replacing
# the DARE fixed point by scipy's solver by 6e-13, while replacing RK4 by the
# exact zero-order-hold propagator moves it by 2.7e-11 to 5.8e-8.  So 5e-12
# admits round-off but not a change of integrator.
ISE_RTOL = 5e-12

# Absolute tolerance, p.u., of the grid3 zero-control end state.  Events
# start by t = 10 s and a pulse ends by t = 15 s.  Over 3000 seeds the
# slowest open-loop mode decays at 0.25 1/s, so 45 s later at most 1.1e-5 of
# a transient below 0.05 p.u. is left; the worst of 200 seeds was 3.7e-9.
SETTLED_ATOL = 1e-6

# Absolute tolerance, p.u., of the grid3 attack-layer identities, which are
# exact up to the round-off of adding an offset of at most 0.02 p.u.
OFFSET_ATOL = 1e-12


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


@dataclass
class Outcome:
    episodes: int
    data: object = None
    csv_bytes: int = 0


def shipped_scenario(key):
    return scenario.load_scenario(SCENARIOS / f"scenario_{key}.txt")


def controller_spec(name, checkpoint=None):
    """Factory spec of a controller name.

    `pid` is the scenario's own [controller] block, as `agcsim simulate`
    uses it: the bare spec "pid" builds a PID with zero gains.
    """
    if name == "pid":
        return None
    if name == "dqn":
        return f"dqn:{checkpoint}"
    return name


def same_net(a, b):
    return (a.sizes == b.sizes
            and all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


def check_finite(traj):
    if not np.all(np.isfinite(traj.states)):
        raise CheckFailed("non-finite state in trajectory")


class Evaluate:
    """Scenarios a, b, c x {zero, pid, lqr, mpc, dqn}, each trajectory
    written to CSV and read back."""

    name = "evaluate"
    CONTROLLERS = ("zero", "pid", "lqr", "mpc", "dqn")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        # The DQN policy is a seeded, untrained network, so it does not
        # depend on plant round-off.
        hyper = dqn.HyperParams()
        n = len(shipped_scenario("a").areas)
        table = dqn.ActionTable(n, levels=hyper.levels, span=hyper.span)
        self.net = dqn.QNetwork([2 * n, *hyper.hidden, table.size], rng)
        dqn.save_checkpoint(self.net, table, workdir / "dqn.txt",
                            hyper.obs_scale)
        pairs = [(s, c) for s in SHIPPED for c in self.CONTROLLERS]
        self.cases = [pairs[i] for i in rng.permutation(len(pairs))]
        self.reference = json.loads(
            (BENCH / "reference_ise.json").read_text(encoding="utf-8"))

    @staticmethod
    def setup(workdir):
        state = {}
        for key in SHIPPED:
            sc = shipped_scenario(key)
            model = sc.build_model()
            for name in Evaluate.CONTROLLERS:
                spec = controller_spec(name, workdir / "dqn.txt")
                state[key, name] = (sc, model, factory.build_controller(
                    sc, spec=spec, model=model))
        return state

    def run(self, state, case):
        sc, model, ctrl = state[case]
        traj = harness.run_episode(sc, ctrl, model=model)
        metrics = harness.compute_metrics(traj, model)
        # The file is removed after each read-back so the next write creates
        # it anew: overwriting a file just written makes ext4 flush it to
        # disk, which would time the disk instead of agcsim.
        path = self.workdir / "trajectory.csv"
        harness.write_trajectory_csv(traj, path, model)
        back = harness.read_trajectory_csv(path, model)
        size = path.stat().st_size
        path.unlink()
        return Outcome(1, (traj, metrics, back), size)

    def check(self, state, case, out):
        traj, metrics, back = out.data
        check_finite(traj)
        for name in ("t", "states", "meas_freq", "meas_tie", "u_cmd",
                     "u_applied", "rewards", "plant_step", "control_period"):
            if not np.array_equal(getattr(traj, name), getattr(back, name)):
                raise CheckFailed(f"CSV read-back differs in {name}")
        key, name = case
        if name == "dqn":
            if not same_net(state[case][2].net, self.net):
                raise CheckFailed("checkpoint round trip changed the policy")
            if not math.isfinite(metrics.ise):
                raise CheckFailed("non-finite ISE")
            return
        ref = self.reference[f"{key}/{name}"]
        if not abs(metrics.ise - ref) <= ISE_RTOL * abs(ref):
            raise CheckFailed(f"ISE {metrics.ise!r} is not the reference "
                              f"{ref!r} of scenario {key}/{name}")


class Train:
    """`dqn.train` on scenario a with the workload seed."""

    name = "train"
    EPISODES = 4   # per operation; each operation trains from scratch

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cases = ["train"]
        self.first_log = None

    @staticmethod
    def setup(workdir):
        return {"scenario": shipped_scenario("a"), "hyper": dqn.HyperParams()}

    def run(self, state, case):
        sc, hyper = state["scenario"], state["hyper"]
        net, log = dqn.train(sc, hyper, episodes=self.EPISODES,
                             seed=self.seed)
        table = dqn.ActionTable(len(sc.areas), levels=hyper.levels,
                                span=hyper.span)
        path = self.workdir / "train.txt"
        dqn.save_checkpoint(net, table, path, hyper.obs_scale)
        return Outcome(self.EPISODES, (net, log, path))

    def check(self, state, case, out):
        net, log, path = out.data
        loaded = factory.build_controller(state["scenario"],
                                          spec=f"dqn:{path}")
        path.unlink()  # not overwritten: see Evaluate.run
        if [row["episode"] for row in log] != list(range(self.EPISODES)):
            raise CheckFailed("training log does not have one row per episode")
        for row in log:
            if not all(math.isfinite(row[k])
                       for k in ("return", "epsilon", "loss_mean")):
                raise CheckFailed(f"non-finite training log row {row}")
        if self.first_log is None:
            self.first_log = log
        elif log != self.first_log:
            raise CheckFailed("same seed, different training log")
        hyper = state["hyper"]
        if not (same_net(loaded.net, net)
                and loaded.obs_scale == hyper.obs_scale
                and loaded.table.levels == hyper.levels
                and loaded.table.span == hyper.span):
            raise CheckFailed("checkpoint round trip is not bit-exact")


class Tune:
    """`controllers.tune_pid` on scenario a over a seeded 4 x 4 sub-grid of
    its default 9 x 9 grid that holds the shipped gains.  Every operation
    of a run tunes over the same sub-grid."""

    name = "tune"
    GRID = np.logspace(-1.5, 0.5, 9)   # tune_pid's default kp and ki grid
    PER_AXIS = 4

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        best = shipped_scenario("a").controller
        self.kp_grid = self.axis(rng, best["kp"])
        self.ki_grid = self.axis(rng, best["ki"])
        self.cases = ["tune"]

    @staticmethod
    def setup(workdir):
        shipped = [factory.build_controller(shipped_scenario(key)).gains
                   for key in SHIPPED]
        return {"scenario": shipped_scenario("a"), "shipped": shipped}

    @classmethod
    def axis(cls, rng, keep):
        others = cls.GRID[cls.GRID != keep]
        return np.sort(np.append(
            rng.choice(others, cls.PER_AXIS - 1, replace=False), keep))

    def run(self, state, case):
        gains = controllers.tune_pid(state["scenario"], self.kp_grid,
                                     self.ki_grid)
        return Outcome(len(self.kp_grid) * len(self.ki_grid), gains)

    def check(self, state, case, out):
        got = (out.data.kp, out.data.ki, out.data.kd)
        for key, want in zip(SHIPPED, state["shipped"]):
            if got != (want.kp, want.ki, want.kd):
                raise CheckFailed(f"tuned gains {got} differ from those "
                                  f"shipped in scenario_{key}.txt")


def grid3_text(rng, pid):
    """A seeded 3-area complete-graph scenario in the parser's own keys.

    The attack is a step or a pulse, never a ramp, so every episode has a
    closed-form end state to check.
    """
    u = rng.uniform
    lines = ["format_version = 1", "horizon = 60.0", "plant_step = 0.01",
             "control_period = 0.1"]
    for i in (1, 2, 3):
        damping, droop = u(0.006, 0.01), u(2.0, 2.8)
        lines += [f"[area {i}]",
                  f"inertia = {u(0.14, 0.2)!r}",
                  f"damping = {damping!r}",
                  f"droop = {droop!r}",
                  f"governor_tc = {u(0.06, 0.1)!r}",
                  f"turbine_tc = {u(0.25, 0.4)!r}",
                  f"freq_bias = {damping + 1.0 / droop!r}"]
    # Each area has two ties, so a tie is about half as stiff as the
    # two-area benchmark's 0.0867; with that, the shipped PID gains give a
    # stable closed loop on every seed tried (3000).
    for i, j in ((1, 2), (1, 3), (2, 3)):
        lines += [f"[tie {i} {j}]", f"coefficient = {u(0.04, 0.07)!r}"]

    def area():
        return int(rng.integers(1, 4))

    def signed():
        return float(rng.choice([-1.0, 1.0])) * u(0.005, 0.02)

    lines += ["[load]", f"area = {area()}", "kind = step",
              f"magnitude = {signed()!r}", f"start = {u(1.0, 10.0)!r}"]
    kind = ("step", "pulse")[int(rng.integers(2))]
    lines += ["[attack]", f"kind = {kind}",
              f"channel = {CHANNELS[int(rng.integers(3))]}",
              f"area = {area()}", f"magnitude = {signed()!r}",
              f"start = {u(1.0, 10.0)!r}"]
    if kind == "pulse":
        lines.append(f"duration = {u(1.0, 5.0)!r}")
    lines += ["[controller]", "type = pid"]
    lines += [f"{k} = {float(pid[k])!r}" for k in ("kp", "ki", "kd")]
    return "\n".join(lines) + "\n"


class Grid3:
    """A seeded 3-area grid under zero, pid, lqr and mpc."""

    name = "grid3"
    CONTROLLERS = ("zero", "pid", "lqr", "mpc")

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        pid = shipped_scenario("a").controller
        (workdir / "grid3.txt").write_text(grid3_text(rng, pid),
                                           encoding="utf-8")
        self.cases = [self.CONTROLLERS[i]
                      for i in rng.permutation(len(self.CONTROLLERS))]

    @staticmethod
    def setup(workdir):
        sc = scenario.load_scenario(workdir / "grid3.txt")
        model = sc.build_model()
        built = {}
        for name in Grid3.CONTROLLERS:
            try:
                built[name] = factory.build_controller(
                    sc, spec=controller_spec(name), model=model)
            except AgcSimError as exc:  # each of its operations fails
                built[name] = exc
        return {"scenario": sc, "model": model, "built": built}

    def run(self, state, case):
        ctrl = state["built"][case]
        if isinstance(ctrl, Exception):
            raise ctrl.with_traceback(None)
        sc, model = state["scenario"], state["model"]
        traj = harness.run_episode(sc, ctrl, model=model)
        return Outcome(1, (traj, harness.compute_metrics(traj, model)))

    def check(self, state, case, out):
        traj, metrics = out.data
        check_finite(traj)
        if not math.isfinite(metrics.ise):
            raise CheckFailed("non-finite ISE")
        sc, model = state["scenario"], state["model"]
        check_offsets(traj, sc, model)
        if case == "zero":
            # No secondary control: the frequency settles where governor
            # droop and load damping absorb the net power imbalance.
            error = traj.states[-1, :model.n_areas] - zero_end_freq(sc, model)
            if not np.max(np.abs(error)) <= SETTLED_ATOL:
                raise CheckFailed(f"end frequency is off its closed form by "
                                  f"{np.max(np.abs(error)):.3g} p.u.")


def offsets(attacks, channel, n, t):
    """Summed (len(t), n) offset of step and pulse attacks on one channel."""
    out = np.zeros((len(t), n))
    for atk in attacks:
        if atk.target.channel != channel:
            continue
        on = t >= atk.start_time
        if atk.kind == "pulse":
            on &= t < atk.start_time + atk.duration
        out[:, atk.target.area] += np.where(on, atk.magnitude, 0.0)
    return out


def check_offsets(traj, sc, model):
    """What the controller saw and what the governor got differ from the
    true state and the command by exactly the seeded attack."""
    t = traj.t
    # Commands, and the attack on them, are held from the last control step.
    ratio = sc.steps_per_control
    held = t[np.minimum(np.arange(len(t)) // ratio,
                        sc.n_control_steps - 1) * ratio]
    diffs = {
        "frequency_sensor": (traj.meas_freq - model.freq(traj.states), t),
        "tieline_sensor": (traj.meas_tie - model.net_tie(traj.states), t),
        "control_signal": (traj.u_applied - traj.u_cmd, held),
    }
    for channel, (diff, times) in diffs.items():
        want = offsets(sc.attacks, channel, model.n_areas, times)
        if not np.max(np.abs(diff - want)) <= OFFSET_ATOL:
            raise CheckFailed(f"{channel} offset is not the seeded attack")


def zero_end_freq(sc, model):
    """Steady frequency deviation under zero control after all events."""
    power = 0.0
    for ev in sc.loads:
        power -= ev.magnitude
    for atk in sc.attacks:
        if atk.target.channel == "control_signal" and atk.kind == "step":
            power += atk.magnitude
    stiffness = sum(a.damping + 1.0 / a.droop for a in model.areas)
    return power / stiffness


WORKLOADS = {w.name: w for w in (Evaluate, Train, Tune, Grid3)}
