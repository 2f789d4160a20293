"""Closed-loop episode execution, metrics, and trajectory persistence.

One episode: every control period the controller sees a (possibly attacked)
measurement frame and issues per-area commands; the commands pass through
the control-channel attack layer, are held for the whole period, and the
plant integrates the TRUE state with RK4 at the plant step, one whole period
per matrix product.  Rewards are recorded once per control step from the
end-of-step true state.
"""

from dataclasses import dataclass, field

import numpy as np

from .attacks import (MeasurementFrame, corrupt_control,
                      corrupt_measurements, measure)
from .errors import InstabilityError, NumericError, StructuralError

# States beyond this deviation are far outside linear-model validity.
DIVERGENCE_LIMIT = 10.0


def penalties(model, states):
    """Per row of a (..., dim) state stack: sum over areas of
    (beta_i*df_i)^2 + (net tie flow_i)^2."""
    df = model.freq(states)
    tie = model.net_tie(states)
    return np.sum((model.beta * df) ** 2 + tie ** 2, axis=-1)


def step_penalty(model, state):
    """Sum over areas of (beta_i*df_i)^2 + (net tie flow_i)^2."""
    return float(penalties(model, state))


def control_reward(model, state, dt):
    """Per-control-step reward: -dt times the end-of-step penalty."""
    return -dt * step_penalty(model, state)


@dataclass
class Trajectory:
    """Uniform-grid record of one episode (one row per plant step)."""

    t: np.ndarray                # (K+1,)
    states: np.ndarray           # (K+1, dim) true states
    meas_freq: np.ndarray        # (K+1, N) attacked frequency measurements
    meas_tie: np.ndarray         # (K+1, N) attacked net tie measurements
    u_cmd: np.ndarray            # (K+1, N) controller output (pre-attack)
    u_applied: np.ndarray        # (K+1, N) actuated command (post-attack)
    rewards: np.ndarray          # (M,) one per control step
    plant_step: float
    control_period: float

    def __len__(self):
        return len(self.t)


def run_episode(scenario, controller, model=None):
    """Run one closed-loop episode; deterministic given the scenario.

    Each control period the controller sees one measurement frame and the
    plant advances the whole period at once through model.period_map, the
    exact map of the period's RK4 steps.
    """
    if model is None:
        model = scenario.build_model()
    n = model.n_areas
    dim = model.dim
    h = scenario.plant_step
    ratio = scenario.steps_per_control
    n_ctrl = scenario.n_control_steps
    k_total = n_ctrl * ratio

    controller.reset()
    attacks = scenario.attacks
    lift = model.period_map(h, ratio)

    t_grid = np.arange(k_total + 1) * h
    loads = scenario.load_vector(t_grid[:-1]).reshape(n_ctrl, ratio * n)
    states = np.empty((k_total + 1, dim))
    states[0] = model.zero_state()
    seen_freq = np.empty((n_ctrl, n))
    seen_tie = np.empty((n_ctrl, n))
    u_cmd = np.empty((k_total + 1, n))
    u_applied = np.empty((k_total + 1, n))

    for m in range(n_ctrl):
        k = m * ratio
        t = t_grid[k]
        frame = corrupt_measurements(measure(model, states[k], t), attacks, t)
        seen_freq[m] = frame.freq
        seen_tie[m] = frame.net_tie
        cmd = np.asarray(controller.observe(frame), dtype=float)
        if cmd.shape != (n,):
            raise StructuralError(
                f"controller returned shape {cmd.shape}, expected ({n},)")
        if not np.isfinite(cmd).all():
            raise InstabilityError(f"non-finite command at t={t:.3f}s", t=t)
        applied = corrupt_control(cmd, attacks, t)
        u_cmd[k:k + ratio] = cmd
        u_applied[k:k + ratio] = applied

        held = np.clip(applied, -model.p_c_max, model.p_c_max)
        block = (lift @ np.concatenate([states[k], held, loads[m]])).reshape(
            ratio, dim)
        if not np.abs(block).max() <= DIVERGENCE_LIMIT:
            _raise_divergence(block, t_grid, k, h)
        states[k + 1:k + ratio + 1] = block
    u_cmd[k_total] = cmd
    u_applied[k_total] = applied

    # What the sensors reported at every plant step, through the same attack
    # arithmetic the controller's frames went through.  On grids of four or
    # more areas the stacked net tie flow can differ from a single frame's in
    # the last bit (summation order), so the rows the controller saw are
    # written back exactly.
    reported = corrupt_measurements(
        MeasurementFrame(model.freq(states), model.net_tie(states), t_grid),
        attacks, t_grid)
    meas_freq, meas_tie = reported.freq, reported.net_tie
    meas_freq[:k_total:ratio] = seen_freq
    meas_tie[:k_total:ratio] = seen_tie

    # control_reward of each period's end state, computed for all periods at
    # once (with the same last-bit caveat as above on four or more areas).
    rewards = -scenario.control_period * penalties(model, states[ratio::ratio])
    return Trajectory(t_grid, states, meas_freq, meas_tie, u_cmd, u_applied,
                      rewards, h, scenario.control_period)


def _raise_divergence(block, t_grid, k, h):
    """Report the first plant step of a period block that left the limit."""
    peak = np.max(np.abs(block), axis=1)
    j = int(np.argmax(~(peak <= DIVERGENCE_LIMIT)))
    if not np.isfinite(peak[j]):
        raise NumericError(f"non-finite state after RK4 step of h={h}")
    t = t_grid[k + j] + h
    raise InstabilityError(
        f"state exceeded {DIVERGENCE_LIMIT} p.u. at t={t:.3f}s", t=t)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

@dataclass
class Metrics:
    """Summary statistics of one trajectory."""

    max_freq_dev: np.ndarray        # per area, p.u.
    settling_time: np.ndarray       # per area, s; nan when never settled
    settled: np.ndarray             # per area, bool
    ise: float                      # integral of the squared-deviation penalty
    cumulative_reward: float
    final_freq_dev: np.ndarray      # |df_i| at horizon
    steady_state_freq_dev: np.ndarray  # |mean df_i| over the last 20%

    def row(self):
        return {
            "max_freq_dev": float(np.max(self.max_freq_dev)),
            "settling_time": (float(np.max(self.settling_time))
                              if bool(np.all(self.settled)) else float("nan")),
            "settled": bool(np.all(self.settled)),
            "ise": self.ise,
            "cumulative_reward": self.cumulative_reward,
            "final_freq_dev": float(np.max(self.final_freq_dev)),
            "steady_state_freq_dev": float(np.max(self.steady_state_freq_dev)),
        }


def compute_metrics(traj, model, band=1e-3):
    """Metrics over one trajectory; settling must be sustained to horizon."""
    if len(traj) == 0:
        raise StructuralError("empty trajectory")
    df = model.freq(traj.states)
    n = df.shape[1]
    max_dev = np.max(np.abs(df), axis=0)

    settling = np.full(n, np.nan)
    settled = np.zeros(n, dtype=bool)
    inside = np.abs(df) < band
    for i in range(n):
        col = inside[:, i]
        if col[-1]:
            # last index where the trajectory was outside the band
            outside = np.nonzero(~col)[0]
            k = 0 if len(outside) == 0 else outside[-1] + 1
            settling[i] = traj.t[k]
            settled[i] = True

    integrand = penalties(model, traj.states)
    ise = float(np.trapezoid(integrand, traj.t))
    tail = max(1, int(round(0.2 * len(traj))))
    return Metrics(
        max_freq_dev=max_dev,
        settling_time=settling,
        settled=settled,
        ise=ise,
        cumulative_reward=float(np.sum(traj.rewards)),
        final_freq_dev=np.abs(df[-1]),
        steady_state_freq_dev=np.abs(np.mean(df[-tail:], axis=0)),
    )


# ---------------------------------------------------------------------------
# CSV persistence
# ---------------------------------------------------------------------------

def _columns(n_areas, pairs):
    cols = ["t"]
    cols += [f"df_{i + 1}" for i in range(n_areas)]
    cols += [f"pm_{i + 1}" for i in range(n_areas)]
    cols += [f"pv_{i + 1}" for i in range(n_areas)]
    cols += [f"ptie_{i + 1}_{j + 1}" for i, j in pairs]
    cols += [f"df_meas_{i + 1}" for i in range(n_areas)]
    cols += [f"ptie_meas_{i + 1}" for i in range(n_areas)]
    cols += [f"u_cmd_{i + 1}" for i in range(n_areas)]
    cols += [f"u_applied_{i + 1}" for i in range(n_areas)]
    cols += ["reward"]
    return cols


def write_trajectory_csv(traj, path, model):
    """Write a trajectory as CSV (exact decimal round-trip via repr)."""
    ratio = round(traj.control_period / traj.plant_step)
    cols = _columns(model.n_areas, model.pairs)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# agcsim-trajectory format_version=1 "
                     f"plant_step={traj.plant_step!r} "
                     f"control_period={traj.control_period!r}\n")
            fh.write(",".join(cols) + "\n")
            for k in range(len(traj)):
                reward = 0.0
                if k > 0 and k % ratio == 0:
                    reward = traj.rewards[k // ratio - 1]
                row = np.concatenate([
                    [traj.t[k]], traj.states[k], traj.meas_freq[k],
                    traj.meas_tie[k], traj.u_cmd[k], traj.u_applied[k],
                    [reward]])
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write trajectory to {path}: {exc}") from exc


def read_trajectory_csv(path, model):
    """Read back a trajectory written by write_trajectory_csv."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            if not header.startswith("# agcsim-trajectory"):
                raise StructuralError(f"{path}: not a trajectory file")
            meta = dict(tok.split("=", 1) for tok in header.split()[2:])
            h = float(meta["plant_step"])
            dt = float(meta["control_period"])
            names = fh.readline().rstrip("\n").split(",")
            expected = _columns(model.n_areas, model.pairs)
            if names != expected:
                raise StructuralError(f"{path}: column mismatch")
            data = np.array([[float(v) for v in line.rstrip("\n").split(",")]
                             for line in fh if line.strip()])
    except OSError as exc:
        raise OSError(f"cannot read trajectory from {path}: {exc}") from exc
    n, p = model.n_areas, model.n_pairs
    ratio = round(dt / h)
    if data.size == 0:
        data = data.reshape(0, len(expected))
    t = data[:, 0]
    ofs = 1
    states = data[:, ofs:ofs + 3 * n + p]; ofs += 3 * n + p
    mf = data[:, ofs:ofs + n]; ofs += n
    mt = data[:, ofs:ofs + n]; ofs += n
    uc = data[:, ofs:ofs + n]; ofs += n
    ua = data[:, ofs:ofs + n]; ofs += n
    reward_col = data[:, ofs]
    n_ctrl = (len(t) - 1) // ratio if len(t) else 0
    rewards = np.array([reward_col[(m + 1) * ratio] for m in range(n_ctrl)])
    return Trajectory(t, states, mf, mt, uc, ua, rewards, h, dt)


def empty_trajectory(model, plant_step=0.01, control_period=0.1):
    n = model.n_areas
    return Trajectory(np.empty(0), np.empty((0, model.dim)),
                      np.empty((0, n)), np.empty((0, n)),
                      np.empty((0, n)), np.empty((0, n)),
                      np.empty(0), plant_step, control_period)


# ---------------------------------------------------------------------------
# Controller comparison
# ---------------------------------------------------------------------------

COMPARE_FIELDS = ("max_freq_dev", "settling_time", "ise",
                  "cumulative_reward", "final_freq_dev",
                  "steady_state_freq_dev")


def compare(scenario, controllers, band=1e-3):
    """Run each (name, controller) on the identical scenario.

    Returns a list of row dicts; a failing controller yields a row with an
    'error' entry and does not abort the others.
    """
    model = scenario.build_model()
    rows = []
    for name, ctrl in controllers:
        row = {"controller": name}
        try:
            traj = run_episode(scenario, ctrl, model=model)
            row.update(compute_metrics(traj, model, band=band).row())
        except Exception as exc:  # per-row failure reporting
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def format_comparison(rows):
    """Render comparison rows as an aligned text table."""
    header = ["controller", *COMPARE_FIELDS]
    table = [header]
    for row in rows:
        if "error" in row:
            table.append([row["controller"], row["error"]])
            continue
        table.append([row["controller"]] +
                     [f"{row[f]:.6g}" for f in COMPARE_FIELDS])
    widths = [max(len(r[c]) for r in table if c < len(r))
              for c in range(len(header))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(widths[c])
                               for c, cell in enumerate(r)).rstrip())
    return "\n".join(lines) + "\n"


def write_comparison_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["controller", *COMPARE_FIELDS, "error"]) + "\n")
        for row in rows:
            cells = [row["controller"]]
            cells += [repr(row[f]) if f in row else "" for f in COMPARE_FIELDS]
            cells.append(row.get("error", ""))
            fh.write(",".join(cells) + "\n")
