"""Closed-loop episode execution, metrics, and trajectory persistence.

One episode: every control period the controller sees a (possibly attacked)
measurement frame and issues per-area commands; the commands pass through
the control-channel attack layer, are held for the whole period, and the
plant integrates the TRUE state with RK4 at the plant step, one whole period
per matrix product.  Rewards are recorded once per control step from the
end-of-step true state.  One loop (_rollout) advances either one episode or
a stack of episodes that share a scenario.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .attacks import (MeasurementFrame, corrupt_control,
                      corrupt_measurements, measure)
from .errors import InstabilityError, NumericError, StructuralError
from .scenario import _is_multiple

# States beyond this deviation are far outside linear-model validity.
DIVERGENCE_LIMIT = 10.0
# A frequency deviation has settled once it stays below this band, p.u.
SETTLING_BAND = 1e-3


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
    plant advances the whole period at once: model.period_map, the exact
    map of the period's RK4 steps from [state, command], plus the
    precomputed model.load_response of the period's loads.
    """
    if model is None:
        model = scenario.build_model()
    n = model.n_areas
    ratio = scenario.steps_per_control
    n_ctrl = scenario.n_control_steps
    k_total = n_ctrl * ratio

    states = np.empty((k_total + 1, model.dim))
    states[0] = model.zero_state()
    seen_freq = np.empty((n_ctrl, n))
    seen_tie = np.empty((n_ctrl, n))
    u_cmd = np.empty((k_total + 1, n))
    u_applied = np.empty((k_total + 1, n))

    def record(m, frame, cmd, applied, block):
        k = m * ratio
        seen_freq[m] = frame.freq
        seen_tie[m] = frame.net_tie
        u_cmd[k:k + ratio] = cmd
        u_applied[k:k + ratio] = applied
        states[k + 1:k + ratio + 1] = block

    t_grid, (fault,) = _rollout(scenario, model, controller, record)
    if fault is not None:
        raise fault
    u_cmd[k_total] = u_cmd[k_total - 1]
    u_applied[k_total] = u_applied[k_total - 1]

    # What the sensors reported at every plant step, through the same attack
    # arithmetic the controller's frames went through.  On grids of four or
    # more areas the stacked net tie flow can differ from a single frame's in
    # the last bit (summation order), so the rows the controller saw are
    # written back exactly.
    reported = corrupt_measurements(
        MeasurementFrame(model.freq(states), model.net_tie(states), t_grid),
        scenario.attacks, t_grid)
    meas_freq, meas_tie = reported.freq, reported.net_tie
    meas_freq[:k_total:ratio] = seen_freq
    meas_tie[:k_total:ratio] = seen_tie

    # control_reward of each period's end state, computed for all periods at
    # once (with the same last-bit caveat as above on four or more areas).
    rewards = -scenario.control_period * penalties(model, states[ratio::ratio])
    return Trajectory(t_grid, states, meas_freq, meas_tie, u_cmd, u_applied,
                      rewards, scenario.plant_step, scenario.control_period)


def _rollout(scenario, model, controller, record, batch=()):
    """Advance a stack of closed-loop episodes of one scenario together.

    The stack has leading shape `batch`: () for one episode, whose
    controller sees single frames, or (B,) for B episodes, whose controller
    holds one row of state per episode and maps a frame of (B, n) arrays to
    (B, n) commands.  Each control period takes one stacked measurement, one
    controller.observe, and one matrix product through model.period_map for
    the whole stack, plus the period's model.load_response, then calls

        record(m, frame, cmd, applied, block)

    with the period index m, the frame the controller saw, its command, the
    command after the control-channel attacks (before saturation), and the
    batch + (steps, dim) states of the period's plant steps.

    An episode whose command is non-finite or whose state leaves
    DIVERGENCE_LIMIT is frozen at the zero state from then on, so it cannot
    overflow, and the others run on; the loop ends once every episode has
    stopped.  Returns (t_grid, faults): the plant-step times and, per
    episode in row-major order, None or the InstabilityError/NumericError
    it stopped with (not raised).
    """
    n, dim = model.n_areas, model.dim
    h = scenario.plant_step
    ratio = scenario.steps_per_control
    n_ctrl = scenario.n_control_steps
    t_grid = np.arange(n_ctrl * ratio + 1) * h
    attacks = scenario.attacks

    # The map of [state, command] over one period, and what every period's
    # loads add to it, shared by the whole stack.
    act = model.period_map(h, ratio).T
    loads = scenario.load_vector(t_grid[:-1]).reshape(n_ctrl, ratio, n)
    drive = model.load_response(h, loads).reshape(n_ctrl, ratio * dim)

    controller.reset()
    z = np.zeros(batch + (dim,))
    alive = np.ones(int(np.prod(batch)), dtype=bool)
    faults = [None] * alive.size
    stopped = False
    for m in range(n_ctrl):
        k = m * ratio
        t = t_grid[k]
        frame = corrupt_measurements(measure(model, z, t), attacks, t)
        cmd = np.asarray(controller.observe(frame), dtype=float)
        if cmd.shape != frame.freq.shape:
            raise StructuralError(f"controller returned shape {cmd.shape}, "
                                  f"expected {frame.freq.shape}")
        applied = corrupt_control(cmd, attacks, t)
        held = np.clip(applied, -model.p_c_max, model.p_c_max)
        block = (np.concatenate([z, held], axis=-1) @ act + drive[m]).reshape(
            batch + (ratio, dim))
        if stopped or not (np.isfinite(cmd).all()
                           and np.abs(block).max() <= DIVERGENCE_LIMIT):
            _stop_failed_rows(cmd, block, alive, faults, t_grid, k, h)
            stopped = True
        record(m, frame, cmd, applied, block)
        if stopped and not alive.any():
            break
        z = block[..., -1, :]
    return t_grid, faults


def _stop_failed_rows(cmd, block, alive, faults, t_grid, k, h):
    """Record the error of each live episode that failed in this period and
    freeze every stopped episode's states at zero."""
    rows = block.reshape(alive.size, *block.shape[-2:])
    bad_cmd = ~np.isfinite(cmd).reshape(alive.size, -1).all(axis=1)
    peaks = np.max(np.abs(rows), axis=2)
    failed = alive & (bad_cmd | ~(peaks <= DIVERGENCE_LIMIT).all(axis=1))
    for i in np.flatnonzero(failed):
        faults[i] = _fault(bad_cmd[i], peaks[i], t_grid, k, h)
    alive &= ~failed
    rows[~alive] = 0.0


def _fault(bad_cmd, peak, t_grid, k, h):
    """The error of an episode whose period starting at plant step k
    failed; for a state past the limit, at its first such plant step."""
    if bad_cmd:
        t = t_grid[k]
        return InstabilityError(f"non-finite command at t={t:.3f}s", t=t)
    j = int(np.argmax(~(peak <= DIVERGENCE_LIMIT)))
    if not np.isfinite(peak[j]):
        return NumericError(f"non-finite state after RK4 step of h={h}")
    t = t_grid[k + j] + h
    return InstabilityError(
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


def compute_metrics(traj, model):
    """Metrics over one trajectory; settling must be sustained to horizon."""
    if len(traj) == 0:
        raise StructuralError("empty trajectory")
    df = model.freq(traj.states)
    n = df.shape[1]
    max_dev = np.max(np.abs(df), axis=0)

    settling = np.full(n, np.nan)
    settled = np.zeros(n, dtype=bool)
    inside = np.abs(df) < SETTLING_BAND
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

# Rows formatted per write: bounds the Python strings alive at once.
_CHUNK_ROWS = 256


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
    """Write a trajectory as CSV (exact decimal round-trip via repr).

    The columns are stacked into one table whose reward column is zero
    except at the end of each control period, and the table is formatted
    in bounded chunks of rows."""
    ratio = round(traj.control_period / traj.plant_step)
    cols = _columns(model.n_areas, model.pairs)
    reward = np.zeros(len(traj))
    reward[ratio::ratio] = traj.rewards
    table = np.column_stack([traj.t, traj.states, traj.meas_freq,
                             traj.meas_tie, traj.u_cmd, traj.u_applied,
                             reward])
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# agcsim-trajectory format_version=1 "
                     f"plant_step={traj.plant_step!r} "
                     f"control_period={traj.control_period!r}\n")
            fh.write(",".join(cols) + "\n")
            for k in range(0, len(table), _CHUNK_ROWS):
                chunk = table[k:k + _CHUNK_ROWS]
                # One repr per distinct bit pattern in the chunk: held
                # commands, zero rewards and settled states repeat.
                bits, index = np.unique(chunk.view(np.uint64),
                                        return_inverse=True)
                text = np.array(list(map(repr, bits.view(float).tolist())),
                                dtype=object)
                fh.writelines(",".join(row) + "\n" for row in
                              text[index.reshape(chunk.shape)].tolist())
    except OSError as exc:
        raise OSError(f"cannot write trajectory to {path}: {exc}") from exc


def read_trajectory_csv(path, model):
    """Read back a trajectory written by write_trajectory_csv.

    The data section is parsed by numpy.loadtxt; a file it rejects is
    scanned again line by line to name the first bad line.  The rows must
    end on a control period (none, or 1 + a whole number of periods).  A
    file cut exactly on a period boundary still reads back, shorter."""
    expected = _columns(model.n_areas, model.pairs)
    width = len(expected)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            h, dt = _read_header(fh, path, expected)
            start = fh.tell()
            try:
                with warnings.catch_warnings():  # a header-only file
                    warnings.filterwarnings("ignore", "loadtxt: input "
                                            "contained no data")
                    data = np.loadtxt(fh, delimiter=",", comments=None,
                                      ndmin=2)
                ok = data.shape[1] == width or not data.size
            except ValueError:
                ok = False
            if not ok:
                fh.seek(start)
                _name_bad_line(fh, width, path)
    except UnicodeDecodeError:
        raise StructuralError(f"{path}: not UTF-8 text") from None
    except OSError as exc:
        raise OSError(f"cannot read trajectory from {path}: {exc}") from exc
    n, p = model.n_areas, model.n_pairs
    ratio = round(dt / h)
    data = data.reshape(-1, width)  # (0, 1) when there are no rows
    rows = len(data)
    if rows and (rows - 1) % ratio:  # a file cut at a row boundary
        raise StructuralError(f"{path}: {rows} data rows end "
                              f"{(rows - 1) % ratio} plant steps into a "
                              f"control period")
    t = data[:, 0]
    ofs = 1
    states = data[:, ofs:ofs + 3 * n + p]; ofs += 3 * n + p
    mf = data[:, ofs:ofs + n]; ofs += n
    mt = data[:, ofs:ofs + n]; ofs += n
    uc = data[:, ofs:ofs + n]; ofs += n
    ua = data[:, ofs:ofs + n]; ofs += n
    rewards = data[ratio::ratio, ofs]
    return Trajectory(t, states, mf, mt, uc, ua, rewards, h, dt)


def _read_header(fh, path, expected):
    """(plant_step, control_period) from the two header lines; the period
    must be a positive whole multiple of the step."""
    header = fh.readline()
    if not header.startswith("# agcsim-trajectory"):
        raise StructuralError(f"{path}: not a trajectory file")
    try:
        meta = dict(tok.split("=", 1) for tok in header.split()[2:])
        h = float(meta["plant_step"])
        dt = float(meta["control_period"])
        ok = h > 0 and dt > 0 and _is_multiple(dt, h)
    except (KeyError, ValueError):
        ok = False
    if not ok:
        raise StructuralError(f"{path}: line 1: bad trajectory header")
    if fh.readline().rstrip("\n").split(",") != expected:
        raise StructuralError(f"{path}: column mismatch")
    return h, dt


def _name_bad_line(fh, width, path):
    """Raise a StructuralError at the first data line that does not hold
    exactly `width` numbers; at the path alone when no line is at fault."""
    for lineno, line in enumerate(fh, start=3):
        if line != "\n":
            _data_row(line, width, path, lineno)
    raise StructuralError(f"{path}: unreadable trajectory data")


def _data_row(line, width, path, lineno):
    """A StructuralError at the line when one data line does not hold
    exactly `width` numbers (a file cut mid-row, say)."""
    fields = line.rstrip("\n").split(",")
    if len(fields) != width:
        raise StructuralError(f"{path}: line {lineno}: {len(fields)} fields, "
                              f"expected {width}")
    try:
        for v in fields:
            float(v)
    except ValueError:
        raise StructuralError(
            f"{path}: line {lineno}: not a number in the row") from None


# ---------------------------------------------------------------------------
# Controller comparison
# ---------------------------------------------------------------------------

COMPARE_FIELDS = ("max_freq_dev", "settling_time", "ise",
                  "cumulative_reward", "final_freq_dev",
                  "steady_state_freq_dev")


def compare(scenario, controllers):
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
            row.update(compute_metrics(traj, model).row())
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
