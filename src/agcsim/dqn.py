"""Deep Q-network frequency controller trained against attacked measurements.

The network is a small fully connected net (dense numpy arrays, manual
backprop) over the measured state (df_i, net tie flow_i per area).  Actions
are a discrete table of joint per-area command levels.  Training is plain
SGD on the mean squared TD error with uniform replay and a periodically
hard-synced target network.  Everything is driven by one seeded generator,
so a run is bit-reproducible.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .attacks import (AttackSignal, InjectionPoint, corrupt_control,
                      corrupt_measurements, measure)
from .errors import InstabilityError, NumericError, StructuralError
# step_penalty stays bound here: perfbench/selftest.py checks that the span
# tracer patches functions under the names other modules import them by.
from .harness import DIVERGENCE_LIMIT, control_reward, step_penalty  # noqa: F401
from .scenario import LoadEvent, load_profile

CHECKPOINT_MAGIC = "agcsim-qnet"
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Network
# ---------------------------------------------------------------------------

class QNetwork:
    """Fully connected net: affine + ReLU hidden layers, affine output."""

    def __init__(self, sizes, rng=None):
        if len(sizes) < 2:
            raise StructuralError("need at least input and output sizes")
        self.sizes = list(sizes)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            if rng is None:
                w = np.zeros((fan_in, fan_out))
            else:
                w = rng.normal(0.0, np.sqrt(2.0 / fan_in), (fan_in, fan_out))
            self.weights.append(w)
            self.biases.append(np.zeros(fan_out))

    @property
    def in_dim(self):
        return self.sizes[0]

    @property
    def out_dim(self):
        return self.sizes[-1]

    def forward(self, x):
        """Q-values for a single state (1-D) or a batch (2-D)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.shape[1] != self.in_dim:
            raise StructuralError(
                f"input dim {x.shape[1]}, network expects {self.in_dim}")
        _, out = self._forward_cached(x)
        return out[0] if single else out

    def _forward_cached(self, x):
        """Forward pass keeping post-activation layer inputs for backprop."""
        acts = [x]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.maximum(acts[-1] @ w + b, 0.0))
        out = acts[-1] @ self.weights[-1] + self.biases[-1]
        return acts, out

    def copy(self):
        dup = QNetwork(self.sizes)
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup

    def copy_from(self, other):
        if self.sizes != other.sizes:
            raise StructuralError("network shapes differ")
        for dst, src in zip(self.weights, other.weights):
            dst[...] = src
        for dst, src in zip(self.biases, other.biases):
            dst[...] = src


def loss_and_grads(net, states, actions, targets):
    """MSE loss over the selected Q-values and its parameter gradients.

    Targets are treated as constants; the gradient flows only through
    Q(s, a) of the chosen actions.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    actions = np.asarray(actions, dtype=int)
    targets = np.asarray(targets, dtype=float)
    batch = len(actions)
    acts, out = net._forward_cached(states)
    q_sa = out[np.arange(batch), actions]
    err = q_sa - targets
    loss = float(np.mean(err ** 2))

    d_out = np.zeros_like(out)
    d_out[np.arange(batch), actions] = 2.0 * err / batch
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    delta = d_out
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (acts[layer] > 0)
    return loss, grads_w, grads_b


def sgd_update(net, grads_w, grads_b, lr, max_grad_norm=None):
    if max_grad_norm is not None:
        norm = np.sqrt(sum(float(np.sum(g * g))
                           for g in (*grads_w, *grads_b)))
        if norm > max_grad_norm:
            scale = max_grad_norm / norm
            grads_w = [g * scale for g in grads_w]
            grads_b = [g * scale for g in grads_b]
    for w, gw in zip(net.weights, grads_w):
        w -= lr * gw
    for b, gb in zip(net.biases, grads_b):
        b -= lr * gb


def sync_target(online, target):
    """Hard-copy the online parameters into the target network."""
    target.copy_from(online)
    return target


# ---------------------------------------------------------------------------
# Actions and replay
# ---------------------------------------------------------------------------

class ActionTable:
    """Bijective map between joint action indices and per-area commands.

    Each area has `levels` uniformly spaced command levels on [-span, span];
    joint actions are their Cartesian product (mixed-radix indexing).
    """

    def __init__(self, n_areas, levels, span):
        if n_areas < 1 or levels < 2:
            raise StructuralError("bad action table configuration")
        if not 0 < span < np.inf:
            raise StructuralError("action span must be finite and > 0")
        self.n_areas = n_areas
        self.levels = levels
        self.span = span
        self.level_values = np.linspace(-span, span, levels)
        self.size = levels ** n_areas
        self._table = np.array(list(
            itertools.product(self.level_values, repeat=n_areas)))
        self._table.setflags(write=False)

    def commands(self, index):
        if not 0 <= index < self.size:
            raise StructuralError(f"action index {index} out of range")
        return self._table[index]


def select_action(q_values, epsilon, rng=None):
    """Epsilon-greedy selection; greedy ties break to the lowest index."""
    q_values = np.asarray(q_values)
    if q_values.size == 0:
        raise StructuralError("empty action table")
    if not 0.0 <= epsilon <= 1.0:
        raise StructuralError("epsilon must lie in [0, 1]")
    if epsilon > 0.0:
        if rng is None:
            raise StructuralError("exploration requires a generator")
        if rng.random() < epsilon:
            return int(rng.integers(q_values.size))
    return int(np.argmax(q_values))


class ReplayMemory:
    """Ring buffer of transitions with a uniform (with-replacement) sampler."""

    def __init__(self, capacity):
        if capacity < 1:
            raise StructuralError("capacity must be positive")
        self.capacity = capacity
        self._s = None
        self._a = np.empty(capacity, dtype=int)
        self._r = np.empty(capacity)
        self._s2 = None
        self._term = np.empty(capacity, dtype=bool)
        self._size = 0
        self._pos = 0

    def __len__(self):
        return self._size

    def push(self, state, action, reward, next_state, terminal):
        """Store one experience (s, a, r, s', terminal)."""
        if not np.isfinite(reward):
            raise StructuralError("reward must be finite")
        if self._s is None:
            dim = len(state)
            self._s = np.empty((self.capacity, dim))
            self._s2 = np.empty((self.capacity, dim))
        p = self._pos
        self._s[p] = state
        self._a[p] = action
        self._r[p] = reward
        self._s2[p] = next_state
        self._term[p] = terminal
        self._pos = (p + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample_indices(self, batch_size, rng):
        if self._size == 0:
            raise StructuralError("cannot sample from an empty memory")
        return rng.integers(0, self._size, size=batch_size)

    def sample(self, batch_size, rng):
        idx = self.sample_indices(batch_size, rng)
        return (self._s[idx], self._a[idx], self._r[idx], self._s2[idx],
                self._term[idx])


# ---------------------------------------------------------------------------
# TD targets and SGD training step
# ---------------------------------------------------------------------------

def batch_targets(target_net, rewards, next_states, terminals, gamma):
    boot = np.max(target_net.forward(next_states), axis=1)
    return rewards + gamma * np.where(terminals, 0.0, boot)


def train_step(online_net, target_net, batch, lr, gamma, max_grad_norm=None):
    """One SGD update on the mean squared TD error; returns pre-update loss.

    `batch` is the (states, actions, rewards, next_states, terminals) arrays
    that ReplayMemory.sample returns.
    """
    states, actions, rewards, next_states, terminals = batch
    if len(actions) == 0:
        raise StructuralError("empty batch")
    targets = batch_targets(target_net, rewards, next_states, terminals, gamma)
    loss, gw, gb = loss_and_grads(online_net, states, actions, targets)
    if not np.isfinite(loss):
        raise NumericError(f"non-finite training loss on a batch of "
                           f"{len(actions)} transitions")
    sgd_update(online_net, gw, gb, lr, max_grad_norm)
    return loss


# ---------------------------------------------------------------------------
# Hyper-parameters and the training loop
# ---------------------------------------------------------------------------

@dataclass
class HyperParams:
    """Training configuration; the defaults are the configuration that the
    acceptance gate trains and checks (500 episodes, seed 0)."""

    gamma: float = 0.99
    eps_start: float = 1.0
    eps_end: float = 0.05
    eps_decay_fraction: float = 0.5   # fraction of total steps to decay over
    learning_rate: float = 5e-3
    batch_size: int = 64
    sync_period: int = 500            # target-net hard sync, in updates
    capacity: int = 100_000
    hidden: tuple = (64, 64)
    levels: int = 5
    span: float = 0.02
    reward_scale: float = 1e3         # replay-side conditioning factor
    obs_scale: float = 100.0          # input feature scaling (p.u. are tiny)
    max_grad_norm: float = 10.0       # global gradient-norm clip; None = off

    def __post_init__(self):
        if not 0.0 <= self.gamma < 1.0:
            raise StructuralError("gamma must lie in [0, 1)")
        if not (0.0 <= self.eps_end <= self.eps_start <= 1.0):
            raise StructuralError("epsilon schedule must stay in [0, 1]")
        if self.learning_rate <= 0 or self.batch_size < 1:
            raise StructuralError("bad optimizer configuration")

    def epsilon(self, step, total_steps):
        """Linear decay from eps_start to eps_end over the first fraction."""
        decay_steps = max(1, int(total_steps * self.eps_decay_fraction))
        frac = min(1.0, step / decay_steps)
        return self.eps_start + frac * (self.eps_end - self.eps_start)


def observation(frame, scale):
    """Agent input: measured frequencies then measured net tie flows."""
    return scale * np.concatenate([frame.freq, frame.net_tie])


# Ranges for the randomized training distribution (per-episode draws).
TRAIN_LOAD_RANGE = 0.02          # |step load| upper bound, p.u.
TRAIN_ATTACK_PROB = 0.5
TRAIN_ATTACK_MAG = (0.005, 0.02)     # step/pulse magnitude, p.u.
TRAIN_RAMP_SLOPE = (0.0005, 0.003)   # p.u./s
TRAIN_PULSE_DURATION = (1.0, 5.0)    # s
TRAIN_EVENT_START = (1.0, 10.0)      # s


def _draw_episode_events(scenario, rng):
    """Random load step plus, with probability 1/2, one random attack."""
    n = len(scenario.areas)
    loads = [LoadEvent(
        area=int(rng.integers(n)),
        kind="step",
        magnitude=float(rng.uniform(-TRAIN_LOAD_RANGE, TRAIN_LOAD_RANGE)),
        start=float(rng.uniform(*TRAIN_EVENT_START)))]
    attacks = []
    if rng.random() < TRAIN_ATTACK_PROB:
        kind = ("step", "pulse", "ramp")[int(rng.integers(3))]
        channel = ("frequency_sensor", "tieline_sensor",
                   "control_signal")[int(rng.integers(3))]
        area = int(rng.integers(n))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        if kind == "ramp":
            mag = sign * float(rng.uniform(*TRAIN_RAMP_SLOPE))
        else:
            mag = sign * float(rng.uniform(*TRAIN_ATTACK_MAG))
        duration = float(rng.uniform(*TRAIN_PULSE_DURATION))
        attacks.append(AttackSignal(kind, mag,
                                    float(rng.uniform(*TRAIN_EVENT_START)),
                                    InjectionPoint(channel, area),
                                    duration=duration))
    return loads, attacks


def train(scenario, hyper, episodes, seed):
    """Train a DQN against the scenario's grid with randomized episodes.

    Each episode draws a random step load and, with probability 1/2, a
    random attack; the agent only ever sees attacked measurements while the
    reward is computed from the true state.  Returns (network, log) where
    the log holds one dict per episode.  Fully deterministic given seed.

    The plant advances one control period per LfcModel.step_period call,
    with the command saturated as LfcModel.inputs does: the bits of one
    rk4_step per plant step, which the acceptance gate's DQN criteria
    depend on (run_episode's lifted period map rounds differently).
    """
    model = scenario.build_model()
    n = model.n_areas
    table = ActionTable(n, levels=hyper.levels, span=hyper.span)
    rng = np.random.default_rng(seed)
    net = QNetwork([2 * n, *hyper.hidden, table.size], rng)
    target = net.copy()
    memory = ReplayMemory(hyper.capacity)

    h = scenario.plant_step
    ratio = scenario.steps_per_control
    n_ctrl = scenario.n_control_steps
    dt = scenario.control_period
    total_steps = episodes * n_ctrl
    # Plant-step times, (n_ctrl, ratio), as step * dt + sub * h: the loads,
    # and so the trained network, depend on these exact bits.
    t_sub = (np.arange(n_ctrl) * dt)[:, None] + np.arange(ratio) * h

    log = []
    global_step = 0
    updates = 0
    for episode in range(episodes):
        loads, attacks = _draw_episode_events(scenario, rng)
        load_grid = load_profile(loads, n, t_sub)
        state = model.zero_state()
        frame = corrupt_measurements(measure(model, state, 0.0), attacks, 0.0)
        obs = observation(frame, hyper.obs_scale)
        ep_return = 0.0
        losses = []
        for step in range(n_ctrl):
            t = step * dt
            eps = hyper.epsilon(global_step, total_steps)
            action = select_action(net.forward(obs), eps, rng)
            applied = corrupt_control(table.commands(action), attacks, t)
            p_c = np.clip(applied, -model.p_c_max, model.p_c_max)
            state = model.step_period(state, p_c, load_grid[step], h)
            if np.max(np.abs(state)) > DIVERGENCE_LIMIT:
                raise InstabilityError(
                    f"training episode {episode} diverged at step {step}",
                    t=t + dt)
            r = control_reward(model, state, dt)
            t_next = (step + 1) * dt
            frame = corrupt_measurements(measure(model, state, t_next),
                                         attacks, t_next)
            next_obs = observation(frame, hyper.obs_scale)
            terminal = step == n_ctrl - 1
            memory.push(obs, action, r * hyper.reward_scale, next_obs,
                        terminal)
            ep_return += r
            obs = next_obs
            global_step += 1
            if len(memory) >= hyper.batch_size:
                batch = memory.sample(hyper.batch_size, rng)
                losses.append(train_step(net, target, batch,
                                         hyper.learning_rate, hyper.gamma,
                                         hyper.max_grad_norm))
                updates += 1
                if updates % hyper.sync_period == 0:
                    sync_target(net, target)
        log.append({
            "episode": episode,
            "return": ep_return,
            "epsilon": eps,
            "loss_mean": float(np.mean(losses)) if losses else float("nan"),
        })
    return net, log


def write_training_log(log, path):
    """Training log as CSV: episode, return, epsilon, loss_mean."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("episode,return,epsilon,loss_mean\n")
        for row in log:
            fh.write(f"{row['episode']},{row['return']!r},"
                     f"{row['epsilon']!r},{row['loss_mean']!r}\n")


# ---------------------------------------------------------------------------
# Deployment wrapper and checkpointing
# ---------------------------------------------------------------------------

class DqnController:
    """Greedy policy over a trained network; stateless between calls."""

    def __init__(self, net, table, obs_scale):
        if net.out_dim != table.size:
            raise StructuralError("network output and action table disagree")
        self.net = net
        self.table = table
        self.obs_scale = obs_scale

    def observe(self, frame):
        q = self.net.forward(observation(frame, self.obs_scale))
        return self.table.commands(int(np.argmax(q))).copy()

    def reset(self):
        pass


def save_checkpoint(net, table, path, obs_scale):
    """Text checkpoint: layer shapes plus row-major weights in float hex."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}\n")
        fh.write(f"areas {table.n_areas}\n")
        fh.write(f"levels {table.levels}\n")
        fh.write(f"span {float(table.span).hex()}\n")
        fh.write(f"obs_scale {float(obs_scale).hex()}\n")
        fh.write(f"sizes {' '.join(str(s) for s in net.sizes)}\n")
        for w, b in zip(net.weights, net.biases):
            fh.write(" ".join(v.hex() for v in w.ravel()) + "\n")
            fh.write(" ".join(v.hex() for v in b) + "\n")


def load_checkpoint(path):
    """Load a checkpoint; returns (net, table, obs_scale).

    A truncated or garbled file raises StructuralError naming the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return _parse_checkpoint(fh.read().splitlines())
        except (StructuralError, ValueError) as exc:  # incl. bad UTF-8
            raise StructuralError(f"{path}: {exc}") from None


_HEADER_KEYS = ("areas", "levels", "span", "obs_scale", "sizes")


def _parse_checkpoint(lines):
    """Checkpoint lines -> (net, table, obs_scale); counts are checked first."""
    if not lines or lines[0].split() != [CHECKPOINT_MAGIC,
                                         str(CHECKPOINT_VERSION)]:
        raise StructuralError(
            f"not a version-{CHECKPOINT_VERSION} checkpoint")
    fields = [line.split() for line in lines[1:1 + len(_HEADER_KEYS)]]
    if [f[:1] for f in fields] != [[key] for key in _HEADER_KEYS] or \
            any(len(f) != 2 for f in fields[:-1]) or len(fields[-1]) < 3:
        raise StructuralError("truncated or garbled checkpoint header")
    n_areas, levels = int(fields[0][1]), int(fields[1][1])
    span, obs_scale = float.fromhex(fields[2][1]), float.fromhex(fields[3][1])
    sizes = [int(s) for s in fields[4][1:]]
    if not 0 < obs_scale < np.inf:
        raise StructuralError("obs_scale must be finite and > 0")
    row = 1 + len(_HEADER_KEYS)
    if len(lines) != row + 2 * (len(sizes) - 1):
        raise StructuralError(
            f"{len(lines)} lines, expected {row + 2 * (len(sizes) - 1)} for "
            f"{len(sizes) - 1} layers")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w, b = ([float.fromhex(v) for v in lines[r].split()]
                for r in (row, row + 1))
        if fan_out < 1 or len(w) != fan_in * fan_out or len(b) != fan_out:
            raise StructuralError(f"layer {fan_in}x{fan_out} has "
                                  f"{len(w)} weights and {len(b)} biases")
        if not np.isfinite(w + b).all():
            raise StructuralError(f"layer {fan_in}x{fan_out} has a "
                                  "non-finite weight or bias")
        weights.append(np.array(w).reshape(fan_in, fan_out))
        biases.append(np.array(b))
        row += 2
    if sizes[0] != 2 * n_areas or sizes[-1] != levels ** n_areas:
        raise StructuralError("inconsistent checkpoint shapes")
    net = QNetwork(sizes)
    net.weights, net.biases = weights, biases
    return net, ActionTable(n_areas, levels=levels, span=span), obs_scale
