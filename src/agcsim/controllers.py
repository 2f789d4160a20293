"""Conventional AGC controllers: PID on ACE, discrete LQR, receding-horizon MPC.

All controllers implement the same contract:

    observe(frame: MeasurementFrame) -> per-area command array
    reset() -> clears internal state

Controllers never clamp their output; saturation lives in the plant.
Instances own mutable state (integrators, model estimates) and must not be
shared across concurrent episodes; distinct instances are independent.
"""

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, NumericError, StructuralError,
                     TuningError)
from .harness import _rollout, penalties
from .scenario import LoadEvent


class ZeroController:
    """Open-loop baseline: always commands zero."""

    def __init__(self, n_areas):
        self.n_areas = n_areas

    def observe(self, frame):
        return np.zeros(self.n_areas)

    def reset(self):
        pass


# ---------------------------------------------------------------------------
# PID on the area control error
# ---------------------------------------------------------------------------

@dataclass
class PidGains:
    """Per-area PID gains acting on ACE; scalars broadcast over areas.

    A gain may also be an array, such as a (B, 1) column that gives each
    episode of a stacked rollout its own gain; every entry is checked.
    """

    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    deriv_filter: float = 50.0  # first-order filter pole N_f, 1/s

    def __post_init__(self):
        if np.any(np.asarray(self.ki) < 0):
            raise StructuralError("ki must be >= 0")
        if np.any(np.asarray(self.deriv_filter) <= 0):
            raise StructuralError("derivative filter coefficient must be > 0")


class PidController:
    """u_i = -(Kp*ACE_i + Ki*int(ACE_i) + Kd*filtered d(ACE_i)/dt).

    The integral uses the trapezoid rule; the first observation seeds the
    previous-sample memory with the current value, so a signal constant
    since t=0 integrates exactly and the derivative term starts at zero.
    """

    def __init__(self, beta, gains, period):
        if period <= 0:
            raise StructuralError("control period must be positive")
        self.beta = np.asarray(beta, dtype=float)
        self.gains = gains
        self.period = period
        self.reset()

    def reset(self):
        self._integral = np.zeros(len(self.beta))
        self._deriv = np.zeros(len(self.beta))
        self._prev = None

    def observe(self, frame):
        ace = self.beta * frame.freq + frame.net_tie
        if self._prev is None:
            self._prev = ace.copy()
        h = self.period
        self._integral = self._integral + 0.5 * h * (self._prev + ace)
        nf = self.gains.deriv_filter
        alpha = 1.0 / (1.0 + nf * h)
        self._deriv = alpha * self._deriv + (1 - alpha) * (ace - self._prev) / h
        self._prev = ace.copy()
        g = self.gains
        return -(g.kp * ace + g.ki * self._integral + g.kd * self._deriv)


# ---------------------------------------------------------------------------
# Discretization and LQR synthesis
# ---------------------------------------------------------------------------

def expm(M):
    """Matrix exponential by scaling and squaring (Moler & Van Loan, SIAM
    Review 45, 2003): the degree-18 Taylor sum of M / 2^s, with s the least
    that brings its 1-norm to <= 1/2 (remainder < 1e-22), squared s times.
    A non-finite entry gives a non-finite result, which zoh_discretize rejects.
    """
    M = np.asarray(M, dtype=float)
    frac, exp2 = np.frexp(np.abs(M).sum(axis=0).max(initial=0.0))
    s = max(0, int(exp2) + (frac > 0.5))
    X, eye = np.ldexp(M, -s), np.eye(len(M))
    E = eye
    for k in range(18, 0, -1):
        E = eye + X @ E / k
    for _ in range(s):
        E = E @ E
    return E


def zoh_discretize(A, B, h):
    """Zero-order-hold discretization via the augmented matrix exponential."""
    if h <= 0:
        raise StructuralError("sample time must be positive")
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A * h
    aug[:n, n:] = B * h
    phi = expm(aug)
    Ad, Bd = phi[:n, :n], phi[:n, n:]
    if not (np.all(np.isfinite(Ad)) and np.all(np.isfinite(Bd))):
        raise NumericError("non-finite discretized model")
    return Ad, Bd


# solve_dare stops once no entry of P moves by DARE_TOL * max(1, max|P|) in
# one iteration and gives up when P still moves after DARE_MAX_ITER
# iterations, rounded up to a power of two (the doubling sees the iterates
# 1, 2, 4, 8, ...).
DARE_TOL = 1e-12
DARE_MAX_ITER = 100_000


def riccati_step(Ad, Bd, Q, R, P):
    """One backward Riccati step from cost-to-go P.

    Returns (P_prev, K): the cost-to-go one step earlier (symmetrized) and
    the gain of the law u = -K x that is optimal against P.
    """
    BtP = Bd.T @ P
    try:
        K = np.linalg.solve(R + BtP @ Bd, BtP @ Ad)
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "singular R + B'PB in a Riccati step (no cost weights the "
            "commands)") from None
    P_prev = Ad.T @ P @ (Ad - Bd @ K) + Q
    return 0.5 * (P_prev + P_prev.T), K


def riccati_doubling(Ad, Bd, Q, R):
    """Yield P_1 - Q, P_2 - Q, P_4 - Q, ...: the Riccati iterates from P_0 = Q
    after 2^k steps, less Q, one matrix update apart.

    Structure-preserving doubling (Anderson, Int. J. Control 27, 1978; Lin &
    Xu, SIAM J. Matrix Anal. Appl. 28, 2006) shifted about P = Q: the first
    Riccati step gives A = Ad - Bd K0, G = Bd (R + Bd'Q Bd)^-1 Bd' and
    H = P_1 - Q.  The shift needs no inverse of R, only the matrix the first
    step solves.
    """
    P1, K0 = riccati_step(Ad, Bd, Q, R, Q)
    A = Ad - Bd @ K0
    G = Bd @ np.linalg.solve(R + Bd.T @ Q @ Bd, Bd.T)
    H = P1 - Q
    eye = np.eye(len(Q))
    while True:
        yield H
        WA, WG = np.hsplit(np.linalg.solve(eye + G @ H, np.hstack([A, G])), 2)
        H = H + A.T @ H @ WA
        G = G + A @ WG @ A.T
        A = A @ WA
        H = 0.5 * (H + H.T)
        G = 0.5 * (G + G.T)


def _moved(step, P):
    """Largest entry of a step to P, relative to max(1, max|P|)."""
    return np.max(np.abs(step)) / max(1.0, np.max(np.abs(P)))


def solve_dare(Ad, Bd, Q, R):
    """Discrete algebraic Riccati equation, iterated from P=Q.

    The iterates 1, 2, 4, ... come from riccati_doubling, at most
    DARE_MAX_ITER.bit_length() updates (2^17 >= 100 000 steps), until no
    entry moves by DARE_TOL * max(1, max|P|).  Single Riccati steps then
    polish P until one passes the same test.

    Returns (P, K) with the control law u = -K x.
    """
    Ad = np.asarray(Ad, dtype=float)
    Bd = np.asarray(Bd, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    doubling = riccati_doubling(Ad, Bd, Q, R)
    H = next(doubling)
    for H_next in itertools.islice(doubling, DARE_MAX_ITER.bit_length()):
        moved = _moved(H_next - H, Q + H_next)
        H = H_next
        if moved < DARE_TOL or not np.isfinite(moved):
            break
    if moved < DARE_TOL:
        P = Q + H
        for _ in range(DARE_MAX_ITER):
            P_next, _ = riccati_step(Ad, Bd, Q, R, P)
            if _moved(P_next - P, P_next) < DARE_TOL:
                return P_next, riccati_step(Ad, Bd, Q, R, P_next)[1]
            P = P_next
    raise ConvergenceError(
        f"Riccati iteration did not converge within {DARE_MAX_ITER} iterations")


def dare_residual(Ad, Bd, Q, R, P):
    """Max-abs residual of the DARE at P (its own oracle)."""
    BtP = Bd.T @ P
    corr = Ad.T @ P @ Bd @ np.linalg.solve(R + BtP @ Bd, BtP @ Ad)
    return float(np.max(np.abs(Ad.T @ P @ Ad - P - corr + Q)))


def mpc_step(Ad, Bd, Q, R, P_term, horizon, x):
    """First move of the unconstrained finite-horizon LQ problem.

    Minimizes sum_{k<horizon} (x_k'Qx_k + u_k'Ru_k) + x_N'P_term x_N by the
    batch normal-equation solution and returns u_0 (receding horizon).
    """
    if horizon < 1:
        raise StructuralError("MPC horizon must be >= 1")
    n, m = Bd.shape
    x = np.asarray(x, dtype=float)
    # Prediction matrices: X = Sx @ x + Su @ U for stacked states x_1..x_N.
    Sx = np.zeros((horizon * n, n))
    Su = np.zeros((horizon * n, horizon * m))
    Apow = np.eye(n)
    for k in range(horizon):
        Apow = Ad @ Apow
        Sx[k * n:(k + 1) * n] = Apow
        for j in range(k + 1):
            blk = np.linalg.matrix_power(Ad, k - j) @ Bd
            Su[k * n:(k + 1) * n, j * m:(j + 1) * m] = blk
    Qbar = np.zeros((horizon * n, horizon * n))
    for k in range(horizon - 1):
        Qbar[k * n:(k + 1) * n, k * n:(k + 1) * n] = Q
    Qbar[-n:, -n:] = P_term
    Rbar = np.kron(np.eye(horizon), R)
    H = Su.T @ Qbar @ Su + Rbar
    f = Su.T @ Qbar @ (Sx @ x)
    u_stack = np.linalg.solve(H, -f)
    if not np.all(np.isfinite(u_stack)):
        raise NumericError("MPC normal equations produced non-finite moves")
    return u_stack[:m]


def mpc_gain(Ad, Bd, Q, R, P_term, horizon):
    """Gain K of the first move u_0 = -K x of the problem mpc_step solves.

    With a terminal cost the finite-horizon first move is `horizon` backward
    Riccati steps from P_term (Anderson & Moore, Optimal Control: Linear
    Quadratic Methods, 1990).
    """
    if horizon < 1:
        raise StructuralError("MPC horizon must be >= 1")
    P = np.asarray(P_term, dtype=float)
    for _ in range(horizon):
        P, K = riccati_step(Ad, Bd, Q, R, P)
    return K


def default_weights(model, q_freq=1.0, q_tie=1.0, r_weight=0.1):
    """Quadratic weights mirroring the frequency/tie-flow penalty structure.

    Q weights df_i by q_freq*beta_i^2 and every tie pair state by q_tie;
    R = r_weight * I.
    """
    n = model.n_areas
    Q = np.diag(np.concatenate([q_freq * model.beta ** 2, np.zeros(2 * n),
                                np.full(model.n_pairs, q_tie)]))
    return Q, r_weight * np.eye(n)


# ---------------------------------------------------------------------------
# Measured-state reconstruction shared by LQR and MPC
# ---------------------------------------------------------------------------

class StateEstimator:
    """Rebuild a full state vector from a measurement frame.

    Frequencies come from the frame; tie pair states are the least-squares
    fit of the measured per-area net flows; turbine and governor states are
    propagated open-loop from this controller's own past commands using the
    exact discrete model (no observer, a documented limitation).
    """

    def __init__(self, model, period):
        self.model = model
        self.period = period
        n = model.n_areas
        # Rows/columns n:3n of the plant are d[pm;pv]/dt, driven by the
        # commands and the frequencies; discretize them exactly (ZOH).
        A, B = model.assemble_linear_model()
        turb = slice(n, 3 * n)
        self._ad, self._bd = zoh_discretize(
            A[turb, turb], np.hstack([B[turb], A[turb, :n]]), period)
        # Net flow = incidence @ pair states; pinv gives the LS inverse.
        self._pinv = np.linalg.pinv(model._incidence)
        self.reset()

    def reset(self):
        self._z = np.zeros(2 * self.model.n_areas)

    def estimate(self, frame):
        model = self.model
        n = model.n_areas
        x = np.zeros(model.dim)
        x[:n] = frame.freq
        x[n:3 * n] = self._z
        x[3 * n:] = self._pinv @ frame.net_tie
        return x

    def advance(self, frame, command):
        """Propagate the internal turbine/governor states one period."""
        self._z = self._ad @ self._z + self._bd @ np.concatenate(
            [command, frame.freq])
        if not np.all(np.isfinite(self._z)):
            raise NumericError("state estimator diverged")


class LqrController:
    """Discrete LQR u = -K x on the reconstructed measured state."""

    def __init__(self, model, period, Q, R):
        A, B = model.assemble_linear_model()
        self.Ad, self.Bd = zoh_discretize(A, B, period)
        self.Q, self.R = Q, R
        self.P, self.K = solve_dare(self.Ad, self.Bd, Q, R)
        self._est = StateEstimator(model, period)

    def reset(self):
        self._est.reset()

    def observe(self, frame):
        x = self._est.estimate(frame)
        u = -self.K @ x
        self._est.advance(frame, u)
        return u


class MpcController(LqrController):
    """Receding-horizon unconstrained MPC with Riccati terminal cost.

    Its first move is linear in the state, so it is the LQR loop with K
    replaced by the finite-horizon gain of mpc_gain.
    """

    def __init__(self, model, period, Q, R, horizon=20):
        super().__init__(model, period, Q, R)
        self.horizon = horizon
        self.K = mpc_gain(self.Ad, self.Bd, Q, R, self.P, horizon)

    # Bound here as well, not only inherited: per-class instrumentation
    # (perfbench/tracer.py) wraps each controller class's own observe.
    reset = LqrController.reset
    observe = LqrController.observe


# ---------------------------------------------------------------------------
# PID tuning
# ---------------------------------------------------------------------------

def tune_pid(scenario, kp_grid=None, ki_grid=None):
    """Grid-search (Kp, Ki) on an attack-free step-load episode.

    Minimizes the integral of the squared frequency/tie-flow penalty; ties
    break toward the smallest Ki, then the smallest Kp.  Kd stays 0.  A
    candidate whose episode destabilizes is skipped.
    """
    if kp_grid is None:
        kp_grid = np.logspace(-1.5, 0.5, 9)
    if ki_grid is None:
        ki_grid = np.logspace(-1.5, 0.5, 9)

    step = LoadEvent(area=0, kind="step", magnitude=0.01, start=5.0)
    tuning = dataclasses.replace(scenario, attacks=[],
                                 loads=scenario.loads or [step])
    model = tuning.build_model()

    # Candidates in Ki-major, then Kp order, the order ties break in.
    ki, kp = (g.ravel() for g in np.meshgrid(
        np.sort(ki_grid), np.sort(kp_grid), indexing="ij"))
    costs = _pid_costs(tuning, model, kp, ki)
    best = None
    for i, cost in enumerate(costs):
        if np.isfinite(cost) and (best is None or cost < costs[best] - 1e-15):
            best = i
    if best is None:
        raise TuningError("every PID candidate destabilized the tuning episode")
    return PidGains(kp=float(kp[best]), ki=float(ki[best]))


def _pid_costs(scenario, model, kp, ki):
    """ISE of a PID with gains (kp[i], ki[i]) for each i, all advanced
    together as one stack of episodes; nan for an episode that stopped with
    an InstabilityError or NumericError.

    Only the per-plant-step penalty of each episode is kept, not its states.
    """
    kp = np.asarray(kp, dtype=float)
    ratio = scenario.steps_per_control
    pen = np.zeros((len(kp), scenario.n_control_steps * ratio + 1))

    def record(m, frame, cmd, applied, block):
        pen[:, m * ratio + 1:(m + 1) * ratio + 1] = penalties(model, block)

    gains = PidGains(kp=kp[:, None], ki=np.asarray(ki, dtype=float)[:, None])
    ctrl = PidController(model.beta, gains, scenario.control_period)
    t_grid, faults = _rollout(scenario, model, ctrl, record, batch=kp.shape)
    # Row by row, as compute_metrics integrates one episode: a stacked
    # trapezoid would hold several temporaries the size of `pen`.
    return np.array([np.nan if fault is not None else np.trapezoid(row, t_grid)
                     for row, fault in zip(pen, faults)])
