"""Conventional AGC controllers: PID on ACE, discrete LQR, receding-horizon MPC.

All controllers implement the same contract:

    observe(frame: MeasurementFrame) -> per-area command array
    reset() -> clears internal state

Controllers never clamp their output; saturation lives in the plant.
Instances own mutable state (integrators, model estimates) and must not be
shared across concurrent episodes; distinct instances are independent.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import (ConvergenceError, InstabilityError, NumericError,
                     StructuralError, TuningError)


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
    """Per-area PID gains acting on ACE; scalars broadcast over areas."""

    kp: float = 0.0
    ki: float = 0.0
    kd: float = 0.0
    deriv_filter: float = 50.0  # first-order filter pole N_f, 1/s

    def __post_init__(self):
        if self.ki < 0:
            raise StructuralError("ki must be >= 0")
        if self.deriv_filter <= 0:
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


def solve_dare(Ad, Bd, Q, R, tol=1e-12, max_iter=100_000):
    """Discrete algebraic Riccati equation by fixed-point iteration from P=Q.

    Returns (P, K) with the control law u = -K x.
    """
    Ad = np.asarray(Ad, dtype=float)
    Bd = np.asarray(Bd, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = Q.copy()
    for _ in range(max_iter):
        BtP = Bd.T @ P
        gain = np.linalg.solve(R + BtP @ Bd, BtP @ Ad)
        P_next = Ad.T @ P @ (Ad - Bd @ gain) + Q
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) < tol:
            BtP = Bd.T @ P_next
            K = np.linalg.solve(R + BtP @ Bd, BtP @ Ad)
            return P_next, K
        P = P_next
    raise ConvergenceError(
        f"Riccati iteration did not converge within {max_iter} iterations")


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


def default_weights(model):
    """Quadratic weights mirroring the frequency/tie-flow penalty structure."""
    dim = model.dim
    n = model.n_areas
    Q = np.zeros((dim, dim))
    for i in range(n):
        Q[i, i] = model.beta[i] ** 2
    for k in range(model.n_pairs):
        Q[3 * n + k, 3 * n + k] = 1.0
    R = 0.1 * np.eye(n)
    return Q, R


# ---------------------------------------------------------------------------
# Measured-state reconstruction shared by LQR and MPC
# ---------------------------------------------------------------------------

class StateEstimator:
    """Rebuild a full state vector from a measurement frame.

    Frequencies come from the frame; tie pair states are the least-squares
    fit of the measured per-area net flows; turbine and governor states are
    propagated open-loop from this controller's own past commands using the
    exact per-area discrete model (no observer, a documented limitation).
    """

    def __init__(self, model, period):
        self.model = model
        self.period = period
        n = model.n_areas
        # Exact ZOH discretization of d[pm;pv]/dt driven by [u, df].
        self._ad = []
        self._bd = []
        for area in model.areas:
            a2 = np.array([[-1.0 / area.turbine_tc, 1.0 / area.turbine_tc],
                           [0.0, -1.0 / area.governor_tc]])
            b2 = np.array([[0.0, 0.0],
                           [1.0 / area.governor_tc,
                            -1.0 / (area.droop * area.governor_tc)]])
            ad, bd = zoh_discretize(a2, b2, period)
            self._ad.append(ad)
            self._bd.append(bd)
        # Net flow = incidence @ pair states; pinv gives the LS inverse.
        self._pinv = np.linalg.pinv(model._incidence)
        self.reset()

    def reset(self):
        n = self.model.n_areas
        self._mech = np.zeros(n)
        self._valve = np.zeros(n)

    def estimate(self, frame):
        model = self.model
        n = model.n_areas
        x = np.zeros(model.dim)
        x[:n] = frame.freq
        x[n:2 * n] = self._mech
        x[2 * n:3 * n] = self._valve
        x[3 * n:] = self._pinv @ frame.net_tie
        return x

    def advance(self, frame, command):
        """Propagate the internal turbine/governor states one period."""
        for i in range(self.model.n_areas):
            z = np.array([self._mech[i], self._valve[i]])
            u = np.array([command[i], frame.freq[i]])
            z = self._ad[i] @ z + self._bd[i] @ u
            self._mech[i], self._valve[i] = z
        if not (np.all(np.isfinite(self._mech))
                and np.all(np.isfinite(self._valve))):
            raise NumericError("state estimator diverged")


class LqrController:
    """Discrete LQR u = -K x on the reconstructed measured state."""

    def __init__(self, model, period, Q=None, R=None):
        if Q is None or R is None:
            dQ, dR = default_weights(model)
            Q = dQ if Q is None else Q
            R = dR if R is None else R
        A, B = model.assemble_linear_model()
        self.Ad, self.Bd = zoh_discretize(A, B, period)
        self.P, self.K = solve_dare(self.Ad, self.Bd, Q, R)
        self._est = StateEstimator(model, period)

    def reset(self):
        self._est.reset()

    def observe(self, frame):
        x = self._est.estimate(frame)
        u = -self.K @ x
        self._est.advance(frame, u)
        return u


class MpcController:
    """Receding-horizon unconstrained MPC with Riccati terminal cost."""

    def __init__(self, model, period, Q=None, R=None, horizon=20):
        if Q is None or R is None:
            dQ, dR = default_weights(model)
            Q = dQ if Q is None else Q
            R = dR if R is None else R
        A, B = model.assemble_linear_model()
        self.Ad, self.Bd = zoh_discretize(A, B, period)
        self.Q, self.R = Q, R
        self.P, _ = solve_dare(self.Ad, self.Bd, Q, R)
        self.horizon = horizon
        # The unconstrained first move is linear in the state; cache its gain
        # column by column against the generic solver.
        n = self.Ad.shape[0]
        self._gain = np.column_stack([
            -mpc_step(self.Ad, self.Bd, Q, R, self.P, horizon, e)
            for e in np.eye(n)])
        self._est = StateEstimator(model, period)

    def reset(self):
        self._est.reset()

    def observe(self, frame):
        x = self._est.estimate(frame)
        u = -self._gain @ x
        self._est.advance(frame, u)
        return u


# ---------------------------------------------------------------------------
# PID tuning
# ---------------------------------------------------------------------------

def tune_pid(scenario, kp_grid=None, ki_grid=None):
    """Grid-search (Kp, Ki) on an attack-free step-load episode.

    Minimizes the integral of the squared frequency/tie-flow penalty; ties
    break toward the smallest Ki, then the smallest Kp.  Kd stays 0.
    """
    from .harness import compute_metrics, run_episode  # local: avoids cycle
    from .scenario import LoadEvent
    import copy

    if kp_grid is None:
        kp_grid = np.logspace(-1.5, 0.5, 9)
    if ki_grid is None:
        ki_grid = np.logspace(-1.5, 0.5, 9)

    tuning = copy.deepcopy(scenario)
    tuning.attacks = []
    if not tuning.loads:
        tuning.loads = [LoadEvent(area=0, kind="step", magnitude=0.01,
                                  start=5.0)]
    model = tuning.build_model()

    best = None
    for ki in sorted(ki_grid):
        for kp in sorted(kp_grid):
            gains = PidGains(kp=float(kp), ki=float(ki))
            ctrl = PidController(model.beta, gains, tuning.control_period)
            try:
                traj = run_episode(tuning, ctrl, model=model)
            except (InstabilityError, NumericError):
                continue  # unstable candidate
            cost = compute_metrics(traj, model).ise
            if not np.isfinite(cost):
                continue
            if best is None or cost < best[0] - 1e-15:
                best = (cost, gains)
    if best is None:
        raise TuningError("every PID candidate destabilized the tuning episode")
    return best[1]
