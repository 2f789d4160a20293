"""Linear multi-area load-frequency dynamics integrated with fixed-step RK4.

State layout for an N-area grid (length 3N + N(N-1)/2):

    [ df_1 .. df_N | pm_1 .. pm_N | pv_1 .. pv_N | ptie_(1,2) ptie_(1,3) .. ]

where df is frequency deviation, pm mechanical power deviation, pv governor
valve deviation (all p.u.), and ptie the tie-line flow deviation of each
unordered area pair (i < j), lexicographic order.  The reverse flow ptie_ji
is never stored; readers obtain it as -ptie_ij.
"""

from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import NumericError, StructuralError

# Plant-side saturation of the generation command, p.u.
DEFAULT_P_C_MAX = 0.5


@dataclass
class AreaParams:
    """Physical constants of one control area (all per-unit based)."""

    inertia: float = 0.1667       # M, p.u.*s
    damping: float = 0.0083       # D, p.u. per p.u. frequency
    droop: float = 2.4            # R, p.u. frequency per p.u. power
    governor_tc: float = 0.08     # T_g, s
    turbine_tc: float = 0.3       # T_t, s
    freq_bias: float = 0.425      # beta, p.u. power per p.u. frequency

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise StructuralError("area constants must be finite")
        if self.inertia <= 0 or self.governor_tc <= 0 or self.turbine_tc <= 0:
            raise StructuralError("inertia and time constants must be positive")
        if self.droop <= 0:
            raise StructuralError("droop must be positive")
        if self.damping < 0:
            raise StructuralError("damping must be non-negative")
        if self.freq_bias <= 0:
            raise StructuralError("frequency bias must be positive")


@dataclass
class TieTopology:
    """Symmetric synchronizing coefficients T_ij (p.u. power / rad).

    A zero coefficient means no tie-line exists between the pair; such pairs
    still occupy a state slot but never carry flow.
    """

    n_areas: int
    coefficients: np.ndarray = None  # (N, N), symmetric, zero diagonal

    def __post_init__(self):
        if self.n_areas < 1:
            raise StructuralError("need at least one area")
        n = self.n_areas
        if self.coefficients is None:
            self.coefficients = np.zeros((n, n))
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (n, n):
            raise StructuralError(f"coefficient matrix must be {n}x{n}")
        self.check_coefficients(self.coefficients)
        if np.any(np.diag(self.coefficients) != 0):
            raise StructuralError("T_ii must be zero")
        if not np.array_equal(self.coefficients, self.coefficients.T):
            raise StructuralError("coefficient matrix must be symmetric")
        if n >= 2 and not self._connected():
            raise StructuralError("tie-line graph must be connected")

    @staticmethod
    def check_coefficients(coefficients):
        """Raise StructuralError unless every coefficient is finite, >= 0."""
        if not np.all(np.isfinite(coefficients) & (coefficients >= 0)):
            raise StructuralError(
                "synchronizing coefficients must be finite and >= 0")

    def _connected(self):
        n = self.n_areas
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and self.coefficients[i, j] > 0:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == n

    @property
    def pairs(self):
        """All unordered pairs (i, j), i < j, in state-slot order."""
        n = self.n_areas
        return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass
class PlantInputs:
    """Generation commands and load disturbances, one entry per area.

    Commands are clamped to +-p_c_max on construction: the saturation is a
    physical property of the plant, not of any controller.
    """

    p_c: np.ndarray
    p_load: np.ndarray
    p_c_max: float = DEFAULT_P_C_MAX

    def __post_init__(self):
        self.p_c = np.clip(np.asarray(self.p_c, dtype=float),
                           -self.p_c_max, self.p_c_max)
        self.p_load = np.asarray(self.p_load, dtype=float)
        if self.p_c.shape != self.p_load.shape:
            raise StructuralError("p_c and p_load must have matching shapes")


class LfcModel:
    """N-area interconnected LFC plant (non-reheat turbine realization).

    Per area i:
        d(df_i)/dt = (pm_i - p_load_i - D_i*df_i - net_tie_i) / M_i
        d(pm_i)/dt = (pv_i - pm_i) / T_t_i
        d(pv_i)/dt = (p_c_i - df_i/R_i - pv_i) / T_g_i
    Per pair (i, j) with a tie-line:
        d(ptie_ij)/dt = 2*pi*T_ij*(df_i - df_j)

    All methods are pure functions of their arguments; instances hold only
    immutable parameter arrays and are safe to share across workers.
    """

    def __init__(self, areas, topo, p_c_max=DEFAULT_P_C_MAX):
        if len(areas) != topo.n_areas:
            raise StructuralError("area list and topology disagree on N")
        self.areas = list(areas)
        self.topo = topo
        self.n_areas = topo.n_areas
        self.p_c_max = p_c_max
        n = self.n_areas
        self.pairs = topo.pairs
        self.n_pairs = len(self.pairs)
        self.dim = 3 * n + self.n_pairs

        self._m = np.array([a.inertia for a in areas])
        self._d = np.array([a.damping for a in areas])
        self._r = np.array([a.droop for a in areas])
        self._tg = np.array([a.governor_tc for a in areas])
        self._tt = np.array([a.turbine_tc for a in areas])
        self.beta = np.array([a.freq_bias for a in areas])

        # Signed incidence of live tie-lines: row i, column k = +1 if area i
        # is the low end of pair k, -1 if the high end, 0 otherwise or when
        # the pair has no line (T_ij == 0, flow identically zero).
        inc = np.zeros((n, self.n_pairs))
        tcoef = np.zeros(self.n_pairs)
        for k, (i, j) in enumerate(self.pairs):
            tcoef[k] = topo.coefficients[i, j]
            if tcoef[k] > 0:
                inc[i, k] = 1.0
                inc[j, k] = -1.0
        self._incidence = inc
        # 2*pi*T_ij, rounded as 2.0 * np.pi * T_ij * x evaluates it.
        self._tie_gain = (2.0 * np.pi) * tcoef

    # -- state accessors ---------------------------------------------------

    def zero_state(self):
        return np.zeros(self.dim)

    def freq(self, state):
        return state[..., : self.n_areas]

    def tie_states(self, state):
        return state[..., 3 * self.n_areas:]

    def net_tie(self, state):
        """Per-area net tie-line export, sum_j ptie_ij with signed flows."""
        return self.tie_states(state) @ self._incidence.T

    def tie_flow(self, state, i, j):
        """Reader view of ptie_ij for any ordered (i, j); antisymmetric."""
        if i == j or not (0 <= i < self.n_areas and 0 <= j < self.n_areas):
            raise StructuralError(f"bad area pair ({i}, {j})")
        sign = 1.0 if i < j else -1.0
        a, b = min(i, j), max(i, j)
        k = self.pairs.index((a, b))
        return sign * self.tie_states(state)[k]

    def ace(self, state, i):
        """Area control error beta_i*df_i + sum_j ptie_ij for area i."""
        if not 0 <= i < self.n_areas:
            raise StructuralError(f"bad area index {i}")
        return self.beta[i] * self.freq(state)[i] + self.net_tie(state)[i]

    # -- dynamics ----------------------------------------------------------

    def _rates(self, x, p_c, p_load, out):
        """Unchecked time derivative of state x under the held command p_c
        (already saturated) and load p_load, written into out.  Leading
        axes stack independent states.

        The plant's equations are written here alone: derivatives() and
        step_period() run it, and the linear model and the RK4 step map are
        read off it (_columns), so the oracle tests of each check the
        arithmetic training runs.
        """
        n = self.n_areas
        df, pm, pv = x[..., :n], x[..., n:2 * n], x[..., 2 * n:3 * n]
        ddf, dpm, dpv = (out[..., :n], out[..., n:2 * n],
                         out[..., 2 * n:3 * n])
        np.subtract(pm, p_load, out=ddf)
        ddf -= self._d * df
        ddf -= x[..., 3 * n:] @ self._incidence.T
        ddf /= self._m
        np.subtract(pv, pm, out=dpm)
        dpm /= self._tt
        np.subtract(p_c, df / self._r, out=dpv)
        dpv -= pv
        dpv /= self._tg
        np.multiply(self._tie_gain, df @ self._incidence,
                    out=out[..., 3 * n:])
        return out

    def _rk4(self, x, p_c, p_load, h, k):
        """Unchecked classical RK4 step of size h from x with p_c and p_load
        held; k holds four arrays shaped like x for the four stages."""
        half = 0.5 * h
        k1, k2, k3, k4 = k
        self._rates(x, p_c, p_load, k1)
        self._rates(x + half * k1, p_c, p_load, k2)
        self._rates(x + half * k2, p_c, p_load, k3)
        self._rates(x + h * k3, p_c, p_load, k4)
        return x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    def _columns(self, respond):
        """The matrices of a map linear in (x, p_c, p_load), read off one
        call respond(x, p_c, p_load) on all dim + 2n unit inputs stacked:
        its columns for the state, the command and the load."""
        dim, n = self.dim, self.n_areas
        unit = np.eye(dim + 2 * n)
        rows = respond(unit[:, :dim], unit[:, dim:dim + n], unit[:, dim + n:])
        return rows[:dim].T, rows[dim:dim + n].T, rows[dim + n:].T

    def _checked_state(self, state):
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise StructuralError(
                f"state must have shape ({self.dim},), got {state.shape}")
        return state

    def derivatives(self, state, inputs):
        """Time derivative of the state under the given held inputs."""
        state = self._checked_state(state)
        if inputs.p_c.shape != (self.n_areas,):
            raise StructuralError("inputs sized for a different grid")
        if not np.all(np.isfinite(state)):
            raise NumericError("non-finite state entry")
        return self._rates(state, inputs.p_c, inputs.p_load,
                           np.empty(self.dim))

    def rk4_step(self, state, inputs, h):
        """One classical RK4 step with inputs held constant (zero-order hold):
        step_period over a single load row."""
        return self.step_period(state, inputs.p_c, inputs.p_load[None], h)

    def step_period(self, state, p_c, loads, h):
        """State after one RK4 step of size h per row of loads, shape
        (steps, n), with the command p_c (already saturated) held.

        rk4_step is its one-row case.  Shapes and the start state are
        checked once; every step's result must be finite, else NumericError.
        """
        if h <= 0:
            raise StructuralError("step size must be positive")
        x = self._checked_state(state)
        p_c = np.asarray(p_c, dtype=float)
        loads = np.asarray(loads, dtype=float)
        n = self.n_areas
        if p_c.shape != (n,) or loads.ndim != 2 or loads.shape[1] != n:
            raise StructuralError(
                f"command must have shape ({n},) and loads (steps, {n})")
        if not np.isfinite(x).all():
            raise NumericError("non-finite state entry")
        k = tuple(np.empty((4, self.dim)))
        for p_load in loads:
            x = self._rk4(x, p_c, p_load, h, k)
            if not np.isfinite(x).all():
                raise NumericError(f"non-finite state after RK4 step of h={h}")
        return x

    def _rate_columns(self):
        """(A, B, -L) of the rate kernel; see assemble_linear_model."""
        return self._columns(lambda x, p_c, p_load: self._rates(
            x, p_c, p_load, np.empty(x.shape)))

    def assemble_linear_model(self):
        """Explicit (A, B) with d(state)/dt = A@state + B@p_c - L@p_load,
        L = load_gain(), read off the rate kernel; B covers the command
        inputs only."""
        A, B, _ = self._rate_columns()
        return A, B

    def load_gain(self):
        """Matrix L with load contribution to the derivative = -L @ p_load."""
        return -self._rate_columns()[2]

    def _rk4_map(self, h):
        """(M, N B, -N L) of one RK4 step of size h with the inputs held,
        x+ = M x + N B p_c - N L p_load, read off the step itself."""
        if h <= 0:
            raise StructuralError("step size must be positive")
        return self._columns(lambda x, p_c, p_load: self._rk4(
            x, p_c, p_load, h, np.empty((4,) + x.shape)))

    def period_map(self, h, steps):
        """Exact map of `steps` RK4 steps of size h (one control period)
        from the start state and the held command.

        X = G @ concat(x_k, p_c), with X reshaped to (steps, dim) holding
        x_{k+1} .. x_{k+steps} of a load-free plant and the command p_c
        (already saturated) held for the whole period; G, of shape
        (steps*dim, dim + n), stacks the powers 1 .. steps of the one-step
        map [[M, N B], [0, I]] of [state, command].  load_response() gives
        what the loads add.
        """
        M, NB, _ = self._rk4_map(h)
        dim, n = self.dim, self.n_areas
        step = np.eye(dim + n)
        step[:dim, :dim] = M
        step[:dim, dim:] = NB
        G = np.empty((steps, dim, dim + n))
        power = np.eye(dim + n)
        for j in range(steps):
            power = step @ power
            G[j] = power[:dim]
        return G.reshape(steps * dim, dim + n)

    def load_response(self, h, loads):
        """States that per-step loads alone drive through RK4 steps of size
        h from the zero state under a zero command.

        `loads` has shape (..., steps, n), one load per plant step; the
        result, (..., steps, dim), holds the states after each step.  Every
        leading index (a control period, say) starts from zero, and all of
        them advance together through one `steps`-long recursion.
        """
        M, _, drive = self._rk4_map(h)
        loads = np.asarray(loads, dtype=float)
        out = np.empty(loads.shape[:-1] + (self.dim,))
        z = np.zeros(loads.shape[:-2] + (self.dim,))
        for j in range(loads.shape[-2]):
            z = z @ M.T + loads[..., j, :] @ drive.T
            out[..., j, :] = z
        return out

    def inputs(self, p_c, p_load):
        """Build PlantInputs with this plant's saturation limit applied."""
        return PlantInputs(np.asarray(p_c, dtype=float),
                           np.asarray(p_load, dtype=float),
                           p_c_max=self.p_c_max)


def two_area_benchmark():
    """Classic two-area benchmark with 2*pi*T_12 = 0.545 p.u./rad."""
    areas = [AreaParams(), AreaParams()]
    t12 = 0.545 / (2.0 * np.pi)
    coef = np.array([[0.0, t12], [t12, 0.0]])
    return LfcModel(areas, TieTopology(2, coef))
