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
        self._tie_coef = tcoef

    # -- state accessors ---------------------------------------------------

    def zero_state(self):
        return np.zeros(self.dim)

    def freq(self, state):
        return state[..., : self.n_areas]

    def mech(self, state):
        return state[..., self.n_areas: 2 * self.n_areas]

    def valve(self, state):
        return state[..., 2 * self.n_areas: 3 * self.n_areas]

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

    def derivatives(self, state, inputs):
        """Time derivative of the state under the given held inputs."""
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dim,):
            raise StructuralError(
                f"state must have shape ({self.dim},), got {state.shape}")
        if inputs.p_c.shape != (self.n_areas,):
            raise StructuralError("inputs sized for a different grid")
        if not np.all(np.isfinite(state)):
            raise NumericError("non-finite state entry")
        df = self.freq(state)
        pm = self.mech(state)
        pv = self.valve(state)
        ddf = (pm - inputs.p_load - self._d * df - self.net_tie(state)) / self._m
        dpm = (pv - pm) / self._tt
        dpv = (inputs.p_c - df / self._r - pv) / self._tg
        dtie = 2.0 * np.pi * self._tie_coef * (df @ self._incidence)
        return np.concatenate([ddf, dpm, dpv, dtie])

    def rk4_step(self, state, inputs, h):
        """One classical RK4 step with inputs held constant (zero-order hold)."""
        if h <= 0:
            raise StructuralError("step size must be positive")
        k1 = self.derivatives(state, inputs)
        k2 = self.derivatives(state + 0.5 * h * k1, inputs)
        k3 = self.derivatives(state + 0.5 * h * k2, inputs)
        k4 = self.derivatives(state + h * k3, inputs)
        out = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(out)):
            raise NumericError(f"non-finite state after RK4 step of h={h}")
        return out

    def assemble_linear_model(self):
        """Explicit (A, B) with d(state)/dt = A@state + B@p_c - load_gain@p_load.

        Assembled entry by entry from the block structure, independently of
        derivatives(); B covers the command inputs only.
        """
        n = self.n_areas
        dim = self.dim
        A = np.zeros((dim, dim))
        B = np.zeros((dim, n))
        for i, area in enumerate(self.areas):
            fi, mi, vi = i, n + i, 2 * n + i
            A[fi, fi] = -area.damping / area.inertia
            A[fi, mi] = 1.0 / area.inertia
            A[mi, mi] = -1.0 / area.turbine_tc
            A[mi, vi] = 1.0 / area.turbine_tc
            A[vi, fi] = -1.0 / (area.droop * area.governor_tc)
            A[vi, vi] = -1.0 / area.governor_tc
            B[vi, i] = 1.0 / area.governor_tc
        for k, (i, j) in enumerate(self.pairs):
            t_ij = self.topo.coefficients[i, j]
            if t_ij == 0:
                continue
            tk = 3 * n + k
            A[tk, i] = 2.0 * np.pi * t_ij
            A[tk, j] = -2.0 * np.pi * t_ij
            A[i, tk] = -1.0 / self.areas[i].inertia
            A[j, tk] = +1.0 / self.areas[j].inertia
        return A, B

    def load_gain(self):
        """Matrix L with load contribution to the derivative = -L @ p_load."""
        L = np.zeros((self.dim, self.n_areas))
        for i, area in enumerate(self.areas):
            L[i, i] = 1.0 / area.inertia
        return L

    def period_map(self, h, steps):
        """Exact lifted map of `steps` RK4 steps of size h (one control period).

        The plant is linear and its inputs are held over each step, so one
        RK4 step is exactly x+ = M x + N g with g = B p_c - L p_load,
        M = sum_{j<=4} (hA)^j / j! and N = h sum_{j<=3} (hA)^j / (j+1)!.
        Stacking `steps` of them gives

            X = G @ concat(x_k, p_c, p_load_k, ..., p_load_{k+steps-1})

        where X, reshaped to (steps, dim), holds x_{k+1} .. x_{k+steps}, the
        command p_c (already saturated) is held for the whole period and each
        step keeps its own load.  G has shape
        (steps*dim, dim + n + steps*n).
        """
        if h <= 0:
            raise StructuralError("step size must be positive")
        A, B = self.assemble_linear_model()
        dim, n = self.dim, self.n_areas
        eye = np.eye(dim)
        hA = h * A
        N = h * (eye + hA / 2.0 @ (eye + hA / 3.0 @ (eye + hA / 4.0)))
        M = eye + A @ N
        NB = N @ B
        NL = -N @ self.load_gain()

        powers = [eye]                    # M^0 .. M^steps
        for _ in range(steps):
            powers.append(M @ powers[-1])
        load_terms = [P @ NL for P in powers[:steps]]
        G = np.zeros((steps, dim, dim + n + steps * n))
        drive = np.zeros((dim, n))        # sum_{i<j} M^i N B
        for j in range(1, steps + 1):
            G[j - 1, :, :dim] = powers[j]
            drive = drive + powers[j - 1] @ NB
            G[j - 1, :, dim:dim + n] = drive
            for i in range(j):
                col = dim + n + i * n
                G[j - 1, :, col:col + n] = load_terms[j - 1 - i]
        return G.reshape(steps * dim, -1)

    def inputs(self, p_c, p_load):
        """Build PlantInputs with this plant's saturation limit applied."""
        return PlantInputs(np.asarray(p_c, dtype=float),
                           np.asarray(p_load, dtype=float),
                           p_c_max=self.p_c_max)


def two_area_benchmark(p_c_max=DEFAULT_P_C_MAX):
    """Classic two-area benchmark with 2*pi*T_12 = 0.545 p.u./rad."""
    areas = [AreaParams(), AreaParams()]
    t12 = 0.545 / (2.0 * np.pi)
    coef = np.array([[0.0, t12], [t12, 0.0]])
    return LfcModel(areas, TieTopology(2, coef), p_c_max=p_c_max)
