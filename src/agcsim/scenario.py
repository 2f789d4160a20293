"""Scenario file format: parsing, validation, defaults.

Format (key = value lines, # comments, [section] blocks), version 1:

    format_version = 1
    horizon = 60.0          # seconds, integer multiple of control_period
    plant_step = 0.01       # RK4 step h, seconds
    control_period = 0.1    # controller rate, integer multiple of plant_step
    seed = 0                # default seed of `agcsim train`
    command_limit = 0.5     # plant-side saturation, p.u.

    [area 1]                # 1-based, contiguous; omit for the default
    inertia = 0.1667        # two-area benchmark grid
    damping = 0.0083
    droop = 2.4
    governor_tc = 0.08
    turbine_tc = 0.3
    freq_bias = 0.425

    [tie 1 2]
    coefficient = 0.086737  # T_12 in p.u./rad

    [load]                  # repeatable
    area = 1
    kind = step             # step | ramp (magnitude is p.u./s for ramp)
    magnitude = 0.01
    start = 5.0

    [attack]                # repeatable
    kind = step             # step | pulse | ramp
    channel = frequency_sensor   # | tieline_sensor | control_signal
    area = 2
    magnitude = 0.01        # p.u., or p.u./s for ramp
    start = 5.0
    duration = 2.0          # pulse only

    [controller]
    type = pid              # pid | lqr | mpc | dqn | zero
    ...                     # type-specific keys, see below

Unknown keys and unknown sections are errors (no silent typo acceptance).
"""

from dataclasses import dataclass, field

import numpy as np

from .attacks import AttackSignal, InjectionPoint, ATTACK_KINDS, CHANNELS
from .dynamics import (AreaParams, LfcModel, TieTopology, DEFAULT_P_C_MAX,
                       two_area_benchmark)
from .errors import ScenarioError, StructuralError

FORMAT_VERSION = 1

CONTROLLER_TYPES = ("pid", "lqr", "mpc", "dqn", "zero")

# Area keys -> AreaParams field names (defaults are the benchmark values).
_AREA_KEYS = {
    "inertia": "inertia",
    "damping": "damping",
    "droop": "droop",
    "governor_tc": "governor_tc",
    "turbine_tc": "turbine_tc",
    "freq_bias": "freq_bias",
}

_CONTROLLER_KEYS = {
    "pid": {"kp", "ki", "kd", "deriv_filter"},
    "lqr": {"q_freq", "q_tie", "r_weight"},
    "mpc": {"q_freq", "q_tie", "r_weight", "horizon_steps"},
    "dqn": {"checkpoint"},
    "zero": set(),
}

# Lower bound of each bounded [controller] number: (bound, bound allowed).
# PidGains needs ki >= 0 and deriv_filter > 0; the LQR/MPC weights must not
# be negative (r_weight = 0 builds).  Every number must also be finite.
_CONTROLLER_BOUNDS = {
    "ki": (0.0, True),
    "deriv_filter": (0.0, False),
    "q_freq": (0.0, True),
    "q_tie": (0.0, True),
    "r_weight": (0.0, True),
    "horizon_steps": (1, True),
}


@dataclass
class LoadEvent:
    """One load disturbance: a step offset or a ramp starting at a time."""

    area: int
    kind: str          # "step" or "ramp"
    magnitude: float   # p.u. (step) or p.u./s (ramp)
    start: float


def load_profile(events, n_areas, t):
    """Total load disturbance per area at time t (events sum).

    t may be a scalar, giving shape (n_areas,), or an array of times, giving
    t.shape + (n_areas,).  Each event adds its step magnitude, or its ramp
    slope times the time since its start, from its start on.  Before its
    start it adds 0.0, which leaves every sum unchanged, so each entry holds
    the bits a scalar loop over the active events would give.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape + (n_areas,))
    for ev in events:
        dt = t - ev.start
        value = ev.magnitude if ev.kind == "step" else ev.magnitude * dt
        out[..., ev.area] += np.where(dt < 0, 0.0, value)
    return out


@dataclass
class Scenario:
    """Full experiment description driving one closed-loop episode."""

    areas: list = None
    tie_coefficients: np.ndarray = None
    loads: list = field(default_factory=list)
    attacks: list = field(default_factory=list)
    horizon: float = 60.0
    plant_step: float = 0.01
    control_period: float = 0.1
    command_limit: float = DEFAULT_P_C_MAX
    controller: dict = field(default_factory=lambda: {"type": "zero"})
    seed: int = 0

    def __post_init__(self):
        if self.areas is None:
            bench = two_area_benchmark()
            self.areas = bench.areas
            self.tie_coefficients = bench.topo.coefficients
        self._validate()

    def _validate(self):
        for name in ("horizon", "plant_step", "control_period",
                     "command_limit"):
            if not np.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if self.plant_step <= 0:
            raise ScenarioError("plant_step must be positive")
        if self.command_limit <= 0:
            raise ScenarioError("command_limit must be positive")
        if not _is_multiple(self.control_period, self.plant_step):
            raise ScenarioError(
                "control_period must be a positive integer multiple of plant_step")
        if not _is_multiple(self.horizon, self.control_period):
            raise ScenarioError(
                "horizon must be a positive integer multiple of control_period")
        n = len(self.areas)
        try:
            TieTopology(n, self.tie_coefficients)
        except StructuralError as exc:
            raise ScenarioError(str(exc)) from None
        for ev in self.loads:
            if not 0 <= ev.area < n:
                raise ScenarioError(f"load event targets missing area {ev.area + 1}")
            if ev.kind not in ("step", "ramp"):
                raise ScenarioError(f"unknown load kind {ev.kind!r}")
            if not (np.isfinite(ev.magnitude) and np.isfinite(ev.start)):
                raise ScenarioError("load magnitude and start must be finite")
        for atk in self.attacks:
            if atk.target.area >= n:
                raise ScenarioError(
                    f"attack targets missing area {atk.target.area + 1}")
        ctype = self.controller.get("type")
        if ctype not in CONTROLLER_TYPES:
            raise ScenarioError(f"unknown controller type {ctype!r}")

    @property
    def steps_per_control(self):
        return round(self.control_period / self.plant_step)

    @property
    def n_control_steps(self):
        return round(self.horizon / self.control_period)

    def build_model(self):
        topo = TieTopology(len(self.areas), self.tie_coefficients)
        return LfcModel(self.areas, topo, p_c_max=self.command_limit)

    def load_vector(self, t):
        """Total load disturbance per area at time(s) t; see load_profile."""
        return load_profile(self.loads, len(self.areas), t)


def _is_multiple(value, unit):
    """value / unit is a positive integer up to a 1e-9 tolerance."""
    ratio = value / unit
    return abs(ratio - round(ratio)) <= 1e-9 and round(ratio) >= 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _parse_number(raw, key, line):
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"value for {key!r} is not a number: {raw!r}", line)


def _parse_int(raw, key, line):
    val = _parse_number(raw, key, line)
    if not np.isfinite(val) or val != int(val):
        raise ScenarioError(f"value for {key!r} must be an integer", line)
    return int(val)


def _checked(line, build, *args, **kwargs):
    """build(*args, **kwargs), with a StructuralError reported at line."""
    try:
        return build(*args, **kwargs)
    except StructuralError as exc:
        raise ScenarioError(str(exc), line) from None


def _controller_number(raw, key, line):
    """A finite [controller] number within _CONTROLLER_BOUNDS."""
    if key == "horizon_steps":
        val = _parse_int(raw, key, line)
    else:
        val = _parse_number(raw, key, line)
    if not np.isfinite(val):
        raise ScenarioError(f"value for {key!r} must be finite", line)
    if key in _CONTROLLER_BOUNDS:
        bound, inclusive = _CONTROLLER_BOUNDS[key]
        if val < bound or (val == bound and not inclusive):
            op = ">=" if inclusive else ">"
            raise ScenarioError(f"{key} must be {op} {bound}", line)
    return val


def _split_sections(text):
    """Tokenize into (top_level_pairs, sections); each entry keeps its line."""
    top = []
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("unterminated section header", lineno)
            header = line[1:-1].split()
            if not header:
                raise ScenarioError("empty section header", lineno)
            current = {"name": header[0], "args": header[1:],
                       "line": lineno, "pairs": []}
            sections.append(current)
            continue
        if "=" not in line:
            raise ScenarioError(f"expected key = value, got {line!r}", lineno)
        key, _, value = line.partition("=")
        entry = (key.strip(), value.strip(), lineno)
        if current is None:
            top.append(entry)
        else:
            current["pairs"].append(entry)
    return top, sections


def _section_dict(section, allowed):
    out = {}
    for key, value, lineno in section["pairs"]:
        if key not in allowed:
            raise ScenarioError(
                f"unknown key {key!r} in [{section['name']}] section", lineno)
        if key in out:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        out[key] = (value, lineno)
    return out


def parse_scenario(text):
    """Parse and fully validate a scenario file.  Raises ScenarioError."""
    top, sections = _split_sections(text)

    kwargs = {}
    controller = None
    for key, value, lineno in top:
        if key == "format_version":
            if _parse_int(value, key, lineno) != FORMAT_VERSION:
                raise ScenarioError(
                    f"unsupported format_version {value}", lineno)
        elif key == "horizon":
            kwargs["horizon"] = _parse_number(value, key, lineno)
        elif key == "plant_step":
            kwargs["plant_step"] = _parse_number(value, key, lineno)
        elif key == "control_period":
            kwargs["control_period"] = _parse_number(value, key, lineno)
        elif key == "command_limit":
            kwargs["command_limit"] = _parse_number(value, key, lineno)
        elif key == "seed":
            kwargs["seed"] = _parse_int(value, key, lineno)
        elif key == "controller":
            controller = {"type": value}
        else:
            raise ScenarioError(f"unknown key {key!r}", lineno)

    area_specs = {}
    tie_specs = {}
    loads = []
    attack_specs = []
    for sec in sections:
        name = sec["name"]
        if name == "area":
            if len(sec["args"]) != 1:
                raise ScenarioError("[area] needs one index", sec["line"])
            idx = _parse_int(sec["args"][0], "area index", sec["line"])
            if idx < 1:
                raise ScenarioError("area indices are 1-based", sec["line"])
            if idx in area_specs:
                raise ScenarioError(f"area {idx} defined twice", sec["line"])
            pairs = _section_dict(sec, set(_AREA_KEYS))
            fields = {_AREA_KEYS[k]: _parse_number(v, k, ln)
                      for k, (v, ln) in pairs.items()}
            area_specs[idx] = _checked(sec["line"], AreaParams, **fields)
        elif name == "tie":
            if len(sec["args"]) != 2:
                raise ScenarioError("[tie] needs two area indices", sec["line"])
            i = _parse_int(sec["args"][0], "tie index", sec["line"])
            j = _parse_int(sec["args"][1], "tie index", sec["line"])
            if i < 1 or j < 1 or i == j:
                raise ScenarioError("tie needs two distinct 1-based areas",
                                    sec["line"])
            pairs = _section_dict(sec, {"coefficient"})
            if "coefficient" not in pairs:
                raise ScenarioError("[tie] requires a coefficient", sec["line"])
            coef = _parse_number(pairs["coefficient"][0], "coefficient",
                                 pairs["coefficient"][1])
            _checked(sec["line"], TieTopology.check_coefficients, coef)
            key = (min(i, j) - 1, max(i, j) - 1)
            if key in tie_specs:
                raise ScenarioError(f"tie {i}-{j} defined twice", sec["line"])
            tie_specs[key] = coef
        elif name == "load":
            pairs = _section_dict(sec, {"area", "kind", "magnitude", "start"})
            area = _parse_int(pairs["area"][0], "area", pairs["area"][1]) \
                if "area" in pairs else 1
            kind = pairs["kind"][0] if "kind" in pairs else "step"
            if kind not in ("step", "ramp"):
                raise ScenarioError(f"unknown load kind {kind!r}",
                                    pairs["kind"][1])
            if "magnitude" not in pairs:
                raise ScenarioError("[load] requires a magnitude", sec["line"])
            mag = _parse_number(pairs["magnitude"][0], "magnitude",
                                pairs["magnitude"][1])
            start = _parse_number(pairs["start"][0], "start",
                                  pairs["start"][1]) if "start" in pairs else 0.0
            loads.append(LoadEvent(area - 1, kind, mag, start))
        elif name == "attack":
            pairs = _section_dict(
                sec, {"kind", "channel", "area", "magnitude", "start",
                      "duration"})
            for req in ("kind", "channel", "area", "magnitude"):
                if req not in pairs:
                    raise ScenarioError(f"[attack] requires {req!r}",
                                        sec["line"])
            kind = pairs["kind"][0]
            if kind not in ATTACK_KINDS:
                raise ScenarioError(f"unknown attack kind {kind!r}",
                                    pairs["kind"][1])
            channel = pairs["channel"][0]
            if channel not in CHANNELS:
                raise ScenarioError(f"unknown channel {channel!r}",
                                    pairs["channel"][1])
            area = _parse_int(pairs["area"][0], "area", pairs["area"][1])
            if area < 1:
                raise ScenarioError("area indices are 1-based",
                                    pairs["area"][1])
            mag = _parse_number(pairs["magnitude"][0], "magnitude",
                                pairs["magnitude"][1])
            start = _parse_number(pairs["start"][0], "start",
                                  pairs["start"][1]) if "start" in pairs else 0.0
            duration = _parse_number(pairs["duration"][0], "duration",
                                     pairs["duration"][1]) \
                if "duration" in pairs else 0.0
            attack_specs.append(
                (AttackSignal(kind, mag, start,
                              InjectionPoint(channel, area - 1),
                              duration=duration), sec["line"]))
        elif name == "controller":
            allowed = {"type"} | set().union(*_CONTROLLER_KEYS.values())
            pairs = _section_dict(sec, allowed)
            if "type" not in pairs:
                raise ScenarioError("[controller] requires a type", sec["line"])
            ctype = pairs["type"][0]
            if ctype not in CONTROLLER_TYPES:
                raise ScenarioError(f"unknown controller type {ctype!r}",
                                    pairs["type"][1])
            controller = {"type": ctype}
            for key, (value, lineno) in pairs.items():
                if key == "type":
                    continue
                if key not in _CONTROLLER_KEYS[ctype]:
                    raise ScenarioError(
                        f"key {key!r} does not apply to controller "
                        f"type {ctype!r}", lineno)
                if key == "checkpoint":
                    controller[key] = value
                else:
                    controller[key] = _controller_number(value, key, lineno)
        else:
            raise ScenarioError(f"unknown section [{name}]", sec["line"])

    if area_specs:
        n = max(area_specs)
        missing = [str(i) for i in range(1, n + 1) if i not in area_specs]
        if missing:
            raise ScenarioError("area indices must be contiguous from 1; "
                                "missing " + ", ".join(missing))
        areas = [area_specs[i] for i in range(1, n + 1)]
        coef = np.zeros((n, n))
        for (i, j), c in tie_specs.items():
            if i >= n or j >= n:
                raise ScenarioError(f"tie references missing area {max(i, j) + 1}")
            coef[i, j] = coef[j, i] = c
        kwargs["areas"] = areas
        kwargs["tie_coefficients"] = coef
    elif tie_specs:
        raise ScenarioError("[tie] sections require explicit [area] sections")

    kwargs["loads"] = loads
    kwargs["attacks"] = [atk for atk, _ in attack_specs]
    if controller is not None:
        kwargs["controller"] = controller
    return Scenario(**kwargs)


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())
