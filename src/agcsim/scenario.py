"""Scenario file format: parsing, validation, defaults.

Format (key = value lines, # comments, [section] blocks), version 1:

    format_version = 1
    horizon = 60.0          # seconds, integer multiple of control_period
    plant_step = 0.01       # RK4 step h, seconds
    control_period = 0.1    # controller rate, integer multiple of plant_step
    seed = 0                # default seed of `agcsim train`, >= 0
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
    start = 5.0             # >= 0
    duration = 2.0          # pulse only

    [controller]
    type = pid              # pid | lqr | mpc | dqn | zero
    ...                     # type-specific keys, see below

Unknown sections and unknown, repeated or missing required keys are errors
at their line (no silent typo acceptance).  Every number must be finite.  A
value the object it builds rejects (an AreaParams, a tie coefficient, a
LoadEvent, an AttackSignal) is an error at its section's line; a bad
[controller] number is one at its key's line.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .attacks import AttackSignal, InjectionPoint
from .dynamics import (AreaParams, LfcModel, TieTopology, DEFAULT_P_C_MAX,
                       two_area_benchmark)
from .errors import ScenarioError, StructuralError

FORMAT_VERSION = 1

CONTROLLER_TYPES = ("pid", "lqr", "mpc", "dqn", "zero")
LOAD_KINDS = ("step", "ramp")

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


@dataclass(frozen=True)
class LoadEvent:
    """One load disturbance: a step offset or a ramp starting at a time."""

    area: int
    kind: str          # "step" or "ramp"
    magnitude: float   # p.u. (step) or p.u./s (ramp)
    start: float

    def __post_init__(self):
        if self.kind not in LOAD_KINDS:
            raise StructuralError(f"unknown load kind {self.kind!r}")
        if not (math.isfinite(self.magnitude) and math.isfinite(self.start)):
            raise StructuralError("load magnitude and start must be finite")


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
        """Raise ScenarioError naming the values at fault (see its keys):
        a field name, or loads[k] / attacks[k] for an event."""
        for name in ("horizon", "plant_step", "control_period",
                     "command_limit"):
            if not np.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite", keys=(name,))
        if self.plant_step <= 0:
            raise ScenarioError("plant_step must be positive",
                                keys=("plant_step",))
        if self.command_limit <= 0:
            raise ScenarioError("command_limit must be positive",
                                keys=("command_limit",))
        if not _is_multiple(self.control_period, self.plant_step):
            raise ScenarioError(
                "control_period must be a positive integer multiple of plant_step",
                keys=("control_period", "plant_step"))
        if not _is_multiple(self.horizon, self.control_period):
            raise ScenarioError(
                "horizon must be a positive integer multiple of control_period",
                keys=("horizon", "control_period"))
        if self.seed < 0:
            raise ScenarioError("seed must be >= 0", keys=("seed",))
        n = len(self.areas)
        _checked(None, TieTopology, n, self.tie_coefficients)
        for k, ev in enumerate(self.loads):
            if not 0 <= ev.area < n:
                raise ScenarioError(
                    f"load event targets missing area {ev.area + 1}",
                    keys=(f"loads[{k}]",))
        for k, atk in enumerate(self.attacks):
            if atk.target.area >= n:
                raise ScenarioError(
                    f"attack targets missing area {atk.target.area + 1}",
                    keys=(f"attacks[{k}]",))
        _controller_type(self.controller.get("type"))

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
    """value / unit is a finite positive integer up to a 1e-9 tolerance."""
    ratio = value / unit
    return (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9
            and round(ratio) >= 1)


# ---------------------------------------------------------------------------
# Parser: it tokenizes, converts each value by its key's parser and reports
# lines.  The objects the values build check their own domains.
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


def _parse_text(raw, key, line):
    return raw


def _parse_area(raw, key, line):
    """A 1-based area index as the file writes it, returned 0-based."""
    idx = _parse_int(raw, key, line)
    if idx < 1:
        raise ScenarioError("area indices are 1-based", line)
    return idx - 1


def _parse_version(raw, key, line):
    if _parse_int(raw, key, line) != FORMAT_VERSION:
        raise ScenarioError(f"unsupported format_version {raw}", line)
    return FORMAT_VERSION


def _controller_type(ctype, key=None, line=None):
    """ctype, if it names a controller type; a value parser too."""
    if ctype not in CONTROLLER_TYPES:
        raise ScenarioError(f"unknown controller type {ctype!r}", line)
    return ctype


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


# The keys of the top level and of each section, each with its value parser.
_TOP_KEYS = {
    "format_version": _parse_version,
    "horizon": _parse_number,
    "plant_step": _parse_number,
    "control_period": _parse_number,
    "command_limit": _parse_number,
    "seed": _parse_int,
    "controller": _controller_type,
}
_AREA_KEYS = {f.name: _parse_number for f in fields(AreaParams)}
_TIE_KEYS = {"coefficient": _parse_number}
_LOAD_KEYS = {"area": _parse_area, "kind": _parse_text,
              "magnitude": _parse_number, "start": _parse_number}
_ATTACK_KEYS = {**_LOAD_KEYS, "channel": _parse_text,
                "duration": _parse_number}
_CONTROLLER_VALUES = {
    **dict.fromkeys(set().union(*_CONTROLLER_KEYS.values()),
                    _controller_number),
    "type": _controller_type,
    "checkpoint": _parse_text,
}


def _checked(line, build, *args, **kwargs):
    """build(*args, **kwargs), with a StructuralError reported at line."""
    try:
        return build(*args, **kwargs)
    except StructuralError as exc:
        raise ScenarioError(str(exc), line) from None


def _split_sections(text):
    """Tokenize into sections, the top level first (name None); each section
    and each of its key = value pairs keeps its line."""
    current = {"name": None, "args": [], "line": None, "pairs": []}
    sections = [current]
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
        current["pairs"].append((key.strip(), value.strip(), lineno))
    return sections


def _values(section, keys, required=()):
    """{key: value} of a section's pairs, each value converted by its parser
    in keys.  An unknown, repeated or missing required key is an error."""
    name = section["name"]
    values = {}
    for key, raw, line in section["pairs"]:
        if key not in keys:
            where = f" in [{name}] section" if name else ""
            raise ScenarioError(f"unknown key {key!r}{where}", line)
        if key in values:
            raise ScenarioError(f"duplicate key {key!r}", line)
        values[key] = keys[key](raw, key, line)
    for key in required:
        if key not in values:
            raise ScenarioError(f"[{name}] requires {key!r}", section["line"])
    return values


def _header_areas(section, count):
    """The count 0-based areas a section header names."""
    name, line = section["name"], section["line"]
    if len(section["args"]) != count:
        raise ScenarioError(f"[{name}] needs {count} area index"
                            + ("es" if count > 1 else ""), line)
    return [_parse_area(arg, f"{name} index", line) for arg in section["args"]]


def parse_scenario(text):
    """Parse and fully validate a scenario file.  Raises ScenarioError."""
    top, *sections = _split_sections(text)
    kwargs = _values(top, _TOP_KEYS)
    kwargs.pop("format_version", None)
    if "controller" in kwargs:
        kwargs["controller"] = {"type": kwargs["controller"]}

    areas, area_lines, ties, loads, attacks = {}, {}, {}, [], []
    # The line of each value Scenario._validate may name in an error.
    lines = {key: line for key, _, line in top["pairs"]}
    for sec in sections:
        name, line = sec["name"], sec["line"]
        if name == "area":
            (i,) = _header_areas(sec, 1)
            if i in areas:
                raise ScenarioError(f"area {i + 1} defined twice", line)
            areas[i] = _checked(line, AreaParams, **_values(sec, _AREA_KEYS))
            area_lines[i] = line
        elif name == "tie":
            i, j = sorted(_header_areas(sec, 2))
            if i == j:
                raise ScenarioError("tie needs two distinct areas", line)
            if (i, j) in ties:
                raise ScenarioError(f"tie {i + 1}-{j + 1} defined twice", line)
            coef = _values(sec, _TIE_KEYS, ("coefficient",))["coefficient"]
            _checked(line, TieTopology.check_coefficients, coef)
            ties[i, j] = coef, line
        elif name == "load":
            v = _values(sec, _LOAD_KEYS, ("magnitude",))
            lines[f"loads[{len(loads)}]"] = line
            loads.append(_checked(line, LoadEvent, v.get("area", 0),
                                  v.get("kind", "step"), v["magnitude"],
                                  v.get("start", 0.0)))
        elif name == "attack":
            v = _values(sec, _ATTACK_KEYS,
                        ("kind", "channel", "area", "magnitude"))
            target = _checked(line, InjectionPoint, v["channel"], v["area"])
            lines[f"attacks[{len(attacks)}]"] = line
            attacks.append(_checked(line, AttackSignal, v["kind"],
                                    v["magnitude"], v.get("start", 0.0),
                                    target, duration=v.get("duration", 0.0)))
        elif name == "controller":
            controller = _values(sec, _CONTROLLER_VALUES, ("type",))
            ctype = controller["type"]
            if ctype == "dqn" and "checkpoint" not in controller:
                raise ScenarioError("[controller] of type 'dqn' requires "
                                    "'checkpoint'", line)
            for key, _, lineno in sec["pairs"]:
                if key != "type" and key not in _CONTROLLER_KEYS[ctype]:
                    raise ScenarioError(
                        f"key {key!r} does not apply to controller "
                        f"type {ctype!r}", lineno)
            kwargs["controller"] = controller
        else:
            raise ScenarioError(f"unknown section [{name}]", line)

    if areas:
        n = max(areas) + 1
        missing = [i for i in range(n) if i not in areas]
        if missing:
            # At the [area] section of the lowest index past the first gap.
            above = min(i for i in areas if i > missing[0])
            raise ScenarioError(
                "area indices must be contiguous from 1; missing "
                + ", ".join(str(i + 1) for i in missing), area_lines[above])
        coef = np.zeros((n, n))
        for (i, j), (c, line) in ties.items():
            if j >= n:
                raise ScenarioError(f"tie references missing area {j + 1}",
                                    line)
            coef[i, j] = coef[j, i] = c
        kwargs["areas"] = [areas[i] for i in range(n)]
        kwargs["tie_coefficients"] = coef
    elif ties:
        _, line = next(iter(ties.values()))
        raise ScenarioError("[tie] sections require explicit [area] sections",
                            line)
    try:
        return Scenario(loads=loads, attacks=attacks, **kwargs)
    except ScenarioError as exc:
        line = next((lines[key] for key in exc.keys if key in lines), None)
        if line is None:
            raise
        raise ScenarioError(exc.reason, line) from None


def load_scenario(path):
    """Parse the scenario file at path.  An error at no single line (an
    unconnected grid, say) names the path."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        if exc.line is not None:
            raise
        raise ScenarioError(f"{path}: {exc}") from None
