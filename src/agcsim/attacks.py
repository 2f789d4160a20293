"""False-data-injection signals and their injection into sensed/actuated channels.

Attacks are additive offsets on what controllers observe (frequency and
net tie-flow measurements) or on what actuators receive (generation
commands).  The plant itself always integrates the true state.
"""

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

ATTACK_KINDS = ("step", "pulse", "ramp")
CHANNELS = ("frequency_sensor", "tieline_sensor", "control_signal")


@dataclass(frozen=True)
class InjectionPoint:
    """Where an attack lands: one channel of one area."""

    channel: str
    area: int

    def __post_init__(self):
        if self.channel not in CHANNELS:
            raise StructuralError(f"unknown channel {self.channel!r}")
        if self.area < 0:
            raise StructuralError("area index must be >= 0")


@dataclass(frozen=True)
class AttackSignal:
    """One FDIA waveform.

    magnitude is the offset in p.u. for step/pulse and the slope in p.u./s
    for ramp.  Step and ramp persist to the end of the episode; pulse is
    active on [start_time, start_time + duration).
    """

    kind: str
    magnitude: float
    start_time: float
    target: InjectionPoint
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise StructuralError(f"unknown attack kind {self.kind!r}")
        if self.start_time < 0:
            raise StructuralError("start_time must be >= 0")
        if self.kind == "pulse" and self.duration <= 0:
            raise StructuralError("pulse attacks need a positive duration")
        if not np.isfinite(self.magnitude):
            raise StructuralError("magnitude must be finite")


@dataclass
class MeasurementFrame:
    """What the control layer sees: per-area frequency and net tie flow.

    Under no attack this is exactly the true plant state projection.  A
    stacked frame holds one row per time: freq and net_tie are (K, N) and
    t is the (K,) array of times.
    """

    freq: np.ndarray
    net_tie: np.ndarray
    t: float

    def copy(self):
        return MeasurementFrame(self.freq.copy(), self.net_tie.copy(), self.t)


def measure(model, state, t):
    """Project the true state onto the measured channels."""
    return MeasurementFrame(model.freq(state).copy(),
                            model.net_tie(state).copy(), float(t))


def signal_value(attack, t):
    """Additive offset contributed by one attack at time t (causal).

    t may be a scalar or an array of times; the result has its shape.
    """
    dt = t - attack.start_time
    if attack.kind == "step":
        value = attack.magnitude
    elif attack.kind == "pulse":
        value = np.where(dt < attack.duration, attack.magnitude, 0.0)
    else:  # ramp
        value = attack.magnitude * dt
    return np.where(dt < 0, 0.0, value)


def _check_area(attack, n_areas):
    if attack.target.area >= n_areas:
        raise StructuralError(
            f"attack targets area {attack.target.area} of an {n_areas}-area grid")


def corrupt_measurements(frame, attacks, t):
    """Apply all sensor attacks to a measurement frame; additive, summing.

    Works on a single frame or on a stacked one, with t its times.
    """
    out = frame.copy()
    n = out.freq.shape[-1]
    for atk in attacks:
        _check_area(atk, n)
        if atk.target.channel == "frequency_sensor":
            out.freq[..., atk.target.area] += signal_value(atk, t)
        elif atk.target.channel == "tieline_sensor":
            out.net_tie[..., atk.target.area] += signal_value(atk, t)
        # control_signal attacks do not touch measurements
    return out


def corrupt_control(commands, attacks, t):
    """Apply all control-channel attacks to a command vector, or to a stack
    of them with areas on the last axis."""
    out = np.array(commands, dtype=float)
    for atk in attacks:
        _check_area(atk, out.shape[-1])
        if atk.target.channel == "control_signal":
            out[..., atk.target.area] += signal_value(atk, t)
    return out
