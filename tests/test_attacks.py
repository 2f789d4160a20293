"""Attack waveforms, injection semantics, and isolation from the plant."""

import numpy as np
import pytest

from agcsim.attacks import (AttackSignal, InjectionPoint, MeasurementFrame,
                            corrupt_control, corrupt_measurements, measure,
                            signal_value)
from agcsim.dynamics import two_area_benchmark
from agcsim.errors import StructuralError


def frame(freq, tie, t=0.0):
    return MeasurementFrame(np.array(freq, dtype=float),
                            np.array(tie, dtype=float), t)


def freq_attack(area=1, kind="step", magnitude=0.01, start=5.0, duration=0.0):
    return AttackSignal(kind, magnitude, start,
                        InjectionPoint("frequency_sensor", area),
                        duration=duration)


class TestSignalValue:
    def test_step(self):
        atk = freq_attack(kind="step", magnitude=0.01, start=5.0)
        assert signal_value(atk, 4.0) == 0.0
        assert signal_value(atk, 6.0) == 0.01

    def test_pulse(self):
        atk = freq_attack(kind="pulse", magnitude=0.02, start=5.0, duration=2.0)
        assert signal_value(atk, 6.0) == 0.02
        assert signal_value(atk, 8.0) == 0.0

    def test_ramp(self):
        atk = freq_attack(kind="ramp", magnitude=0.001, start=5.0)
        assert signal_value(atk, 10.0) == pytest.approx(0.005)

    @pytest.mark.parametrize("kind,duration", [
        ("step", 0.0), ("pulse", 2.0), ("ramp", 0.0)])
    def test_causality(self, kind, duration):
        atk = freq_attack(kind=kind, magnitude=0.5, start=3.0,
                          duration=duration)
        for t in (0.0, 1.5, 2.999):
            assert signal_value(atk, t) == 0.0

    def test_validation(self):
        with pytest.raises(StructuralError):
            freq_attack(kind="sawtooth")
        with pytest.raises(StructuralError):
            freq_attack(start=-1.0)
        with pytest.raises(StructuralError):
            freq_attack(kind="pulse", duration=0.0)
        with pytest.raises(StructuralError):
            freq_attack(magnitude=np.inf)
        with pytest.raises(StructuralError):
            AttackSignal("step", 0.01, 0.0, InjectionPoint("bogus", 0))

    @pytest.mark.parametrize("field", ["magnitude", "start", "duration"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, field, value):
        fields = dict(kind="pulse", magnitude=0.01, start=1.0, duration=2.0)
        fields[field] = value
        with pytest.raises(StructuralError, match="finite"):
            freq_attack(**fields)


class TestCorruptMeasurements:
    def test_empty_is_identity(self):
        f = frame([0.01, -0.02], [0.005, -0.005])
        out = corrupt_measurements(f, [], 10.0)
        assert np.array_equal(out.freq, f.freq)
        assert np.array_equal(out.net_tie, f.net_tie)

    def test_step_on_frequency_sensor(self):
        f = frame([0.0, 0.0], [0.0, 0.0])
        out = corrupt_measurements(f, [freq_attack(area=1)], 6.0)
        assert out.freq[1] == 0.01
        assert out.freq[0] == 0.0

    def test_multiple_attacks_sum(self):
        atks = [
            AttackSignal("pulse", 0.01, 0.0,
                         InjectionPoint("tieline_sensor", 0), duration=10.0),
            AttackSignal("pulse", 0.02, 0.0,
                         InjectionPoint("tieline_sensor", 0), duration=10.0),
        ]
        out = corrupt_measurements(frame([0, 0], [0, 0]), atks, 5.0)
        assert out.net_tie[0] == pytest.approx(0.03)

    def test_control_attack_ignored(self):
        atk = AttackSignal("step", 0.5, 0.0,
                           InjectionPoint("control_signal", 0))
        out = corrupt_measurements(frame([0, 0], [0, 0]), [atk], 5.0)
        assert np.all(out.freq == 0) and np.all(out.net_tie == 0)

    def test_bad_area(self):
        with pytest.raises(StructuralError):
            corrupt_measurements(frame([0, 0], [0, 0]),
                                 [freq_attack(area=2)], 6.0)

    def test_original_frame_untouched(self):
        f = frame([0.0, 0.0], [0.0, 0.0])
        corrupt_measurements(f, [freq_attack(area=0)], 6.0)
        assert np.all(f.freq == 0)


class TestCorruptControl:
    def test_no_attacks(self):
        cmd = np.array([0.05, -0.01])
        assert np.array_equal(corrupt_control(cmd, [], 1.0), cmd)

    def test_ramp_addition(self):
        atk = AttackSignal("ramp", 0.001, 0.0,
                           InjectionPoint("control_signal", 0))
        out = corrupt_control(np.array([0.05, 0.0]), [atk], 5.0)
        assert out[0] == pytest.approx(0.055)

    def test_channel_isolation(self):
        atk = AttackSignal("step", 0.1, 0.0,
                           InjectionPoint("control_signal", 1))
        out = corrupt_control(np.array([0.05, 0.0]), [atk], 5.0)
        assert out[0] == 0.05
        assert out[1] == pytest.approx(0.1)

    def test_sensor_attack_ignored(self):
        out = corrupt_control(np.array([0.05, 0.0]), [freq_attack(area=0)], 9.0)
        assert np.array_equal(out, [0.05, 0.0])


class TestSuperposition:
    def test_corruption_is_additive_in_attacks(self):
        rng = np.random.default_rng(5)
        base = frame(rng.normal(0, 0.01, 2), rng.normal(0, 0.01, 2))
        a1 = [freq_attack(area=0, kind="ramp", magnitude=0.002, start=1.0)]
        a2 = [AttackSignal("pulse", 0.03, 2.0,
                           InjectionPoint("tieline_sensor", 1), duration=9.0)]
        t = 6.0
        both = corrupt_measurements(base, a1 + a2, t)
        only1 = corrupt_measurements(base, a1, t)
        only2 = corrupt_measurements(base, a2, t)
        assert np.allclose(both.freq, only1.freq + only2.freq - base.freq,
                           atol=1e-15)
        assert np.allclose(both.net_tie,
                           only1.net_tie + only2.net_tie - base.net_tie,
                           atol=1e-15)


class TestMeasure:
    def test_true_projection(self):
        m = two_area_benchmark()
        s = m.zero_state()
        s[0], s[1], s[6] = 0.01, -0.02, 0.004
        f = measure(m, s, 3.0)
        assert np.array_equal(f.freq, [0.01, -0.02])
        assert np.array_equal(f.net_tie, [0.004, -0.004])
        assert f.t == 3.0
