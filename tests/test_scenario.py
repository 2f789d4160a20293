"""Scenario file parsing, validation, and defaults."""

import re

import numpy as np
import pytest

from agcsim.errors import ScenarioError, StructuralError
from agcsim.scenario import (LoadEvent, Scenario, load_profile,
                             load_scenario, parse_scenario)

from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestDefaults:
    def test_minimal_pid_file(self):
        sc = parse_scenario("[controller]\ntype = pid\n")
        assert len(sc.areas) == 2
        assert sc.horizon == 60.0
        assert sc.plant_step == 0.01
        assert sc.control_period == 0.1
        assert sc.controller["type"] == "pid"
        # Default grid is the two-area benchmark with 2*pi*T12 = 0.545.
        assert 2 * np.pi * sc.tie_coefficients[0, 1] == pytest.approx(0.545)

    def test_top_level_controller_shorthand(self):
        sc = parse_scenario("controller = lqr\n")
        assert sc.controller["type"] == "lqr"

    def test_empty_file_gets_zero_controller(self):
        sc = parse_scenario("")
        assert sc.controller["type"] == "zero"


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="line 2.*horizzon"):
            parse_scenario("format_version = 1\nhorizzon = 10\n")

    def test_unknown_section_key_names_line(self):
        text = "[attack]\nkind = step\nchannel = frequency_sensor\n" \
               "area = 1\nmagnitudee = 0.01\n"
        with pytest.raises(ScenarioError, match="line 5.*magnitudee"):
            parse_scenario(text)

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="potato"):
            parse_scenario("[potato]\nx = 1\n")

    def test_bad_format_version(self):
        with pytest.raises(ScenarioError, match="format_version"):
            parse_scenario("format_version = 9\n")

    def test_non_numeric_value(self):
        with pytest.raises(ScenarioError, match="not a number"):
            parse_scenario("horizon = sixty\n")

    def test_control_period_must_divide(self):
        with pytest.raises(ScenarioError, match="integer multiple"):
            parse_scenario("plant_step = 0.03\ncontrol_period = 0.1\n")

    def test_attack_on_missing_area(self):
        text = "[attack]\nkind = step\nchannel = frequency_sensor\n" \
               "area = 3\nmagnitude = 0.01\n"
        with pytest.raises(ScenarioError, match="missing area 3"):
            parse_scenario(text)

    def test_scenario_value_names_its_line(self):
        with pytest.raises(ScenarioError, match="^line 3: seed must be >= 0"):
            parse_scenario("horizon = 10\n# the seed\nseed = -1\n")

    def test_ratio_names_the_key_the_file_sets(self):
        # control_period is the default 0.1; plant_step makes it no multiple.
        with pytest.raises(ScenarioError, match="^line 2: control_period"):
            parse_scenario("horizon = 10\nplant_step = 0.03\n")

    def test_load_on_missing_area_names_its_section(self):
        text = "horizon = 10\n\n[load]\narea = 3\nmagnitude = 0.01\n"
        with pytest.raises(ScenarioError,
                           match="^line 3: load event targets missing area 3"):
            parse_scenario(text)

    def test_unconnected_grid_names_the_path(self, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text("[area 1]\n[area 2]\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        assert str(exc.value) == f"{path}: tie-line graph must be connected"
        assert exc.value.line is None

    def test_programmatic_error_has_no_line(self):
        with pytest.raises(ScenarioError, match="^seed must be >= 0$"):
            Scenario(seed=-1)

    def test_noncontiguous_areas(self):
        text = "[area 1]\n[area 3]\n"
        with pytest.raises(ScenarioError, match="contiguous"):
            parse_scenario(text)

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario("[load]\nmagnitude = 0.01\nmagnitude = 0.02\n")

    def test_unknown_controller_type(self):
        with pytest.raises(ScenarioError, match="h_infinity"):
            parse_scenario("[controller]\ntype = h_infinity\n")

    def test_controller_key_for_wrong_type(self):
        with pytest.raises(ScenarioError, match="checkpoint"):
            parse_scenario("[controller]\ntype = pid\ncheckpoint = x\n")


class TestGridSections:
    def test_explicit_grid(self):
        text = """
[area 1]
inertia = 0.2
[area 2]
damping = 0.01
[tie 1 2]
coefficient = 0.05
"""
        sc = parse_scenario(text)
        assert sc.areas[0].inertia == 0.2
        assert sc.areas[0].damping == 0.0083  # default fills the rest
        assert sc.areas[1].damping == 0.01
        assert sc.tie_coefficients[0, 1] == 0.05
        assert sc.tie_coefficients[1, 0] == 0.05

    def test_tie_without_areas_rejected(self):
        with pytest.raises(ScenarioError, match="explicit"):
            parse_scenario("[tie 1 2]\ncoefficient = 0.05\n")


class TestEvents:
    def test_load_events(self):
        text = "[load]\narea = 2\nkind = ramp\nmagnitude = 0.001\nstart = 3\n"
        sc = parse_scenario(text)
        ev = sc.loads[0]
        assert (ev.area, ev.kind, ev.magnitude, ev.start) == (1, "ramp",
                                                              0.001, 3.0)
        assert sc.load_vector(2.0)[1] == 0.0
        assert sc.load_vector(5.0)[1] == pytest.approx(0.002)

    def test_load_profile_array_matches_scalar_calls(self):
        events = [LoadEvent(0, "step", 0.01, 1.0),
                  LoadEvent(1, "ramp", -0.003, 0.5),
                  LoadEvent(0, "ramp", 0.002, 2.0),
                  LoadEvent(1, "step", -0.004, 0.0)]
        t = np.arange(401) * 0.01
        grid = load_profile(events, 2, t)
        assert grid.shape == (401, 2)
        for k, tk in enumerate(t):
            want = np.zeros(2)   # the scalar sum over the active events
            for ev in events:
                dt = tk - ev.start
                if dt >= 0:
                    want[ev.area] += ev.magnitude if ev.kind == "step" \
                        else ev.magnitude * dt
            assert np.array_equal(load_profile(events, 2, tk), want)
            assert np.array_equal(grid[k], want)

    @pytest.mark.parametrize("field", ["magnitude", "start"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_event_rejects_non_finite(self, field, value):
        fields = dict(area=0, kind="step", magnitude=0.01, start=1.0)
        fields[field] = value
        with pytest.raises(StructuralError, match="finite"):
            LoadEvent(**fields)

    def test_load_event_rejects_unknown_kind(self):
        with pytest.raises(StructuralError, match="unknown load kind"):
            LoadEvent(0, "bogus", 0.01, 1.0)

    def test_attack_section(self):
        text = ("[attack]\nkind = pulse\nchannel = tieline_sensor\n"
                "area = 1\nmagnitude = 0.02\nstart = 4\nduration = 2\n")
        sc = parse_scenario(text)
        atk = sc.attacks[0]
        assert atk.kind == "pulse"
        assert atk.target.channel == "tieline_sensor"
        assert atk.target.area == 0
        assert atk.duration == 2.0

    def test_comments_ignored(self):
        sc = parse_scenario("# a comment\nhorizon = 30 # trailing\n")
        assert sc.horizon == 30.0


class TestShippedScenarios:
    def test_scenario_a(self):
        sc = load_scenario(f"{SCENARIO_DIR}/scenario_a.txt")
        assert len(sc.loads) == 1
        assert sc.loads[0].magnitude == 0.01 and sc.loads[0].start == 5.0
        atk = sc.attacks[0]
        assert atk.kind == "step" and atk.magnitude == 0.01
        assert atk.target.channel == "frequency_sensor" and atk.target.area == 1
        assert sc.controller["type"] == "pid"

    def test_scenario_b(self):
        sc = load_scenario(f"{SCENARIO_DIR}/scenario_b.txt")
        assert len(sc.attacks) == 2
        mags = sorted(a.magnitude for a in sc.attacks)
        assert mags == [-0.01, 0.01]
        assert all(a.kind == "pulse" for a in sc.attacks)
        assert all(a.target.channel == "tieline_sensor" for a in sc.attacks)
        assert {a.target.area for a in sc.attacks} == {0, 1}
        starts = {a.start_time for a in sc.attacks}
        durations = {a.duration for a in sc.attacks}
        assert len(starts) == 1 and len(durations) == 1  # coordinated

    def test_scenario_c(self):
        sc = load_scenario(f"{SCENARIO_DIR}/scenario_c.txt")
        assert sc.loads[0].magnitude == 0.02
        atk = sc.attacks[0]
        assert atk.kind == "ramp"
        assert atk.target.channel == "control_signal" and atk.target.area == 0


class TestReadme:
    def test_ini_blocks_parse(self):
        text = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
        assert blocks
        for block in blocks:
            parse_scenario(block).build_model()


class TestProgrammaticScenario:
    def test_bad_horizon(self):
        with pytest.raises(ScenarioError):
            Scenario(horizon=0.0)

    def test_model_round_trip(self):
        sc = parse_scenario("[controller]\ntype = zero\n")
        model = sc.build_model()
        assert model.n_areas == 2
        assert model.dim == 7
