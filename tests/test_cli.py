"""Command-line interface: subcommands, outputs, exit codes, determinism."""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from agcsim.cli import main, EXIT_PARSE, EXIT_INSTABILITY
from agcsim.factory import build_controller
from agcsim.harness import compare
from agcsim.scenario import Scenario, load_scenario
from agcsim.errors import ScenarioError

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
format_version = 1
horizon = 2.0

[controller]
type = zero
"""


@pytest.fixture
def minimal_scenario(tmp_path):
    path = tmp_path / "minimal.txt"
    path.write_text(MINIMAL)
    return path


class TestSimulate:
    def test_minimal(self, minimal_scenario, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        rc = main(["simulate", str(minimal_scenario), "--out", str(out)])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "max_freq_dev: 0.0" in captured

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("horizzon = 10\n")
        rc = main(["simulate", str(bad)])
        assert rc == EXIT_PARSE
        assert "horizzon" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        rc = main(["simulate", "/nonexistent/scenario.txt"])
        assert rc == 1

    def test_deterministic_csv(self, tmp_path, capsys):
        sc = tmp_path / "sc.txt"
        sc.write_text(MINIMAL.replace("zero", "pid") +
                      "kp = 0.3\nki = 0.3\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", str(sc), "--out", str(out1)]) == 0
        assert main(["simulate", str(sc), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestScenarioValidation:
    """Each bad scenario ends in a scenario error, exit code 2."""

    @pytest.mark.parametrize("text", [
        "horizon = nan\n",
        "horizon = inf\n",
        "plant_step = nan\n",
        "plant_step = inf\n",
        "control_period = nan\n",
        "control_period = inf\n",
        "command_limit = nan\n",
        "command_limit = inf\n",
        "[load]\nmagnitude = nan\n",
        "[load]\nmagnitude = inf\n",
        "[load]\nmagnitude = 0.01\nstart = nan\n",
        "command_limit = 0\n",
        "command_limit = -1\n",
        "horizon = 0.05\n",          # shorter than control_period = 0.1
        "horizon = 1.05\n",          # 10.5 control periods
        "seed = inf\n",
        "[load]\narea = nan\nmagnitude = 0.01\n",
    ])
    def test_rejected_with_exit_code_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["simulate", str(path)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith("scenario error:")

    def test_multiple_within_tolerance_accepted(self):
        sc = Scenario(horizon=0.3, control_period=0.1)  # 2.9999999999999996
        assert sc.n_control_steps == 3


class TestTrainCli:
    def test_train_writes_checkpoint_and_log(self, tmp_path, capsys):
        sc = tmp_path / "sc.txt"
        sc.write_text("horizon = 1.0\n")
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        rc = main(["train", str(sc), "--episodes", "2", "--seed", "3",
                   "--checkpoint", str(ckpt), "--log", str(log)])
        assert rc == 0
        assert ckpt.exists()
        assert len(log.read_text().splitlines()) == 3

    # sha256 of the checkpoint of `agcsim train scenarios/scenario_a.txt
    # --episodes 3 --seed 0`, recorded with numpy 2.4.6 (OpenBLAS, x86-64)
    # before run_episode moved to the lifted period map.  dqn.train still
    # integrates with rk4_step, and the acceptance gate's DQN criteria depend
    # on its exact bits, so this must not move.
    TRAIN_A_SHA256 = ("da13345f9ed7b962f6ae3f7cb109dffeb3c0a35d"
                      "67d96f00e2dc4601584ed80f")

    def test_checkpoint_bits_pinned(self, tmp_path, capsys):
        if np.__version__ != "2.4.6":
            pytest.skip("checkpoint hash recorded with numpy 2.4.6")
        ckpt = tmp_path / "a.ckpt"
        rc = main(["train", str(SCENARIO_DIR / "scenario_a.txt"),
                   "--episodes", "3", "--seed", "0",
                   "--checkpoint", str(ckpt)])
        assert rc == 0
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == \
            self.TRAIN_A_SHA256

    def test_train_determinism(self, tmp_path, capsys):
        sc = tmp_path / "sc.txt"
        sc.write_text("horizon = 1.0\n")
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        l1, l2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["train", str(sc), "--episodes", "2", "--seed", "3",
              "--checkpoint", str(c1), "--log", str(l1)])
        main(["train", str(sc), "--episodes", "2", "--seed", "3",
              "--checkpoint", str(c2), "--log", str(l2)])
        assert c1.read_bytes() == c2.read_bytes()
        assert l1.read_bytes() == l2.read_bytes()


class TestEvaluateAndCompare:
    def test_evaluate_override(self, minimal_scenario, capsys):
        rc = main(["evaluate", str(minimal_scenario), "--controller", "lqr"])
        assert rc == 0

    def test_evaluate_dqn_checkpoint(self, tmp_path, capsys):
        sc = tmp_path / "sc.txt"
        sc.write_text("horizon = 1.0\n")
        ckpt = tmp_path / "model.ckpt"
        main(["train", str(sc), "--episodes", "1", "--seed", "0",
              "--checkpoint", str(ckpt)])
        rc = main(["evaluate", str(sc), "--controller", f"dqn:{ckpt}"])
        assert rc == 0

    def test_compare_table_and_csv(self, minimal_scenario, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        rc = main(["compare", str(minimal_scenario),
                   "--controllers", "zero,lqr,mpc", "--out", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("controller")
        assert len(out.read_text().splitlines()) == 4


    def test_bare_pid_uses_scenario_gains(self, tmp_path, capsys):
        path = SCENARIO_DIR / "scenario_a.txt"
        out = tmp_path / "cmp.csv"
        rc = main(["compare", str(path), "--controllers", "pid,zero",
                   "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = {r["controller"]: r for r in csv.DictReader(fh)}
        sc = load_scenario(path)
        own = compare(sc, [("own", build_controller(sc))])[0]
        assert float(rows["pid"]["ise"]) == own["ise"]
        assert float(rows["pid"]["ise"]) < float(rows["zero"]["ise"])


class TestTunePidCli:
    def test_prints_gain_block(self, tmp_path, capsys):
        sc = tmp_path / "sc.txt"
        sc.write_text("horizon = 20.0\n[load]\nmagnitude = 0.01\nstart = 2\n")
        rc = main(["tune-pid", str(sc)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[controller]" in out and "kp = " in out


class TestFactory:
    def test_string_specs(self):
        sc = Scenario(horizon=2.0)
        for spec in ("zero", "pid", "lqr", "mpc"):
            ctrl = build_controller(sc, spec=spec)
            assert hasattr(ctrl, "observe")

    def test_dqn_without_checkpoint(self):
        sc = Scenario(horizon=2.0, controller={"type": "dqn"})
        with pytest.raises(ScenarioError, match="checkpoint"):
            build_controller(sc)

    def test_scenario_gains_respected(self):
        sc = load_scenario(SCENARIO_DIR / "scenario_a.txt")
        ctrl = build_controller(sc)
        assert ctrl.gains.kp == pytest.approx(0.1778279410038923)
        assert ctrl.gains.ki == pytest.approx(0.5623413251903491)
