"""Command-line interface.

Subcommands: simulate, train, evaluate, compare, tune-pid.
Exit codes: 0 success, 2 scenario parse/validation error, 3 instability,
4 solver/tuning convergence failure, 1 any other error.
"""

import argparse
import sys

from . import controllers, dqn, factory, harness
from .errors import (AgcSimError, ConvergenceError, InstabilityError,
                     ScenarioError, TuningError)
from .scenario import load_scenario

EXIT_PARSE = 2
EXIT_INSTABILITY = 3
EXIT_CONVERGENCE = 4


def _print_metrics(metrics):
    for key, value in metrics.row().items():
        print(f"{key}: {value}")


def cmd_train(args):
    scenario = load_scenario(args.scenario)
    hyper = dqn.HyperParams()
    seed = scenario.seed if args.seed is None else args.seed
    net, log = dqn.train(scenario, hyper, episodes=args.episodes, seed=seed)
    table = dqn.ActionTable(len(scenario.areas), levels=hyper.levels,
                            span=hyper.span)
    dqn.save_checkpoint(net, table, args.checkpoint, hyper.obs_scale)
    print(f"checkpoint written to {args.checkpoint}")
    if args.log:
        dqn.write_training_log(log, args.log)
        print(f"training log written to {args.log}")
    if log:
        print(f"final episode return: {log[-1]['return']:.6g}")
    return 0


def cmd_run(args):
    """simulate (the scenario's own controller) and evaluate (--controller)."""
    scenario = load_scenario(args.scenario)
    model = scenario.build_model()
    controller = factory.build_controller(scenario, spec=args.controller,
                                          model=model)
    traj = harness.run_episode(scenario, controller, model=model)
    if args.out:
        harness.write_trajectory_csv(traj, args.out, model)
        print(f"trajectory written to {args.out}")
    _print_metrics(harness.compute_metrics(traj, model))
    return 0


def cmd_compare(args):
    scenario = load_scenario(args.scenario)
    model = scenario.build_model()
    named = []
    for spec in args.controllers.split(","):
        spec = spec.strip()
        named.append((spec, factory.build_controller(scenario, spec=spec,
                                                     model=model)))
    rows = harness.compare(scenario, named)
    sys.stdout.write(harness.format_comparison(rows))
    if args.out:
        harness.write_comparison_csv(rows, args.out)
        print(f"comparison written to {args.out}")
    return 0


def cmd_tune_pid(args):
    scenario = load_scenario(args.scenario)
    gains = controllers.tune_pid(scenario)
    lines = [
        "[controller]",
        "type = pid",
        f"kp = {gains.kp!r}",
        f"ki = {gains.ki!r}",
        f"kd = {gains.kd!r}",
        f"deriv_filter = {gains.deriv_filter!r}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"tuned gains written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _integer(name, minimum):
    """An argparse type: `name` is an unsigned integer >= minimum."""
    def parse(text):
        if not text.isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"{name} must be an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="agcsim",
        description="Multi-area AGC simulation with attack-resilient control")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the scenario's own controller")
    p.add_argument("scenario")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_run, controller=None)

    p = sub.add_parser("train", help="train a DQN controller")
    p.add_argument("scenario", help="base scenario defining grid and timing")
    p.add_argument("--episodes", type=_integer("episodes", 1), default=500)
    p.add_argument("--seed", type=_integer("seed", 0),
                   help="training seed (default: the scenario's seed)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", help="training log CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run a specific controller")
    p.add_argument("scenario")
    p.add_argument("--controller", required=True,
                   help="pid | lqr | mpc | zero | dqn:<checkpoint>")
    p.add_argument("--out", help="trajectory CSV path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run several controllers side by side")
    p.add_argument("scenario")
    p.add_argument("--controllers", required=True,
                   help="comma-separated specs, e.g. pid,lqr,dqn:model.ckpt")
    p.add_argument("--out", help="comparison CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("tune-pid", help="grid-search PID gains, attack-free")
    p.add_argument("scenario")
    p.add_argument("--out", help="write gains as a controller block")
    p.set_defaults(func=cmd_tune_pid)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except (ConvergenceError, TuningError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (AgcSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
