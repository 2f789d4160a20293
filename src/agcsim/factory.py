"""Build controller instances from a scenario's controller block or a CLI spec."""

import numpy as np

from . import controllers, dqn
from .errors import ScenarioError


def build_controller(scenario, spec=None, model=None):
    """Instantiate the controller a scenario (or override spec) asks for.

    spec may be a dict like scenario.controller or a compact string:
    "pid", "lqr", "mpc", "zero", or "dqn:<checkpoint path>".  The bare
    "pid" takes its gains from the scenario's own [controller] block when
    that block is a PID one; otherwise every gain is zero.
    """
    if model is None:
        model = scenario.build_model()
    if spec is None:
        spec = scenario.controller
    if isinstance(spec, str):
        if spec.startswith("dqn:"):
            spec = {"type": "dqn", "checkpoint": spec[4:]}
        elif spec == "pid" and scenario.controller.get("type") == "pid":
            spec = scenario.controller
        else:
            spec = {"type": spec}
    ctype = spec.get("type")
    period = scenario.control_period

    if ctype == "zero":
        return controllers.ZeroController(model.n_areas)
    if ctype == "pid":
        gains = controllers.PidGains(
            kp=spec.get("kp", 0.0),
            ki=spec.get("ki", 0.0),
            kd=spec.get("kd", 0.0),
            deriv_filter=spec.get("deriv_filter", 50.0))
        return controllers.PidController(model.beta, gains, period)
    if ctype in ("lqr", "mpc"):
        Q, R = controllers.default_weights(model)
        if "q_freq" in spec:
            for i in range(model.n_areas):
                Q[i, i] = spec["q_freq"] * model.beta[i] ** 2
        if "q_tie" in spec:
            for k in range(model.n_pairs):
                Q[3 * model.n_areas + k, 3 * model.n_areas + k] = spec["q_tie"]
        if "r_weight" in spec:
            R = spec["r_weight"] * np.eye(model.n_areas)
        if ctype == "lqr":
            return controllers.LqrController(model, period, Q=Q, R=R)
        return controllers.MpcController(model, period, Q=Q, R=R,
                                         horizon=spec.get("horizon_steps", 20))
    if ctype == "dqn":
        path = spec.get("checkpoint")
        if not path:
            raise ScenarioError("dqn controller needs a checkpoint path")
        net, table, obs_scale = dqn.load_checkpoint(path)
        if table.n_areas != model.n_areas:
            raise ScenarioError(
                f"checkpoint was trained for {table.n_areas} areas, "
                f"scenario has {model.n_areas}")
        return dqn.DqnController(net, table, obs_scale)
    raise ScenarioError(f"unknown controller type {ctype!r}")
