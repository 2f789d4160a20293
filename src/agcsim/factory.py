"""Build controller instances from a scenario's controller block or a CLI spec."""

from . import controllers, dqn
from .errors import ScenarioError


def _given(spec, keys):
    """The keys spec sets, so the builder's own defaults fill the rest."""
    return {key: spec[key] for key in keys if key in spec}


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
            **_given(spec, ("kp", "ki", "kd", "deriv_filter")))
        return controllers.PidController(model.beta, gains, period)
    if ctype in ("lqr", "mpc"):
        Q, R = controllers.default_weights(
            model, **_given(spec, ("q_freq", "q_tie", "r_weight")))
        if ctype == "lqr":
            return controllers.LqrController(model, period, Q=Q, R=R)
        horizon = ({"horizon": spec["horizon_steps"]}
                   if "horizon_steps" in spec else {})
        return controllers.MpcController(model, period, Q=Q, R=R, **horizon)
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
