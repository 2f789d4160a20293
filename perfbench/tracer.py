"""Span tracer that instruments agcsim from outside the package.

`Tracer.patched()` replaces the callables listed in TARGETS with wrappers that
record one span per call: its layer label, the span that was open when it was
called (its parent), start and end in nanoseconds, and whether it returned.
Nothing under src/ is edited, so the untraced program is exactly the one a
user runs.

Spans are kept in memory.  `fold()` turns closed spans into per-label totals:
a span's self time is its duration minus the durations of its direct
children, found through the parent links.  Spans still open at a fold stay in
memory with the child time they have accumulated so far, so a long call (a
whole `tune_pid` grid) can be folded in pieces without losing its self time.
"""

import sys
import time
from contextlib import contextmanager
from functools import wraps

# (layer label, module, qualified name) of every traced callable.  Labels
# share a prefix per module so layer totals are sums over a prefix.  Pure
# state accessors (LfcModel.freq, net_tie, ...) and small helpers such as
# attacks.signal_value are not traced: their time is their caller's.
TARGETS = (
    ("dynamics.rk4_step", "agcsim.dynamics", "LfcModel.rk4_step"),
    ("dynamics.derivatives", "agcsim.dynamics", "LfcModel.derivatives"),
    ("dynamics.inputs", "agcsim.dynamics", "LfcModel.inputs"),
    ("dynamics.linear_model", "agcsim.dynamics",
     "LfcModel.assemble_linear_model"),
    ("scenario.load_vector", "agcsim.scenario", "Scenario.load_vector"),
    ("scenario.parse", "agcsim.scenario", "load_scenario"),
    ("scenario.parse", "agcsim.scenario", "parse_scenario"),
    ("attacks.measure", "agcsim.attacks", "measure"),
    ("attacks.corrupt_measurements", "agcsim.attacks", "corrupt_measurements"),
    ("attacks.corrupt_control", "agcsim.attacks", "corrupt_control"),
    ("controllers.observe", "agcsim.controllers", "ZeroController.observe"),
    ("controllers.observe", "agcsim.controllers", "PidController.observe"),
    ("controllers.observe", "agcsim.controllers", "LqrController.observe"),
    ("controllers.observe", "agcsim.controllers", "MpcController.observe"),
    ("controllers.observe", "agcsim.dqn", "DqnController.observe"),
    ("controllers.estimator", "agcsim.controllers", "StateEstimator.estimate"),
    ("controllers.estimator", "agcsim.controllers", "StateEstimator.advance"),
    ("controllers.estimator", "agcsim.controllers", "StateEstimator.reset"),
    ("controllers.synthesis", "agcsim.controllers", "zoh_discretize"),
    ("controllers.synthesis", "agcsim.controllers", "solve_dare"),
    ("controllers.synthesis", "agcsim.controllers", "mpc_step"),
    ("controllers.tune", "agcsim.controllers", "tune_pid"),
    ("dqn.forward", "agcsim.dqn", "QNetwork.forward"),
    ("dqn.train_step", "agcsim.dqn", "train_step"),
    ("dqn.learner", "agcsim.dqn", "batch_targets"),
    ("dqn.learner", "agcsim.dqn", "loss_and_grads"),
    ("dqn.learner", "agcsim.dqn", "sgd_update"),
    ("dqn.learner", "agcsim.dqn", "sync_target"),
    ("dqn.replay", "agcsim.dqn", "ReplayMemory.push"),
    ("dqn.replay", "agcsim.dqn", "ReplayMemory.sample"),
    ("dqn.replay", "agcsim.dqn", "ReplayMemory.sample_indices"),
    ("dqn.train", "agcsim.dqn", "train"),
    ("dqn.checkpoint", "agcsim.dqn", "save_checkpoint"),
    ("dqn.checkpoint", "agcsim.dqn", "load_checkpoint"),
    ("harness.run_episode", "agcsim.harness", "run_episode"),
    ("harness.metrics", "agcsim.harness", "compute_metrics"),
    ("harness.metrics", "agcsim.harness", "step_penalty"),
    ("harness.metrics", "agcsim.harness", "control_reward"),
    ("harness.csv.write", "agcsim.harness", "write_trajectory_csv"),
    ("harness.csv.read", "agcsim.harness", "read_trajectory_csv"),
    ("factory.build", "agcsim.factory", "build_controller"),
)

# Open spans are kept; closed ones are folded once this many accumulate.
FOLD_AT = 100_000

# Span record fields.  A span is a list so the wrapper can fill in its end,
# and a fold can add child time to a parent that is still open.
LABEL, PARENT, START, END, OK, CHILD_NS = range(6)


def bindings():
    """Every (owner, attribute, original, label) the traced calls go through.

    Methods are patched on their class.  A module-level function is patched
    in its own module and under every other name an agcsim module binds it
    to: harness and dqn import `measure` and friends by name, and dqn imports
    `step_penalty` and `control_reward` from harness, so patching only the
    defining module would miss their calls.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "agcsim"
                                     or name.startswith("agcsim."))]
    out = []
    for label, modname, qualname in TARGETS:
        owner = sys.modules[modname]
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        out.append((owner, attr, original, label))
        if outer:
            continue
        for module in modules:
            for name, value in vars(module).items():
                if value is original and not (module is owner
                                              and name == attr):
                    out.append((module, name, original, label))
    return out


class Tracer:
    """In-memory span recorder with per-label aggregation."""

    def __init__(self):
        self.spans = []
        self._stack = [None]
        self.totals = {}     # label -> [calls, self_ns, total_ns, failed]
        self.edges = {}      # (parent label, label) -> [calls, returned]

    def wrap(self, label, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [label, stack[-1], 0, 0, False, 0]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            span[OK] = True
            if len(spans) >= FOLD_AT:
                tracer.fold_open()
            return out

        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; restore every original binding on exit."""
        found = bindings()
        wrappers = {}
        try:
            for owner, attr, original, label in found:
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(label, original)
                setattr(owner, attr, wrappers[id(original)])
            yield self
        finally:
            for owner, attr, original, _ in reversed(found):
                setattr(owner, attr, original)
            self.fold()

    def fold_open(self):
        """Fold while spans are open, keeping the fold out of their time."""
        t0 = time.perf_counter_ns()
        self.fold()
        pause = time.perf_counter_ns() - t0
        for span in self.spans:
            span[START] += pause

    def fold(self):
        """Fold closed spans into the totals; keep open ones."""
        closed = [s for s in self.spans if s[END]]
        for span in closed:
            parent = span[PARENT]
            if parent is not None:
                parent[CHILD_NS] += span[END] - span[START]
        for span in closed:
            duration = span[END] - span[START]
            row = self.totals.setdefault(span[LABEL], [0, 0, 0, 0])
            row[0] += 1
            row[1] += duration - span[CHILD_NS]
            row[2] += duration
            row[3] += not span[OK]
            parent = span[PARENT]
            key = (None if parent is None else parent[LABEL], span[LABEL])
            edge = self.edges.setdefault(key, [0, 0])
            edge[0] += 1
            edge[1] += span[OK]
        self.spans[:] = [s for s in self.spans if not s[END]]

    # -- queries over the folded totals ------------------------------------

    def calls(self, prefix):
        return sum(row[0] for label, row in self.totals.items()
                   if _under(label, prefix))

    def self_ms(self, *prefixes):
        return sum(row[1] for label, row in self.totals.items()
                   if any(_under(label, p) for p in prefixes)) / 1e6

    def failed(self, prefix):
        return sum(row[3] for label, row in self.totals.items()
                   if _under(label, prefix))

    def us_per_call(self, label):
        calls, _, total_ns, _ = self.totals.get(label, (0, 0, 0, 0))
        return total_ns / calls / 1e3 if calls else 0.0

    def edge(self, parent, child):
        return tuple(self.edges.get((parent, child), (0, 0)))


def _under(label, prefix):
    return label == prefix or label.startswith(prefix + ".")


def layer_metrics(tracer, csv_bytes, overhead_ratio):
    """The per-layer metrics of BENCHMARK.json as {name: (value, unit)}.

    Every `_ms` metric is self time summed over the traced work; a layer the
    workload never enters reads 0.
    """
    t = tracer
    candidates, accepted = t.edge("controllers.tune", "harness.run_episode")
    return {
        "dynamics.rk4_step.calls": (t.calls("dynamics.rk4_step"), "count"),
        "dynamics.derivatives.calls": (t.calls("dynamics.derivatives"),
                                       "count"),
        "dynamics.rk4_step.us_per_call": (t.us_per_call("dynamics.rk4_step"),
                                          "us"),
        "dynamics.self_ms": (t.self_ms("dynamics"), "ms"),
        "scenario.load_vector.calls": (t.calls("scenario.load_vector"),
                                       "count"),
        "scenario.load_vector.self_ms": (t.self_ms("scenario.load_vector"),
                                         "ms"),
        "attacks.calls": (t.calls("attacks"), "count"),
        "attacks.self_ms": (t.self_ms("attacks"), "ms"),
        "controllers.observe.calls": (t.calls("controllers.observe"), "count"),
        "controllers.observe.self_ms": (t.self_ms("controllers.observe"),
                                        "ms"),
        "controllers.estimator.self_ms": (t.self_ms("controllers.estimator"),
                                          "ms"),
        "controllers.synthesis_ms": (t.self_ms("controllers.synthesis"), "ms"),
        "controllers.synthesis_failed": (t.failed("controllers.synthesis"),
                                         "count"),
        "controllers.tune.candidates": (candidates, "count"),
        "controllers.tune.accepted": (accepted, "count"),
        "dqn.forward.calls": (t.calls("dqn.forward"), "count"),
        "dqn.forward.self_ms": (t.self_ms("dqn.forward"), "ms"),
        "dqn.train_step.calls": (t.calls("dqn.train_step"), "count"),
        "dqn.learner.self_ms": (t.self_ms("dqn.train_step", "dqn.learner"),
                                "ms"),
        "dqn.replay.self_ms": (t.self_ms("dqn.replay"), "ms"),
        "dqn.train.self_ms": (t.self_ms("dqn.train"), "ms"),
        "dqn.checkpoint_ms": (t.self_ms("dqn.checkpoint"), "ms"),
        "harness.run_episode.self_ms": (t.self_ms("harness.run_episode"),
                                        "ms"),
        "harness.metrics.self_ms": (t.self_ms("harness.metrics"), "ms"),
        "harness.csv.write_ms": (t.self_ms("harness.csv.write"), "ms"),
        "harness.csv.read_ms": (t.self_ms("harness.csv.read"), "ms"),
        "harness.csv.bytes": (csv_bytes, "bytes"),
        "scenario.parse_ms": (t.self_ms("scenario.parse"), "ms"),
        "factory.build_ms": (t.self_ms("factory.build"), "ms"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
