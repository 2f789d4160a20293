"""Self-tests of the benchmark.

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py

They check the tracer's self-time arithmetic, that a traced run restores
every binding it patched, that metric names are well formed, and that two
traced runs count the same work.
"""

import json
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import END, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def span(t, label, parent, start, end):
    record = [label, parent, start, end, True, 0]
    t.spans.append(record)
    return record


class SelfTime(unittest.TestCase):
    def test_nested_tree(self):
        # root [0, 100] holds a [10, 40] (which holds c [15, 25]) and b
        # [50, 90]: self times 30, 20, 10 and 40.
        t = Tracer()
        root = span(t, "x.root", None, 0, 100)
        a = span(t, "x.a", root, 10, 40)
        span(t, "x.c", a, 15, 25)
        span(t, "x.b", root, 50, 90)
        t.fold()
        self.assertEqual({k: v[1] for k, v in t.totals.items()},
                         {"x.root": 30, "x.a": 20, "x.c": 10, "x.b": 40})
        self.assertEqual(t.self_ms("x") * 1e6, 100)
        self.assertEqual(t.edge("x.root", "x.a"), (1, 1))
        self.assertEqual(t.spans, [])

    def test_fold_while_parent_open(self):
        t = Tracer()
        root = span(t, "x.root", None, 0, 0)
        span(t, "x.a", root, 10, 40)
        t.fold()
        self.assertEqual(t.spans, [root])
        span(t, "x.b", root, 50, 90)
        root[END] = 100
        t.fold()
        self.assertEqual(t.totals["x.root"][:3], [1, 30, 100])
        self.assertEqual(t.spans, [])

    def test_failed_span(self):
        t = Tracer()
        boom = t.wrap("x.boom", lambda: 1 / 0)
        with self.assertRaises(ZeroDivisionError):
            boom()
        t.fold()
        self.assertEqual(t.failed("x"), 1)


class Patching(unittest.TestCase):
    def test_wrappers_restored_and_aliases_patched(self):
        import agcsim
        from agcsim import attacks, dqn, harness
        before = [(owner, attr, getattr(owner, attr))
                  for owner, attr, _, _ in tracer.bindings()]
        measure = attacks.measure
        t = Tracer()
        sc = agcsim.Scenario(horizon=1.0)
        with t.patched():
            # Names imported by name elsewhere are patched there too.
            self.assertIs(harness.measure, attacks.measure)
            self.assertIs(dqn.step_penalty, harness.step_penalty)
            self.assertIs(agcsim.run_episode, harness.run_episode)
            self.assertIsNot(attacks.measure, measure)
            harness.run_episode(sc, agcsim.controllers.ZeroController(2))
        for owner, attr, original in before:
            self.assertIs(getattr(owner, attr), original, f"{owner}.{attr}")
        self.assertEqual(t.calls("dynamics.rk4_step"), 100)
        self.assertEqual(t.calls("attacks.measure"), 101)


class Names(unittest.TestCase):
    def test_metric_names(self):
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        metrics = bench["end_to_end"] + bench["per_layer"]
        declared = [m["name"] for m in metrics]
        declared += [w["name"] for w in bench["workloads"]]
        for name in declared:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(declared), len(set(declared)))
        produced = tracer.layer_metrics(Tracer(), 0, 1.0)
        self.assertEqual(sorted(produced),
                         sorted(m["name"] for m in bench["per_layer"]))
        self.assertEqual(sorted(workloads.WORKLOADS),
                         sorted(w["name"] for w in bench["workloads"]))


class Repeat(unittest.TestCase):
    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            with tempfile.TemporaryDirectory(prefix=".work-",
                                             dir=BENCH) as tmp:
                w = workloads.Train(7, Path(tmp))
                tallies, metrics = run.traced_run(w, Path(tmp))
            self.assertFalse(any(t.wrong or t.failed for t in tallies))
            counts.append({k: v for k, (v, unit) in metrics.items()
                           if unit == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertEqual(counts[0]["dynamics.rk4_step.calls"],
                         workloads.Train.EPISODES * 6000)


if __name__ == "__main__":
    unittest.main()
