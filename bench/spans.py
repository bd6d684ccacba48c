"""Spans around the calls into adaptnc's modules, recorded from outside.

The tracer replaces public functions and methods with timing wrappers. A
function is replaced at every module attribute that holds it, because the
package calls many of them through names imported into other modules
(``simulate_frame`` into ``multiflow``, ``solve_monotone`` into ``policies``
and ``multiflow``); a method is replaced on its class. Spans are kept in
memory as (name, start, end, parent, count) and reduced per round to the
per-module metrics; they are written out once, when the run ends.
"""

import functools
import sys
import time

# (span name, module, attribute, count taken from (args, kwargs, result))
FUNCTIONS = [
    ("decoding.moment", "adaptnc.decoding", "expected_completion_time", None),
    ("decoding.moment", "adaptnc.decoding", "completion_second_moment", None),
    ("solver.solve", "adaptnc.solver", "solve_monotone",
     lambda a, kw, r: (r.stats["bellman_evals"], r.stats["reward_evals"])),
    ("solver.threshold", "adaptnc.solver", "retransmission_threshold", None),
    ("simulate.batch", "adaptnc.simulate", "monte_carlo_throughput",
     lambda a, kw, r: r.replications),
    ("simulate.frame", "adaptnc.simulate", "simulate_frame",
     lambda a, kw, r: (r.blocks_completed, r.blocks_abandoned_at_deadline)),
    ("policies.build", "adaptnc.policies", "make_policy", None),
    ("multiflow.allocate", "adaptnc.multiflow", "allocate_slots", None),
    ("multiflow.online", "adaptnc.multiflow", "run_online", None),
    ("multiflow.curve", "adaptnc.multiflow", "service_curve", None),
    ("multiflow.sweep", "adaptnc.multiflow", "rate_region_sweep",
     lambda a, kw, r: int(r.stable_nc.size)),
    ("config.load", "adaptnc.config", "load_config", None),
    ("cli.main", "adaptnc.cli", "main", None),
]

# (span name, module, class, method, count)
METHODS = [
    ("decoding.table", "adaptnc.decoding", "DecodingTable", "__init__", None),
    ("rng.generator", "adaptnc.rng", "RngSpec", "generator", None),
    ("policies.build", "adaptnc.policies", "ConservativePolicy", "__init__", None),
    ("policies.build", "adaptnc.policies", "VarianceConstrainedPolicy", "__init__", None),
    ("policies.build", "adaptnc.policies", "LearningPolicy", "__init__", None),
    ("policies.decide", "adaptnc.policies", "LearningPolicy", "decide",
     lambda a, kw, r: int(r > 0)),
]

# per-layer metric -> (kind, span name). Kinds: "calls" counts spans, "total"
# sums their durations, "self" their durations less their children's,
# "count"/"count0"/"count1" sum the recorded count (or one field of it), and
# "children" counts spans of one name directly under spans of another.
LAYER_METRICS = {
    "decoding.table_s": ("total", "decoding.table"),
    "decoding.tables": ("calls", "decoding.table"),
    "decoding.moment_s": ("total", "decoding.moment"),
    "decoding.moment_calls": ("calls", "decoding.moment"),
    "solver.solve_s": ("self", "solver.solve"),
    "solver.solves": ("calls", "solver.solve"),
    "solver.bellman_evals": ("count0", "solver.solve"),
    "solver.reward_evals": ("count1", "solver.solve"),
    "solver.threshold_s": ("total", "solver.threshold"),
    "rng.generator_s": ("total", "rng.generator"),
    "rng.generators": ("calls", "rng.generator"),
    "simulate.batch_s": ("self", "simulate.batch"),
    "simulate.replications": ("count", "simulate.batch"),
    "simulate.frame_s": ("self", "simulate.frame"),
    "simulate.frames": ("calls", "simulate.frame"),
    "simulate.blocks_completed": ("count0", "simulate.frame"),
    "simulate.blocks_abandoned": ("count1", "simulate.frame"),
    "policies.build_s": ("total", "policies.build"),
    "policies.learning_tables": ("children", ("policies.decide", "solver.solve")),
    "policies.learning_decisions": ("count", "policies.decide"),
    "multiflow.allocate_s": ("total", "multiflow.allocate"),
    "multiflow.allocate_calls": ("calls", "multiflow.allocate"),
    "multiflow.online_s": ("self", "multiflow.online"),
    "multiflow.curve_requests": ("calls", "multiflow.curve"),
    "multiflow.curve_solves": ("children", ("multiflow.curve", "solver.solve")),
    "multiflow.sweep_cells": ("count", "multiflow.sweep"),
    "config.load_s": ("total", "config.load"),
    "cli.self_s": ("self", "cli.main"),
}


class Tracer:
    """Records nested spans of the calls made through its wrappers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, count]
        self._stack = []

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the freshly imported adaptnc modules in ``sys.modules``."""
        modules = [m for n, m in sys.modules.items() if n == "adaptnc" or n.startswith("adaptnc.")]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
        for name, module, cls_name, attr, count in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr], count))

    def reduce_round(self, first: int) -> dict:
        """Per-layer metrics over the spans recorded since index ``first``."""
        spans = self.spans[first:]
        by_name, child_time = {}, [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            if parent >= first:
                child_time[parent - first] += end - start

        def parent_name(i):
            parent = spans[i][3]
            return spans[parent - first][0] if parent >= first else None

        def outermost(i):
            """No enclosing span of the same name, so its time is not counted twice."""
            name, parent = spans[i][0], spans[i][3]
            while parent >= first:
                if spans[parent - first][0] == name:
                    return False
                parent = spans[parent - first][3]
            return True

        def value(kind, key):
            if kind == "children":
                parent, child = key
                return sum(1 for i in by_name.get(child, ()) if parent_name(i) == parent)
            picked = by_name.get(key, [])
            if kind == "calls":
                return len(picked)
            if kind == "total":
                return sum(spans[i][2] - spans[i][1] for i in picked if outermost(i))
            if kind == "self":
                return sum(spans[i][2] - spans[i][1] - child_time[i] for i in picked)
            counts = [spans[i][4] for i in picked if spans[i][4] is not None]
            if kind == "count":
                return sum(counts)
            return sum(c[int(kind[-1])] for c in counts)

        return {metric: value(kind, key) for metric, (kind, key) in LAYER_METRICS.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            fp.write("index,name,start,end,parent,count\n")
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                if isinstance(count, tuple):
                    count = ";".join(map(str, count))
                fp.write(f"{i},{name},{start!r},{end!r},{parent},{'' if count is None else count}\n")
