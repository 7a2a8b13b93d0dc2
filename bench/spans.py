"""Spans around the calls into each plam layer, for the traced run.

`Tracer.install` replaces each function in LAYERS, in every plam module
that holds it, by a wrapper that records a span: name, start, end,
parent span and operation id.  Spans stay in memory in flat arrays until
the run ends; `per_layer` derives the per-layer metrics from them and
`write` saves them.  `uninstall` puts the original functions back, so
the untraced passes of the same process run the program unwrapped.

A span's self time is its duration minus its child spans' durations and
minus the tracer's own node counting inside it.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

from plam import bigstep, cps, dist, encodings, reduction, sampler, smallstep, syntax

from terms import count_nodes

# (span name, owner of the function, attribute, nodes to count: of the
# first argument or of the result)
LAYERS = (
    ("syntax.parse", syntax, "parse", None),
    ("syntax.alpha_key", syntax, "_alpha_key", "arg"),
    ("syntax.free_names", syntax, "_free_names", None),
    ("syntax.substitute", syntax, "substitute", None),
    ("syntax.print_term", syntax, "print_term", None),
    ("reduction.step", reduction, "step", None),
    ("dist.subdist", dist.SubDist, "__init__", None),
    ("dist.support", dist.SubDist, "support", None),
    ("smallstep.approximate", smallstep, "approximate", None),
    ("smallstep.divergence_bracket", smallstep, "divergence_bracket", None),
    ("smallstep.closure", smallstep, "_certified_divergent", None),
    ("bigstep.eval_big", bigstep, "eval_big", None),
    ("encodings.run_mfdt", encodings, "run_mfdt", None),
    ("cps.translate", cps, "cps_v_to_n", "result"),
    ("cps.translate", cps, "cps_n_to_v", "result"),
    ("cps.simulation", cps, "check_simulation_v_by_n", None),
    ("cps.simulation", cps, "check_simulation_n_by_v", None),
    ("sampler.sample_run", sampler, "sample_run", None),
)

# the traced pass stops at the end of the round in which it passes this
MAX_SPANS = 1_500_000


def replace_everywhere(owner, attr: str, wrap) -> list:
    """Put wrap(owner.attr) wherever plam holds owner.attr; returns the
    undo list for `restore`."""
    if isinstance(owner, type):
        original = vars(owner)[attr]
        setattr(owner, attr, wrap(original))
        return [(owner, attr, original)]
    original = getattr(owner, attr)
    replacement = wrap(original)
    undo = []
    for name, module in list(sys.modules.items()):
        if name == "plam" or name.startswith("plam."):
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, replacement)
    return undo


def restore(undo: list) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.gap = array("d")  # tracer time spent inside the span
        self.name = array("B")
        self.parent = array("l")
        self.op = array("l")
        self.count = array("q")
        self.stack = [-1]
        self.op_id = -1
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn, count):
        name_id = self._name_id(name)
        start, end, gap, names = self.start, self.end, self.gap, self.name
        parents, ops, counts, stack = self.parent, self.op, self.count, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            start.append(0.0)
            end.append(0.0)
            gap.append(0.0)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            counts.append(0)
            stack.append(i)
            start[i] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                counts[i] = count_nodes(args[0] if count == "arg" else result)
                if stack[-1] >= 0:
                    gap[stack[-1]] += clock() - end[i]
            return result

        return traced

    def install(self) -> None:
        for name, owner, attr, count in LAYERS:
            self._undo += replace_everywhere(
                owner, attr, lambda fn, name=name, count=count: self._wrap(name, fn, count)
            )

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def run_op(self, op_id: int, fn):
        """Run fn as operation op_id under an "op" span."""
        self.op_id = op_id
        try:
            return self._wrap("op", fn, None)()
        finally:
            self.op_id = -1

    @property
    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] - self.gap[i] for i in range(n)]

    def per_layer(self, factors: dict[int, float]) -> dict[str, tuple]:
        """Totals per layer, as (value, unit).  Self times are rescaled by the speed factor of
        the span's operation (`factors`, keyed by op id, -1 for set-up)."""
        selfs = self.self_times()
        ids = {name: i for i, name in enumerate(self.names)}
        n_names = len(self.names)
        seconds = [0.0] * n_names
        calls = [0] * n_names
        nodes = [0] * n_names
        closure_steps = sample_steps = 0
        step_id, closure_id, sample_id = (
            ids.get("reduction.step"),
            ids.get("smallstep.closure"),
            ids.get("sampler.sample_run"),
        )
        for i, s in enumerate(selfs):
            k = self.name[i]
            seconds[k] += s * factors.get(self.op[i], 1.0)
            calls[k] += 1
            nodes[k] += self.count[i]
            if k == step_id and self.parent[i] >= 0:
                parent_name = self.name[self.parent[i]]
                closure_steps += parent_name == closure_id
                sample_steps += parent_name == sample_id

        def get(table, name):
            return table[ids[name]] if name in ids else 0

        samples = get(calls, "sampler.sample_run")
        return {
            "syntax.alpha_key_calls": (get(calls, "syntax.alpha_key"), "count"),
            "syntax.alpha_key_nodes": (get(nodes, "syntax.alpha_key"), "count"),
            "syntax.alpha_key_s": (get(seconds, "syntax.alpha_key"), "s"),
            "syntax.free_names_s": (get(seconds, "syntax.free_names"), "s"),
            "syntax.substitute_calls": (get(calls, "syntax.substitute"), "count"),
            "syntax.substitute_s": (get(seconds, "syntax.substitute"), "s"),
            "reduction.step_calls": (get(calls, "reduction.step"), "count"),
            "reduction.step_s": (get(seconds, "reduction.step"), "s"),
            "smallstep.approximate_s": (get(seconds, "smallstep.approximate"), "s"),
            "smallstep.divergence_bracket_s": (
                get(seconds, "smallstep.divergence_bracket") + get(seconds, "smallstep.closure"),
                "s",
            ),
            "smallstep.closure_steps": (closure_steps, "count"),
            "bigstep.eval_big_s": (get(seconds, "bigstep.eval_big"), "s"),
            "dist.subdist_s": (get(seconds, "dist.subdist"), "s"),
            "dist.support_calls": (get(calls, "dist.support"), "count"),
            "syntax.print_term_s": (get(seconds, "syntax.print_term"), "s"),
            "cps.translate_s": (get(seconds, "cps.translate"), "s"),
            "cps.translated_nodes": (get(nodes, "cps.translate"), "count"),
            "cps.simulation_s": (get(seconds, "cps.simulation"), "s"),
            "sampler.sample_run_s": (get(seconds, "sampler.sample_run"), "s"),
            "sampler.steps_per_sample": (sample_steps / samples if samples else 0.0, "steps/sample"),
            "syntax.parse_s": (get(seconds, "syntax.parse"), "s"),
        }

    def write(self, path: str) -> None:
        """Spans as gzipped CSV, times in seconds from the first span."""
        base = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("id,name,parent,op,start_s,end_s,count\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.op[i]},"
                    f"{self.start[i] - base:.7f},{self.end[i] - base:.7f},{self.count[i]}\n"
                )


class RepeatCounter:
    """Counts step calls on a (strategy, term) already stepped in the same
    operation: the work a successor table would save.  Hashing terms
    computes their alpha keys, so this runs in a pass of its own."""

    def __init__(self):
        self.calls = 0
        self.repeats = 0
        self.seen: set = set()
        self._undo: list = []

    def install(self) -> None:
        def wrap(original):
            def counted(term, strategy):
                self.calls += 1
                key = (strategy, term)
                if key in self.seen:
                    self.repeats += 1
                else:
                    self.seen.add(key)
                return original(term, strategy)

            return counted

        self._undo = replace_everywhere(reduction, "step", wrap)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def new_op(self) -> None:
        self.seen = set()

    @property
    def share(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0
