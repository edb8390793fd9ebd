"""Spans and counters recorded from outside the library.

The tracer patches public functions of ``resilient_lll`` at every binding
the benchmarked paths call through, records a span (name, start, end,
parent span, op id) around each call and lets an observer count what the
call returned. Spans stay in memory until the run writes them out. Nothing
is recorded outside an op, so set-up and the output checks run untraced.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

from resilient_lll import (
    defective,
    edge_coloring,
    general,
    light_partition,
    misra_gries,
    model,
    probability,
    shattering,
    solver,
)


class NoTrace:
    """Stand-in for the untraced run: spans cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name):
        return self._null

    def op_scope(self, op_id):
        return self._null


class Tracer:
    """Records spans and per-op counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []          # [id, name, start, end, parent id, op id]
        self.tallies = {}        # op id -> counters
        self.seen = set()        # distinct keys counted within the current op
        self.op = None
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.op]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op_scope(self, op_id):
        """Everything called inside belongs to op ``op_id``."""
        self.op = op_id
        self.tallies[op_id] = defaultdict(float)
        self.seen = set()
        try:
            yield
        finally:
            self.op = None
            self._stack.clear()

    @property
    def tally(self):
        return self.tallies[self.op]

    def wrap(self, owner, attr, name=None, observe=None):
        """Replace ``owner.attr`` by a recording wrapper; ``name`` None
        counts through ``observe`` only, without a span."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                with self.span(name):
                    result = original(*args, **kwargs)
            if observe is not None:
                observe(self, result, args)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        for owner, attr, name, observe in WRAPS:
            self.wrap(owner, attr, name, observe)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_json(self):
        keys = ("id", "name", "start", "end", "parent", "op")
        return [dict(zip(keys, s)) for s in self.spans]


# --- observers: counts read from what a wrapped call returned ---------------

def _instance_built(tracer, inst, args):
    t = tracer.tally
    t["model.build_calls"] += 1
    for key, value in (("model.events", inst.event_count),
                       ("model.vars", inst.var_count),
                       ("model.d", inst.d), ("model.d_vars", inst.d_vars)):
        t[key] = max(t[key], value)


def _indicator(tracer, result, args):
    oracle, a, key = args[0], args[1], args[2]
    tracer.tally["probability.indicator_calls"] += 1
    if (id(oracle), a, key) not in tracer.seen:
        tracer.seen.add((id(oracle), a, key))
        tracer.tally["probability.indicator_distinct"] += 1


def _stage(tracer, result, args):
    report = result[1]
    t = tracer.tally
    t["solver.events"] += len(report.per_event_fate)
    t["solver.fixed"] += report.fixed_count
    t["solver.reverted"] += report.reverted_count
    t["solver.deferred"] += report.deferred_count
    t["solver.dangerous"] += len(report.dangerous_events)
    t["probability.exact_estimates"] += report.danger_estimate_modes.get("exact", 0)
    t["probability.sampled_estimates"] += report.danger_estimate_modes.get("sampled", 0)


def _residual_solved(tracer, result, args):
    stats = result[1]
    t = tracer.tally
    t["shattering.max_component"] = max(
        [t["shattering.max_component"]] + [s["size"] for s in stats])
    t["shattering.resamplings"] += sum(s.get("resamplings", 0) for s in stats)
    t["shattering.exhaustive"] += sum(s["method"] == "exhaustive" for s in stats)


def _light_partition(tracer, report, args):
    tracer.tally["light_partition.parts"] = report.partition.part_count


def _halving(tracer, coloring, args):
    tracer.tally["defective.iterations"] += len(coloring.history)


def _colored(tracer, result, args):
    t = tracer.tally
    t["edge_coloring.colors_used"] = result.colors_used
    t["edge_coloring.max_bucket_degree"] = max(result.bucket_degrees, default=0)


# Each public call on the benchmarked paths, at every binding a caller
# looks it up through: (owner, attribute, span name or None, observer).
WRAPS = (
    (model, "build_instance", "model.build", _instance_built),
    (light_partition, "build_instance", "model.build", _instance_built),
    (probability.VulnerabilityOracle, "probability", "probability.vuln", None),
    (probability.VulnerabilityOracle, "indicator", None, _indicator),
    (probability, "event_probability", "probability.event_p", None),
    (general, "event_probability", "probability.event_p", None),
    (general, "solve_general", "general", None),
    (general, "criterion_check", "general.criterion", None),
    (general, "resilience_certificate", "general.certificate", None),
    (light_partition, "compute_light_partition_detailed", "light_partition",
     _light_partition),
    (general, "compute_light_partition_detailed", "light_partition",
     _light_partition),
    (light_partition, "build_light_partition_instance", "light_partition.build",
     None),
    (solver, "solve", "solver.solve", None),
    (solver, "run_first_stage", "solver.stage", _stage),
    (solver, "residual_instance", "solver.residual", None),
    (shattering, "solve_residual", "shattering", _residual_solved),
    (shattering, "solve_component", "shattering.component", None),
    (defective, "iterate_halving", "defective.halving", _halving),
    (edge_coloring, "iterate_halving", "defective.halving", _halving),
    (defective, "balanced_edge_split", "defective.edge_split", None),
    (misra_gries, "misra_gries_edge_coloring", "misra_gries", None),
    (edge_coloring, "misra_gries_edge_coloring", "misra_gries", None),
    (edge_coloring, "color_edges", "edge_coloring", _colored),
    (edge_coloring, "verify_edge_coloring", "edge_coloring.verify", None),
)


def span_times(spans):
    """(total, self, calls) per span name; a span's self time is its
    duration minus that of its direct children."""
    child_time = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for s in spans:
        total[s[1]] += s[3] - s[2]
        self_time[s[1]] += s[3] - s[2] - child_time[s[0]]
        calls[s[1]] += 1
    return total, self_time, calls


def op_layers(spans, tally, op_seconds) -> dict:
    """Per-layer figures of one op from its spans and counters."""
    total, self_time, calls = span_times(spans)
    by_id = {s[0]: s for s in spans}
    solve_under_lp = 0.0
    for s in spans:
        if s[1] != "solver.solve":
            continue
        parent = by_id.get(s[4])
        while parent is not None and parent[1] != "light_partition":
            parent = by_id.get(parent[4])
        if parent is not None:
            solve_under_lp += s[3] - s[2]

    t = tally
    return {
        "trace.solve_s": op_seconds,
        "model.load_s": total["model.load"],
        "model.build_s": total["model.build"],
        "model.build_calls": t["model.build_calls"],
        "model.events": t["model.events"],
        "model.vars": t["model.vars"],
        "model.d": t["model.d"],
        "model.d_vars": t["model.d_vars"],
        "graph.build_s": total["graph.build"],
        "probability.vuln_s": total["probability.vuln"],
        "probability.vuln_calls": calls["probability.vuln"],
        "probability.indicator_calls": t["probability.indicator_calls"],
        "probability.indicator_distinct": t["probability.indicator_distinct"],
        "probability.exact_estimates": t["probability.exact_estimates"],
        "probability.sampled_estimates": t["probability.sampled_estimates"],
        "probability.event_p_s": total["probability.event_p"],
        "probability.event_p_calls": calls["probability.event_p"],
        "general.s": total["general"],
        "general.criterion_s": total["general.criterion"],
        "general.certificate_s": total["general.certificate"],
        "light_partition.s": total["light_partition"],
        "light_partition.build_s": total["light_partition.build"],
        "light_partition.parts": t["light_partition.parts"],
        "solver.solve_s": total["solver.solve"] - solve_under_lp,
        "solver.bootstrap_solve_s": solve_under_lp,
        "solver.stage_s": total["solver.stage"],
        "solver.stage_self_s": self_time["solver.stage"],
        "solver.residual_s": total["solver.residual"],
        "solver.events": t["solver.events"],
        "solver.fixed": t["solver.fixed"],
        "solver.reverted": t["solver.reverted"],
        "solver.deferred": t["solver.deferred"],
        "solver.dangerous": t["solver.dangerous"],
        "shattering.s": total["shattering"],
        "shattering.components": calls["shattering.component"],
        "shattering.exhaustive": t["shattering.exhaustive"],
        "shattering.max_component": t["shattering.max_component"],
        "shattering.resamplings": t["shattering.resamplings"],
        "defective.halving_s": total["defective.halving"],
        "defective.edge_split_s": total["defective.edge_split"],
        "defective.edge_split_calls": calls["defective.edge_split"],
        "defective.iterations": t["defective.iterations"],
        "misra_gries.s": total["misra_gries"],
        "misra_gries.calls": calls["misra_gries"],
        "edge_coloring.s": total["edge_coloring"],
        "edge_coloring.self_s": self_time["edge_coloring"],
        "edge_coloring.verify_s": total["edge_coloring.verify"],
        "edge_coloring.colors_used": t["edge_coloring.colors_used"],
        "edge_coloring.max_bucket_degree": t["edge_coloring.max_bucket_degree"],
    }

