"""The benchmark workloads: seeded inputs, the timed op and its check.

Every op starts from its serialized input (an instance dict, or a node
count and an edge list) and ends when the library call returns. Checks and
canonical output hashes run after the timer stops, with the library's own
independent verifiers. All workloads use the ``relaxed`` constants.
"""

from __future__ import annotations

import hashlib
import json
import math

from resilient_lll import edge_coloring, general, generators, light_partition, model, solver
from resilient_lll.config import lg, relaxed_config
from resilient_lll.edge_coloring import ReductionPlan, split_palette, verify_edge_coloring
from resilient_lll.graph import Graph, Partition, per_part_neighbor_counts
from resilient_lll.model import check_assignment, instance_to_dict
from resilient_lll.seeds import rng_for

CFG = relaxed_config()


class CheckFailed(Exception):
    """An op returned, but its output failed the independent check."""


def _digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RingWorkload:
    """Ring-family instances: build from the instance dict, then solve."""

    def make_input(self, op_seed, size):
        inst = generators.ring_family(size["n"], 2, 5, op_seed)
        return instance_to_dict(inst), inst

    def check(self, reference, output, size):
        report = check_assignment(reference, output)
        if not report.valid:
            raise CheckFailed(f"violated events {report.violated_events[:10]}")

    def canonical(self, output) -> str:
        return _digest([output[v] for v in sorted(output)])


class RingGeneral(RingWorkload):
    name = "ring-general"
    sizes = {"full": {"n": 400}, "tiny": {"n": 40}}

    def run(self, data, op_seed, size, tracer):
        with tracer.span("model.load"):
            inst = model.instance_from_dict(data)
        return general.solve_general(inst, 1, CFG, op_seed).assignment


class RingStagedR4(RingWorkload):
    name = "ring-staged-r4"
    sizes = {"full": {"n": 24, "parts": 4}, "tiny": {"n": 12, "parts": 4}}

    def run(self, data, op_seed, size, tracer):
        with tracer.span("model.load"):
            inst = model.instance_from_dict(data)
        part = Partition.round_robin(inst.event_count, size["parts"])
        return solver.solve(inst, part, CFG, op_seed).assignment


def bucketed_plan(delta, eps, q, iterations):
    """An explicit bucketed plan: 2^iterations buckets sharing a palette of
    ceil((1 + eps) * delta) colors."""
    x = delta / 2 ** iterations
    return ReductionPlan(
        mode="bucketed", epsilon=eps, q=q, iterations=iterations, x=x,
        delta_prime=x * (1 + 1 / q), eps_prime=eps / 2,
        palette=split_palette(math.ceil((1 + eps) * delta), 2 ** iterations),
        implied_c=1.0,
    )


class EdgecolorBucketed:
    """A circulant graph, relabelled by a seeded permutation so that every
    op colors a distinct input, edge colored through an explicit plan."""

    name = "edgecolor-bucketed"
    sizes = {
        "full": {"n": 256, "d": 128, "eps": 0.75, "q": 2.0, "iterations": 5},
        "tiny": {"n": 80, "d": 32, "eps": 0.75, "q": 2.0, "iterations": 3},
    }

    def make_input(self, op_seed, size):
        g = generators.circulant_graph(size["n"], size["d"])
        label = list(range(size["n"]))
        rng_for(op_seed, "relabel").shuffle(label)
        edges = [(label[u], label[v]) for u, v in g.edges()]
        return (size["n"], edges), None

    def run(self, data, op_seed, size, tracer):
        with tracer.span("graph.build"):
            g = Graph(*data)
        plan = bucketed_plan(size["d"], size["eps"], size["q"], size["iterations"])
        return data, edge_coloring.color_edges(g, size["eps"], CFG, op_seed,
                                               plan=plan).colors

    def check(self, reference, output, size):
        data, colors = output
        g = Graph(*data)
        palette = math.ceil((1 + size["eps"]) * size["d"])
        result = verify_edge_coloring(g, colors, palette)
        if not (result["proper"] and result["within_palette"]):
            raise CheckFailed(f"coloring not proper within {palette} colors: "
                              f"{result['violations'][:3]}")

    def canonical(self, output) -> str:
        return _digest(sorted([u, v, c] for (u, v), c in output[1].items()))


class PartitionRegular:
    """Light partition of a seeded random regular graph at x = lg(degree)."""

    name = "partition-regular"
    sizes = {"full": {"n": 1000, "d": 32}, "tiny": {"n": 120, "d": 16}}

    def make_input(self, op_seed, size):
        g = generators.random_regular_graph(size["n"], size["d"], op_seed)
        return (size["n"], list(g.edges())), None

    def run(self, data, op_seed, size, tracer):
        with tracer.span("graph.build"):
            g = Graph(*data)
        return data, light_partition.compute_light_partition_detailed(
            g, lg(size["d"]), CFG, op_seed)

    def check(self, reference, output, size):
        data, report = output
        g = Graph(*data)
        part = report.partition
        expected_parts = math.ceil(size["d"] / lg(size["d"]))
        if part.part_count != expected_parts:
            raise CheckFailed(f"{part.part_count} parts, expected {expected_parts}")
        worst = max(max(per_part_neighbor_counts(g, part, v))
                    for v in range(g.node_count))
        if worst > report.per_part_bound:
            raise CheckFailed(f"per-part load {worst} exceeds {report.per_part_bound}")

    def canonical(self, output) -> str:
        part = output[1].partition
        return _digest([part.part_count, list(part.assignment)])


WORKLOADS = {w.name: w for w in (RingGeneral(), RingStagedR4(),
                                 EdgecolorBucketed(), PartitionRegular())}
