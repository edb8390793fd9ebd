"""Low-per-part-load node partitions, computed through the staged solver.

Every vertex draws one of ceil(max_degree / lg(max_degree)) parts uniformly;
the bad event at a vertex fires when too many of its neighbors land in a
single part. Solving that instance under the trivial one-part event
partition yields a partition in which every vertex has at most
defect_const * lg(max_degree) neighbors per part; lexicographically grouping
base parts then trades part count against per-part load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .config import ThresholdConfig, lg
from .errors import InputError
from .graph import Graph, Partition, per_part_neighbor_counts
from .model import EventSpec, MaxPartLoad, VariableSpec, build_instance
from .seeds import derive_seed, rng_for
from . import solver


def base_part_count(max_degree: int) -> int:
    return math.ceil(max_degree / lg(max_degree))


def load_threshold(max_degree: int, defect_const: float) -> int:
    """Smallest neighbor count that makes the bad event fire: strictly more
    than defect_const * lg(max_degree)."""
    return math.floor(defect_const * lg(max_degree)) + 1


def build_light_partition_instance(g: Graph, defect_const: float):
    """The one-variable-per-vertex instance whose solutions are light
    partitions of ``g`` into base parts.

    Each vertex's part variable is allocated to the vertex's own event, so
    the allocation graph is isomorphic to ``g``. The event also lists its
    own part variable as a formal dependency (needed for the allocation),
    though only the neighbors' choices are counted.
    """
    delta = g.max_degree
    if delta < 4:
        raise InputError("degree below 4: use the single-part short-circuit")
    parts = base_part_count(delta)
    threshold = load_threshold(delta, defect_const)
    variables = [VariableSpec.uniform(parts)] * g.node_count
    events = []
    allocation = {}
    for v in range(g.node_count):
        deps = tuple(sorted({v, *g.neighbors(v)}))
        predicate = MaxPartLoad(counted=tuple(g.neighbors(v)), threshold=threshold)
        events.append(EventSpec(v, deps, predicate))
        allocation[v] = v
    return build_instance(variables, events, allocation)


@dataclass
class LightPartitionReport:
    partition: Partition
    per_part_bound: float
    stage_rounds: int
    max_observed_load: int


def compute_light_partition_detailed(g: Graph, x: float | None, cfg: ThresholdConfig,
                                     seed: int) -> LightPartitionReport:
    """ceil(Δ / x) parts, x = lg(Δ) if None, each vertex with at most
    defect_const * lg(Δ) * ceil(x / lg(Δ)) neighbors per part (Δ max degree).
    An ``x`` that is not a finite positive real raises InputError at any Δ."""
    if x is not None and not (isinstance(x, Real) and not isinstance(x, bool)
                              and 0 < x < math.inf):
        raise InputError(f"x = {x!r} is not a finite positive real")
    delta = g.max_degree
    if delta < 4:
        # Vacuously light: every per-part count is at most the degree.
        return LightPartitionReport(
            partition=Partition.singleton(g.node_count),
            per_part_bound=float(max(delta, 1)),
            stage_rounds=0,
            max_observed_load=delta,
        )
    x = lg(delta) if x is None else float(x)
    if x < lg(delta):
        raise InputError(f"x = {x} below lg(max_degree) = {lg(delta):.3f}")
    inst = build_light_partition_instance(g, cfg.defect_const)
    result = solver.solve(
        inst, Partition.singleton(inst.event_count), cfg, derive_seed(seed, "light")
    )
    base = base_part_count(delta)
    groups = Partition.contiguous(base, min(math.ceil(delta / x), base))
    partition = Partition(groups.part_count, tuple(
        groups.part_of(result.assignment[v]) for v in range(g.node_count)))
    bound = cfg.defect_const * lg(delta) * math.ceil(x / lg(delta))
    max_load = 0
    for v in range(g.node_count):
        counts = per_part_neighbor_counts(g, partition, v)
        max_load = max(max_load, max(counts))
    return LightPartitionReport(
        partition=partition,
        per_part_bound=bound,
        stage_rounds=result.rounds_used,
        max_observed_load=max_load,
    )


def witness_threshold(bad_threshold: int) -> int:
    """Half the bad-event threshold: seeing this many same-part neighbors in
    one row is the witness that makes row swaps able to cross the bad
    threshold at all."""
    return max(bad_threshold // 2, 1)


def verify_resilience_1part(inst, cfg: ThresholdConfig, trials: int,
                            seed: int = 0) -> dict:
    """Monte Carlo check that the witness event (at half the load threshold)
    is as rare as its per-part tail bound promises, event by event.

    For each event, estimates the probability that some part collects at
    least half the bad threshold among the counted neighbors, and compares
    estimate + 3 sigma against parts * e^(3*mu - witness_threshold).
    """
    parts = inst.variables[0].domain_size
    rng = rng_for(seed, "verify_light")
    witnesses = []
    for ev in inst.events:
        pred = ev.predicate
        if not isinstance(pred, MaxPartLoad):
            raise InputError("verify expects light-partition instances")
        witnesses.append(MaxPartLoad(pred.counted, witness_threshold(int(pred.threshold))))
    hits = [0] * len(witnesses)
    for _ in range(trials):
        row = [rng.randrange(parts) for _ in range(inst.var_count)]
        for idx, witness in enumerate(witnesses):
            hits[idx] += witness.evaluate(row, ())
    per_event = []
    for ev, witness, hit in zip(inst.events, witnesses, hits):
        est = hit / trials
        stderr = math.sqrt(est * (1 - est) / trials)
        bound = parts * math.exp(3 * (len(witness.counted) / parts) - witness.threshold)
        per_event.append({"event": ev.event_id, "estimate": est, "bound": bound,
                          "witness_threshold": witness.threshold,
                          "pass": est + 3 * stderr <= bound})
    return {"trials": trials, "parts": parts,
            "all_pass": all(e["pass"] for e in per_event), "events": per_event}
