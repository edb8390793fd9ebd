"""Solve the residual instance left by the staged first phase.

A variable is free when the residual does not fix it. The residual splits
into connected components over shared free variables, each given by its
ascending event ids; each component is solved independently, by exhaustive
search when its free assignment space is at most ``EXHAUSTIVE_CAP`` and
otherwise by resampling: draw all free variables, then repeatedly pick the
lowest-id satisfied event and redraw its free variables, up to
``RESAMPLE_CAP_FACTOR`` redraws per component event.

This stands in for the deterministic decomposition machinery the round
bounds assume; the checkable contract (a valid assignment per component)
is preserved, round-accounting for this phase is reported as resampling
iterations, not communication rounds.
"""

from __future__ import annotations

import itertools

from .errors import ComponentFailure
from .seeds import derive_seed, rng_for

EXHAUSTIVE_CAP = 1 << 16
RESAMPLE_CAP_FACTOR = 100  # residual resamplings allowed per component event


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def group_by_free_vars(inst, free) -> list:
    """Group the events that depend on a variable in ``free`` into maximal
    sets connected through shared variables in ``free``: sorted tuples,
    ordered by smallest member event id."""
    uf = _UnionFind(a for v in free for a in inst.dependents[v])
    for v in free:
        first, *rest = inst.dependents[v]
        for b in rest:
            uf.union(first, b)
    groups = {}
    for a in uf.parent:
        groups.setdefault(uf.find(a), []).append(a)
    return [tuple(sorted(groups[root])) for root in sorted(groups)]


def solve_component(residual, events, seed: int):
    """Assign the free variables of the component with ascending event ids
    ``events`` so no component event holds; a variable is free when the
    residual does not fix it. The search is exhaustive when the free
    support is at most ``EXHAUSTIVE_CAP``, and resampling otherwise.

    Returns (assignment over free vars, stats dict). Raises
    ComponentFailure when no assignment exists or the resampling cap is
    exhausted (callers may retry under a new seed).
    """
    inst = residual.instance
    fixed = residual.fixed_values
    values, free = {}, set()
    for a in events:
        for v in inst.events[a].dependent_vars:
            if v in fixed:
                values[v] = fixed[v]
            else:
                free.add(v)
    free_vars = sorted(free)
    exhaustive = inst.support(free_vars) <= EXHAUSTIVE_CAP
    stats = {
        "size": len(events),
        "free_vars": len(free_vars),
        "method": "exhaustive" if exhaustive else "resample",
        "resamplings": 0,
    }
    evs = [inst.events[a] for a in events]

    if exhaustive:
        specs = [inst.variables[v] for v in free_vars]
        for combo in itertools.product(*(range(s.domain_size) for s in specs)):
            for v, val in zip(free_vars, combo):
                values[v] = val
            if not any(ev.evaluate(values) for ev in evs):
                return {v: values[v] for v in free_vars}, stats
        raise ComponentFailure(
            f"component at event {events[0]} has no valid assignment"
        )

    rng = rng_for(seed, "component", events[0])
    free_of = {
        ev.event_id: [v for v in ev.dependent_vars if v in free]
        for ev in evs
    }
    for v in free_vars:
        values[v] = inst.variables[v].sample(rng)
    cap = RESAMPLE_CAP_FACTOR * max(len(events), 1)
    per_event = dict.fromkeys(events, 0)
    while True:
        bad = next((ev for ev in evs if ev.evaluate(values)), None)
        if bad is None:
            stats["per_event_resamplings"] = per_event
            return {v: values[v] for v in free_vars}, stats
        if stats["resamplings"] >= cap:
            raise ComponentFailure(
                f"component at event {events[0]}: resample cap {cap} exhausted"
            )
        for v in free_of[bad.event_id]:
            values[v] = inst.variables[v].sample(rng)
        stats["resamplings"] += 1
        per_event[bad.event_id] += 1


def solve_residual(residual, seed: int):
    """Solve every component; returns (free-var assignment, per-component
    stats). Components are independent, so any execution order gives the
    same global validity; per-component seeds derive from the component's
    smallest event id."""
    assignment = {}
    all_stats = []
    for events in residual.components:
        part, stats = solve_component(
            residual, events, derive_seed(seed, "comp", events[0])
        )
        assignment.update(part)
        all_stats.append(stats)
    return assignment, all_stats
