"""Reference residual route: a job record per component, built by a
second extraction pass from a stored set of free variables.

``extract_components`` and ``solve_component`` are the component solver
that ``shattering.solve_component(residual, events, ...)`` replaced, which
reads a component's conditioning and free variables straight from the
residual's fixed values. The free set, which the residual kept then, is an
argument here. The tests require both routes to return the same
assignment and the same stats.
"""

import itertools
from dataclasses import dataclass

from resilient_lll.errors import CapacityError, ComponentFailure, InputError
from resilient_lll.seeds import rng_for
from resilient_lll.shattering import EXHAUSTIVE_CAP, RESAMPLE_CAP_FACTOR


@dataclass(frozen=True)
class ComponentJob:
    events: tuple
    free_vars: tuple
    conditioning: dict


def extract_components(residual, free) -> list:
    """One job per residual component, ordered by smallest member event id."""
    inst = residual.instance
    jobs = []
    for events in residual.components:
        job_free = sorted(
            {v for a in events for v in inst.events[a].dependent_vars if v in free}
        )
        conditioning = {
            v: residual.fixed_values[v]
            for a in events
            for v in inst.events[a].dependent_vars
            if v not in free
        }
        jobs.append(ComponentJob(events, tuple(job_free), conditioning))
    return jobs


def solve_component(residual, job: ComponentJob, seed: int,
                    method: str = "auto"):
    """(assignment over the job's free vars, stats dict)."""
    inst = residual.instance
    support = inst.support(job.free_vars)
    if method == "auto":
        method = "exhaustive" if support <= EXHAUSTIVE_CAP else "resample"
    stats = {
        "size": len(job.events),
        "free_vars": len(job.free_vars),
        "method": method,
        "resamplings": 0,
    }

    values = dict(job.conditioning)
    events = [inst.events[a] for a in job.events]

    if method == "exhaustive":
        if support > EXHAUSTIVE_CAP:
            raise CapacityError(
                f"component at event {job.events[0]}: support {support} too "
                "large for exhaustive search"
            )
        specs = [inst.variables[v] for v in job.free_vars]
        for combo in itertools.product(*(range(s.domain_size) for s in specs)):
            for v, val in zip(job.free_vars, combo):
                values[v] = val
            if not any(ev.evaluate(values) for ev in events):
                return {v: values[v] for v in job.free_vars}, stats
        raise ComponentFailure(
            f"component at event {job.events[0]} has no valid assignment"
        )

    if method != "resample":
        raise InputError(f"unknown component method {method!r}")
    rng = rng_for(seed, "component", job.events[0])
    job_free = set(job.free_vars)
    free_of = {
        ev.event_id: [v for v in ev.dependent_vars if v in job_free]
        for ev in events
    }
    for v in job.free_vars:
        values[v] = inst.variables[v].sample(rng)
    cap = RESAMPLE_CAP_FACTOR * max(len(job.events), 1)
    per_event = dict.fromkeys(job.events, 0)
    while True:
        bad = next((ev for ev in events if ev.evaluate(values)), None)
        if bad is None:
            stats["per_event_resamplings"] = per_event
            return {v: values[v] for v in job.free_vars}, stats
        if stats["resamplings"] >= cap:
            raise ComponentFailure(
                f"component at event {job.events[0]}: resample cap {cap} exhausted"
            )
        for v in free_of[bad.event_id]:
            values[v] = inst.variables[v].sample(rng)
        stats["resamplings"] += 1
        per_event[bad.event_id] += 1
