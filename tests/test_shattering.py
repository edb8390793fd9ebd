import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from _families import fair_bits, ring_instance, small_instances
from resilient_lll.errors import ComponentFailure, InputError
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    TruthTable,
    build_instance,
)
from resilient_lll.shattering import (
    _UnionFind,
    extract_components,
    group_by_free_vars,
    solve_component,
    solve_residual,
)
from resilient_lll.solver import Residual


def make_residual(inst, free_vars=None, fixed_values=None):
    free = frozenset(free_vars if free_vars is not None else range(inst.var_count))
    fixed = fixed_values if fixed_values is not None else {
        v: 0 for v in range(inst.var_count) if v not in free
    }
    return Residual(
        instance=inst,
        fixed_values=fixed,
        free_vars=free,
        components=group_by_free_vars(inst, free),
        satisfied_fixed=(),
    )


def test_empty_residual_no_components():
    inst = ring_instance(6, privates=1)
    residual = make_residual(inst, free_vars=[])
    assert extract_components(residual) == []


def test_disjoint_events_make_singleton_components():
    vs = fair_bits(4)
    e0 = EventSpec(0, (0, 1), TruthTable(frozenset({(1, 1)})))
    e1 = EventSpec(1, (2, 3), TruthTable(frozenset({(1, 1)})))
    inst = build_instance(vs, [e0, e1])
    residual = make_residual(inst)
    jobs = extract_components(residual)
    assert [job.events for job in jobs] == [(0,), (1,)]
    assert jobs[0].free_vars == (0, 1) and jobs[1].free_vars == (2, 3)


def union_find_oracle(inst, free):
    """Quadratic component computation by repeated closure."""
    live = [
        ev.event_id for ev in inst.events
        if any(v in free for v in ev.dependent_vars)
    ]
    comps = []
    unseen = set(live)
    while unseen:
        comp = {min(unseen)}
        grew = True
        while grew:
            grew = False
            for a in list(unseen - comp):
                deps_a = {v for v in inst.events[a].dependent_vars if v in free}
                for b in comp:
                    deps_b = {
                        v for v in inst.events[b].dependent_vars if v in free
                    }
                    if deps_a & deps_b:
                        comp.add(a)
                        grew = True
                        break
        comps.append(tuple(sorted(comp)))
        unseen -= comp
    return sorted(comps)


def test_components_match_union_find_oracle():
    rng = random.Random(6)
    inst = ring_instance(20, privates=2)
    for trial in range(10):
        free = {v for v in range(inst.var_count) if rng.random() < 0.3}
        residual = make_residual(inst, free_vars=free)
        jobs = extract_components(residual)
        assert sorted(job.events for job in jobs) == union_find_oracle(inst, free)
        seen_vars = [v for job in jobs for v in job.free_vars]
        assert len(seen_vars) == len(set(seen_vars)), "free vars must not overlap"


def var_seen_grouping(inst, events, free):
    """Verbatim copy of the grouping group_by_free_vars replaced: union
    each event with the first listed event seen on each free variable."""
    uf = _UnionFind(events)
    var_seen = {}
    for a in events:
        for v in inst.events[a].dependent_vars:
            if v in free:
                if v in var_seen:
                    uf.union(var_seen[v], a)
                else:
                    var_seen[v] = a
    groups = {}
    for a in events:
        groups.setdefault(uf.find(a), []).append(a)
    return [tuple(sorted(groups[root])) for root in sorted(groups)]


@settings(max_examples=300, deadline=None)
@given(small_instances(), st.data())
def test_group_by_free_vars_matches_var_seen_grouping(case, data):
    inst = case[0]
    free = frozenset(data.draw(st.sets(st.integers(0, inst.var_count - 1))))
    live = [a for a in range(inst.event_count)
            if any(v in free for v in inst.events[a].dependent_vars)]
    assert group_by_free_vars(inst, free) == var_seen_grouping(inst, live, free)


def test_single_event_single_bit_component():
    vs = fair_bits(1)
    ev = EventSpec(0, (0,), TruthTable(frozenset({(1,)})))
    inst = build_instance(vs, [ev])
    residual = make_residual(inst)
    job = extract_components(residual)[0]
    assignment, stats = solve_component(residual, job, seed=0)
    assert assignment == {0: 0}
    assert stats["method"] == "exhaustive"


def test_component_solution_passes_restricted_checker():
    inst = ring_instance(12, privates=2)
    residual = make_residual(inst)
    for job in extract_components(residual):
        assignment, _ = solve_component(residual, job, seed=3)
        values = dict(job.conditioning)
        values.update(assignment)
        for a in job.events:
            assert not inst.events[a].evaluate(values)


def test_unsolvable_component_raises():
    vs = fair_bits(1)
    taut = EventSpec(0, (0,), TruthTable(frozenset({(0,), (1,)})))
    inst = build_instance(vs, [taut])
    residual = make_residual(inst)
    job = extract_components(residual)[0]
    with pytest.raises(ComponentFailure):
        solve_component(residual, job, seed=0)


def chain_component(k, arity=4):
    """k all-ones events in a chain sharing one bit with each neighbor."""
    n_vars = k * (arity - 1) + 1
    vs = fair_bits(n_vars)
    events = []
    for i in range(k):
        start = i * (arity - 1)
        deps = tuple(range(start, start + arity))
        events.append(
            EventSpec(i, deps, CountThreshold(groups=(deps,), threshold=arity, ref_value=1))
        )
    return build_instance(vs, events)


def test_resampling_solves_within_cap_and_expected_rate():
    # e*p*(d+1) <= 0.9 components must all resolve; mean resamplings per
    # event stays below 1/eps + 1 at eps = 0.1 (monitored bound).
    total_resamples = 0
    total_events = 0
    solved = 0
    for trial in range(50):
        inst = chain_component(5, arity=5)
        p = 2 ** -5
        assert math.e * p * (inst.d + 1) <= 0.9
        residual = make_residual(inst)
        job = extract_components(residual)[0]
        assignment, stats = solve_component(
            residual, job, seed=trial, method="resample"
        )
        values = dict(assignment)
        assert not any(ev.evaluate(values) for ev in inst.events)
        solved += 1
        total_resamples += stats["resamplings"]
        total_events += len(job.events)
    assert solved == 50
    assert total_resamples / total_events <= 11


def test_resample_method_deterministic():
    inst = chain_component(4, arity=4)
    residual = make_residual(inst)
    job = extract_components(residual)[0]
    a1, s1 = solve_component(residual, job, seed=8, method="resample")
    a2, s2 = solve_component(residual, job, seed=8, method="resample")
    assert a1 == a2 and s1["resamplings"] == s2["resamplings"]


def test_resample_cap_enforced():
    vs = fair_bits(1)
    taut = EventSpec(0, (0,), TruthTable(frozenset({(0,), (1,)})))
    inst = build_instance(vs, [taut])
    residual = make_residual(inst)
    job = extract_components(residual)[0]
    with pytest.raises(ComponentFailure, match="cap"):
        solve_component(residual, job, seed=0, method="resample")


def test_unknown_component_method_is_input_error():
    residual = make_residual(chain_component(3))
    job = extract_components(residual)[0]
    with pytest.raises(InputError, match="'bogus'"):
        solve_component(residual, job, seed=0, method="bogus")


def test_solve_residual_merges_disjoint_components():
    inst = ring_instance(18, privates=2)
    residual = make_residual(inst)
    assignment, stats = solve_residual(residual, seed=5)
    assert set(assignment) == set(range(inst.var_count))
    assert not any(ev.evaluate(assignment) for ev in inst.events)
    assert stats, "expected at least one component"


def test_conditioning_respected():
    # Component must solve relative to pinned boundary values.
    vs = fair_bits(3)
    # Fires unless var2 breaks the pattern; vars 0,1 frozen to 1.
    ev = EventSpec(0, (0, 1, 2), TruthTable(frozenset({(1, 1, 1)})))
    inst = build_instance(vs, [ev], allocation={0: 0, 1: 0, 2: 0})
    residual = Residual(
        instance=inst,
        fixed_values={0: 1, 1: 1},
        free_vars=frozenset({2}),
        components=[(0,)],
        satisfied_fixed=(),
    )
    job = extract_components(residual)[0]
    assert job.conditioning == {0: 1, 1: 1}
    assignment, _ = solve_component(residual, job, seed=1)
    assert assignment == {2: 0}
