import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from _families import fair_bits, ring_instance, small_instances
import _reference_residual as reference
from resilient_lll import shattering
from resilient_lll.errors import ComponentFailure
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    TruthTable,
    build_instance,
)
from resilient_lll.shattering import (
    _UnionFind,
    group_by_free_vars,
    solve_component,
    solve_residual,
)
from resilient_lll.solver import Residual


def route(method):
    """Keep ``solve_component`` on the exhaustive route's cap, or send
    every component to resampling: no support is at most 0."""
    cap = shattering.EXHAUSTIVE_CAP if method == "exhaustive" else 0
    return mock.patch.object(shattering, "EXHAUSTIVE_CAP", cap)


def make_residual(inst, free_vars=None):
    """The residual that fixes every variable outside ``free_vars`` (all
    variables by default) to 0."""
    free = frozenset(free_vars if free_vars is not None else range(inst.var_count))
    return Residual(
        instance=inst,
        fixed_values={v: 0 for v in range(inst.var_count) if v not in free},
        components=group_by_free_vars(inst, free),
        satisfied_fixed=(),
    )


def test_empty_residual_no_components():
    inst = ring_instance(6, privates=1)
    residual = make_residual(inst, free_vars=[])
    assert residual.components == []
    assert solve_residual(residual, seed=0) == ({}, [])


def test_disjoint_events_make_singleton_components():
    vs = fair_bits(4)
    e0 = EventSpec(0, (0, 1), TruthTable(frozenset({(1, 1)})))
    e1 = EventSpec(1, (2, 3), TruthTable(frozenset({(1, 1)})))
    inst = build_instance(vs, [e0, e1])
    residual = make_residual(inst)
    assert residual.components == [(0,), (1,)]
    (a0, s0), (a1, s1) = (solve_component(residual, c, seed=0)
                          for c in residual.components)
    assert list(a0) == [0, 1] and list(a1) == [2, 3]
    assert s0["free_vars"] == s1["free_vars"] == 2


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
        assert sorted(residual.components) == union_find_oracle(inst, free)
        seen_vars = []
        for events in residual.components:
            assignment, stats = solve_component(residual, events, seed=trial)
            assert stats["free_vars"] == len(assignment)
            seen_vars += assignment
        assert len(seen_vars) == len(set(seen_vars)), "free vars must not overlap"
        assert set(seen_vars) <= free


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
    assignment, stats = solve_component(residual, residual.components[0], seed=0)
    assert assignment == {0: 0}
    assert stats["method"] == "exhaustive"


def test_component_solution_passes_restricted_checker():
    inst = ring_instance(12, privates=2)
    residual = make_residual(inst)
    for events in residual.components:
        assignment, _ = solve_component(residual, events, seed=3)
        values = dict(residual.fixed_values)
        values.update(assignment)
        for a in events:
            assert not inst.events[a].evaluate(values)


def test_unsolvable_component_raises():
    vs = fair_bits(1)
    taut = EventSpec(0, (0,), TruthTable(frozenset({(0,), (1,)})))
    inst = build_instance(vs, [taut])
    residual = make_residual(inst)
    with pytest.raises(ComponentFailure):
        solve_component(residual, residual.components[0], seed=0)


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
        events = residual.components[0]
        with route("resample"):
            assignment, stats = solve_component(residual, events, seed=trial)
        values = dict(assignment)
        assert not any(ev.evaluate(values) for ev in inst.events)
        solved += 1
        total_resamples += stats["resamplings"]
        total_events += len(events)
    assert solved == 50
    assert total_resamples / total_events <= 11


def test_resample_method_deterministic():
    inst = chain_component(4, arity=4)
    residual = make_residual(inst)
    events = residual.components[0]
    with route("resample"):
        a1, s1 = solve_component(residual, events, seed=8)
        a2, s2 = solve_component(residual, events, seed=8)
    assert s1["method"] == "resample"
    assert a1 == a2 and s1["resamplings"] == s2["resamplings"]


def test_resample_cap_enforced():
    vs = fair_bits(1)
    taut = EventSpec(0, (0,), TruthTable(frozenset({(0,), (1,)})))
    inst = build_instance(vs, [taut])
    residual = make_residual(inst)
    with route("resample"), pytest.raises(ComponentFailure, match="cap"):
        solve_component(residual, residual.components[0], seed=0)


@pytest.mark.parametrize("cap, method", [(1 << 10, "exhaustive"),
                                         ((1 << 10) - 1, "resample")])
def test_component_route_is_exhaustive_exactly_up_to_the_cap(cap, method):
    # Three 4-bit events in a chain have 10 free bits: a support of 2^10,
    # at the patched cap and one above it.
    residual = make_residual(chain_component(3))
    events = residual.components[0]
    with mock.patch.object(shattering, "EXHAUSTIVE_CAP", cap):
        assignment, stats = solve_component(residual, events, seed=0)
    assert (stats["free_vars"], stats["method"]) == (10, method)
    assert not any(residual.instance.events[a].evaluate(assignment) for a in events)


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
        components=[(0,)],
        satisfied_fixed=(),
    )
    assignment, stats = solve_component(residual, (0,), seed=1)
    assert assignment == {2: 0} and stats["free_vars"] == 1
    # The event fires on (1, 1, 0) instead: with 0 and 1 pinned to 1, only
    # var2 = 1 avoids it.
    ev = EventSpec(0, (0, 1, 2), TruthTable(frozenset({(1, 1, 0)})))
    inst = build_instance(vs, [ev], allocation={0: 0, 1: 0, 2: 0})
    residual = Residual(inst, {0: 1, 1: 1}, [(0,)], ())
    assert solve_component(residual, (0,), seed=1) == (
        {2: 1}, {"size": 1, "free_vars": 1, "method": "exhaustive", "resamplings": 0})


def both_routes(residual, free, seed, method):
    """Each component's outcome by the reference route (a job per
    component, from the free set, told ``method``) and by
    ``solve_component`` under ``route(method)``: the assignment and stats
    as ordered items, or the failure's message."""
    jobs = reference.extract_components(residual, free)
    assert [job.events for job in jobs] == residual.components
    for job in jobs:
        outcomes = []
        for solve in (lambda: reference.solve_component(residual, job, seed, method=method),
                      lambda: solve_component(residual, job.events, seed)):
            try:
                with route(method):
                    assignment, stats = solve()
                outcomes.append((list(assignment.items()), list(stats.items())))
            except ComponentFailure as exc:
                outcomes.append(str(exc))
        yield outcomes


def random_residual(inst, data):
    """A residual over a drawn free set, every other variable fixed to a
    drawn value in its domain."""
    free = frozenset(data.draw(st.sets(st.integers(0, inst.var_count - 1))))
    fixed = {v: data.draw(st.integers(0, spec.domain_size - 1))
             for v, spec in enumerate(inst.variables) if v not in free}
    return Residual(inst, fixed, group_by_free_vars(inst, free), ()), free


@pytest.mark.parametrize("method", ["exhaustive", "resample"])
@settings(max_examples=150, deadline=None)
@given(case=small_instances(), data=st.data(), seed=st.integers(0, 1 << 30))
def test_component_solve_matches_reference_on_small_instances(method, case, data, seed):
    residual, free = random_residual(case[0], data)
    for reference_outcome, outcome in both_routes(residual, free, seed, method):
        assert outcome == reference_outcome


@pytest.mark.parametrize("method", ["exhaustive", "resample"])
@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4), arity=st.integers(2, 4), data=st.data(),
       seed=st.integers(0, 1 << 30))
def test_component_solve_matches_reference_on_chains(method, k, arity, data, seed):
    residual, free = random_residual(chain_component(k, arity), data)
    for reference_outcome, outcome in both_routes(residual, free, seed, method):
        assert outcome == reference_outcome
