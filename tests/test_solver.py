import dataclasses
import hashlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import event, given, reject, settings, strategies as st

from resilient_lll.config import relaxed_config, strict_config
from resilient_lll.errors import (
    CapacityError,
    ComponentFailure,
    ContractViolation,
    InputError,
    ReductionViolation,
)
from resilient_lll.graph import Partition, neighbors_within
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    MaxPartLoad,
    TruthTable,
    VariableSpec,
    build_instance,
    check_assignment,
)
from resilient_lll.probability import ProbabilityEstimate, VulnerabilityOracle
from resilient_lll.seeds import derive_seed
from resilient_lll import shattering
from resilient_lll.solver import (
    DEFERRED,
    FIXED,
    REVERTED,
    ROUNDS_PER_ITERATION,
    ROUNDS_TAIL,
    RunState,
    _validate_state,
    residual_instance,
    run_first_stage,
    solve,
)


from _families import (
    fair_bits,
    hub_instance,
    never_event,
    path_instance,
    ring_instance,
    small_instances,
)
from _reference_probability import conditional_event_probability
from _reference_solve import brute_force_solve, first_row_value


def with_fate(state, status):
    """The events whose fate in the run is ``status``."""
    return {a for a, (s, _) in state.fate.items() if s == status}


def test_no_danger_means_everything_fixed():
    vs = fair_bits(6)
    events = [never_event(i, (i, (i + 1) % 6)) for i in range(6)]
    inst = build_instance(vs, events)
    part = Partition.round_robin(6, 3)
    state, report = run_first_stage(inst, part, relaxed_config(), seed=5)
    assert with_fate(state, FIXED) == set(range(6))
    assert not with_fate(state, REVERTED) and not with_fate(state, DEFERRED)
    assert report.residual_events == ()
    assert report.rounds_used == ROUNDS_PER_ITERATION * 3 + ROUNDS_TAIL


def test_tautology_forces_reverts_single_part():
    # One always-satisfied event in a shared-variable clique; with a single
    # part there are no later parts, so nothing can be deferred.
    vs = fair_bits(3)
    taut = EventSpec(0, (0, 1, 2), TruthTable(frozenset(itertools.product((0, 1), repeat=3))))
    others = [never_event(1, (0,)), never_event(2, (1,))]
    inst = build_instance(vs, [taut] + others)
    part = Partition.singleton(3)
    state, report = run_first_stage(inst, part, relaxed_config(), seed=1)
    assert 0 in report.dangerous_events
    assert with_fate(state, REVERTED) == {0, 1, 2}   # all within one hop of the tautology
    assert not with_fate(state, DEFERRED)


def test_rounds_accounting_is_linear_in_parts():
    inst = path_instance(16, rows=frozenset())
    for r in (1, 2, 4, 8):
        part = Partition.round_robin(16, r)
        _, report = run_first_stage(inst, part, relaxed_config(), seed=3)
        assert report.rounds_used == 5 * r + 2


def straight_line_reference(inst, part, cfg, seed):
    """Independent re-implementation of the staged loop, decision by
    decision, with no caching; exercises the same public oracles."""
    table_seed = derive_seed(seed, "table")
    n = inst.event_count
    F, R, D = set(), set(), set()
    sampled = {}
    fate = {}
    for i, members in enumerate(part.parts()):
        active = [a for a in members if a not in D]
        for a in active:
            for v in inst.allocated[a]:
                sampled[v] = first_row_value(table_seed, v, inst.variables[v])
        cond = {}
        for a in sorted(F | set(active)):
            for v in inst.allocated[a]:
                cond[v] = sampled[v]
        dangerous = set()
        for a in range(n):
            proj = {v: cond[v] for v in inst.events[a].dependent_vars if v in cond}
            est = VulnerabilityOracle(inst, part, cfg).probability(a, proj)
            assert est.exact, "reference oracle expects the exact path"
            if est.value >= cfg.danger_threshold(inst.d):
                dangerous.add(a)
        for a in active:
            hood = {a} | set(inst.dep_graph.neighbors(a))
            if hood & dangerous:
                R.add(a)
                fate[a] = (REVERTED, i)
            else:
                F.add(a)
                fate[a] = (FIXED, i)
        for a in [x for x in active if fate[x][0] == REVERTED]:
            for b in neighbors_within(inst.dep_graph, a, 2):
                if part.part_of(b) > i and b not in D:
                    D.add(b)
                    fate[b] = (DEFERRED, i)
    return fate


def test_fate_map_matches_straight_line_reference():
    inst = ring_instance(30)
    cfg = relaxed_config()
    part = Partition.round_robin(30, 3)
    state, report = run_first_stage(inst, part, cfg, seed=77)
    reference = straight_line_reference(inst, part, cfg, seed=77)
    assert report.per_event_fate == reference


@pytest.mark.parametrize("fires", [
    lambda row: row in ((0,) * 7, (1, 1, 1, 1, 2, 2, 2)),  # the event is fixed
    lambda row: row[4] == 2,                              # the event is reverted
], ids=["two-rows", "one-third"])
def test_truth_table_swap_probabilities_are_computed_once(fires, monkeypatch):
    # One 7-variable event owning all its variables: every indicator miss
    # swaps all of them, so its swap probability depends on no revealed
    # value. Queried with nothing revealed, the oracle misses on each
    # completion, and only the first miss enumerates the 432-row support.
    vs = [VariableSpec.uniform(2 if v < 4 else 3) for v in range(7)]
    support = list(itertools.product(*(range(s.domain_size) for s in vs)))
    table = TruthTable(frozenset(filter(fires, support)))
    inst = build_instance(vs, [EventSpec(0, tuple(range(7)), table)])
    part = Partition(3, (1,))
    cfg = relaxed_config()
    calls = []
    evaluate = TruthTable.evaluate

    def counted(self, values, deps):
        calls.append(1)
        return evaluate(self, values, deps)

    monkeypatch.setattr(TruthTable, "evaluate", counted)
    _, report = run_first_stage(inst, part, cfg, seed=4)
    misses = report.indicator_memo["misses"]
    assert misses >= 288
    assert 10 * len(calls) <= misses * len(support)
    assert report.per_event_fate == straight_line_reference(inst, part, cfg, seed=4)


def test_reference_agreement_with_nontrivial_dynamics():
    # Scan seeds until reverts and deferrals both occur, then demand exact
    # agreement with the straight-line loop on that run.
    inst = ring_instance(30)
    cfg = relaxed_config()
    part = Partition.round_robin(30, 3)
    hit = False
    for seed in range(40):
        state, report = run_first_stage(inst, part, cfg, seed=seed)
        if with_fate(state, REVERTED) and with_fate(state, DEFERRED):
            reference = straight_line_reference(inst, part, cfg, seed=seed)
            assert report.per_event_fate == reference
            hit = True
            break
    assert hit, "no seed produced mixed fates; family parameters are off"


@settings(max_examples=100, deadline=None)
@given(small_instances(), st.integers(0, 2 ** 32))
def test_reference_agreement_on_random_exact_instances(case, seed):
    inst, part = case
    cfg = relaxed_config()
    _, report = run_first_stage(inst, part, cfg, seed)
    if report.danger_estimate_modes["sampled"]:
        reject()  # the reference runs the exact path only
    assert report.per_event_fate == straight_line_reference(inst, part, cfg, seed)


def changed_projections(inst, part, state, report):
    """Per iteration, the (event, projection) pairs whose projection of the
    committed values differs from the event's previous one (every event in
    the first iteration), recounted from the fates, ascending by event."""
    fate = report.per_event_fate
    last = {}
    per_iteration = []
    for i, members in enumerate(part.parts()):
        owners = {a for a, (status, when) in fate.items()
                  if status == FIXED and when < i}
        owners.update(a for a in members if fate[a][0] != DEFERRED)
        changed = []
        for ev in inst.events:
            projection = {v: state.sampled_row1[v] for v in ev.dependent_vars
                          if inst.owner[v] in owners}
            if last.get(ev.event_id) != projection:
                last[ev.event_id] = projection
                changed.append((ev.event_id, projection))
        per_iteration.append(changed)
    return per_iteration


def test_stage_queries_only_events_whose_projection_changed():
    inst = ring_instance(30)
    cfg = relaxed_config()
    part = Partition.round_robin(30, 3)
    probability = VulnerabilityOracle.probability
    calls = []

    def recording(oracle, a, projection):
        calls.append((a, dict(projection)))
        return probability(oracle, a, projection)

    dynamics = 0
    with mock.patch.object(VulnerabilityOracle, "probability", recording):
        for seed in range(12):
            calls.clear()
            state, report = run_first_stage(inst, part, cfg, seed=seed)
            expected = changed_projections(inst, part, state, report)
            # Calls come iteration by iteration, each in ascending order,
            # and a projection fixes the iteration it was taken in.
            assert calls == [q for queries in expected for q in queries]
            dynamics += bool(with_fate(state, REVERTED) and with_fate(state, DEFERRED))
    assert dynamics, "no seed produced reverts and deferrals"


def test_reference_agreement_on_a_path():
    # Every verdict re-derived by a fresh oracle from the event's own
    # projection, and every revert from its one-hop neighbors.
    inst = path_instance(12)
    part = Partition.round_robin(12, 3)
    cfg = relaxed_config()
    _, report = run_first_stage(inst, part, cfg, seed=9)
    assert report.danger_estimate_modes["sampled"] == 0
    assert report.per_event_fate == straight_line_reference(inst, part, cfg, seed=9)


def test_monotone_status_and_revert_freeze_properties():
    inst = ring_instance(30)
    part = Partition.round_robin(30, 5)
    state, report = run_first_stage(inst, part, relaxed_config(), seed=13)
    # Terminal states partition the events.
    assert with_fate(state, FIXED) | with_fate(state, REVERTED) | with_fate(state, DEFERRED) \
        == set(range(30))
    # Deferral soundness: no deferred event ever materialized its owned vars.
    for a in with_fate(state, DEFERRED):
        for v in inst.allocated[a]:
            assert v not in state.sampled_row1
    # Revert-freeze: once an event has a reverted dependent variable, no
    # dependency of it is sampled in any later iteration.
    fate = report.per_event_fate
    for ev in inst.events:
        rev_iters = [
            fate[inst.owner[v]][1]
            for v in ev.dependent_vars
            if fate[inst.owner[v]][0] == REVERTED
        ]
        if not rev_iters:
            continue
        first_rev = min(rev_iters)
        for v in ev.dependent_vars:
            status, when = fate[inst.owner[v]]
            if status in (FIXED, REVERTED):
                assert when <= first_rev


def test_seed_determinism():
    inst = path_instance(20)
    part = Partition.round_robin(20, 4)
    cfg = relaxed_config()
    runs = [run_first_stage(inst, part, cfg, seed=101) for _ in range(2)]
    assert runs[0][1].per_event_fate == runs[1][1].per_event_fate
    assert runs[0][0].sampled_row1 == runs[1][0].sampled_row1


def test_capacity_error_names_event_and_iteration():
    # A per-event-keyed hub with 15 swap neighbors in one part.
    inst = hub_instance(shaped=False)
    part = Partition.singleton(inst.event_count)
    with mock.patch("resilient_lll.probability.SUBSET_CAP", 8), \
            pytest.raises(CapacityError, match="event 0 in iteration 0"):
        run_first_stage(inst, part, relaxed_config(), seed=2)


def truth_table_ring(n_events=24, privates=5):
    """Events on a ring, as in ``ring_instance``, that fire when at most one
    of their bits is 0: ``TruthTable`` events, which the oracle keys per
    event."""
    vs = fair_bits(n_events * (1 + privates))
    events, owner = [], {}
    for i in range(n_events):
        own = [n_events + i * privates + j for j in range(privates)]
        deps = tuple(sorted({(i - 1) % n_events, i, (i + 1) % n_events, *own}))
        rows = frozenset(row for row in itertools.product((0, 1), repeat=len(deps))
                         if sum(row) >= len(deps) - 1)
        events.append(EventSpec(i, deps, TruthTable(rows)))
        owner.update(dict.fromkeys([i] + own, i))
    return build_instance(vs, events, owner)


@pytest.mark.parametrize("r, digest", [
    (2, "da0b83ea74620576a0f1df9fc1e45f4b42f567c42e2cc075b560b23e60ddcc17"),
    (3, "d7b447c61ed3b0d6ef83f0a69987d55ae72b75d59b23f4379043828d41b02596"),
], ids=["r2", "r3"])
def test_truth_table_ring_result_is_pinned(r, digest):
    # The whole result over per-event-keyed events: fates (15 and 17 fixed),
    # memo counts and the residual solve.
    result = solve(truth_table_ring(), Partition.round_robin(24, r), relaxed_config(), 1)
    text = json.dumps(result.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_residual_of_clean_run_is_empty():
    vs = fair_bits(4)
    inst = build_instance(vs, [never_event(i, (i,)) for i in range(4)])
    part = Partition.singleton(4)
    cfg = relaxed_config()
    state, _ = run_first_stage(inst, part, cfg, seed=0)
    residual = residual_instance(inst, state)
    assert residual.components == []
    assert all(v in residual.fixed_values for v in range(inst.var_count))
    assert len(residual.fixed_values) == 4


def test_residual_keeps_reverted_event_with_free_vars():
    inst = path_instance(30)
    cfg = relaxed_config()
    part = Partition.round_robin(30, 3)
    state, _ = run_first_stage(inst, part, cfg, seed=77)
    residual = residual_instance(inst, state)
    assert with_fate(state, REVERTED), "seed must produce at least one reverted event"
    live = {a for c in residual.components for a in c}
    for a in with_fate(state, REVERTED):
        assert a in live
        for v in inst.allocated[a]:
            assert v not in residual.fixed_values


def test_residual_conditional_probabilities_bounded():
    # After the staged phase, every event's conditional probability with
    # reverted owners re-drawn and committed values pinned stays below
    # 2 * d^-c3; exact conditional enumeration confirms it per event.
    inst = ring_instance(24)
    cfg = relaxed_config()
    part = Partition.round_robin(24, 3)
    bound = 2 * cfg.inner_threshold(inst.d)
    assert bound < 1.0, "bound must be informative at this degree"
    for seed in range(8):
        state, _ = run_first_stage(inst, part, cfg, seed=seed)
        residual = residual_instance(inst, state)
        for a in range(inst.event_count):
            est = conditional_event_probability(
                inst, a,
                swap_events=sorted(with_fate(state, REVERTED)),
                row1_fixed=residual.fixed_values,
            )
            assert est.exact
            assert est.value <= bound + 1e-12


def test_sampled_swap_probability_under_revealed_values_has_defined_slack():
    # One event owns eleven 4-valued variables: its swap probability has
    # support 4^11, above the exact enumeration cap, so it is sampled. With
    # a single part every value is revealed when the event is tested, so
    # the outer estimate itself is exact and draws no sample.
    vs = [VariableSpec.uniform(4)] * 11
    ev = EventSpec(0, tuple(range(11)), MaxPartLoad(tuple(range(11)), 6))
    inst = build_instance(vs, [ev])
    part = Partition.singleton(1)
    cfg = relaxed_config(mc_samples=200)
    _, report = run_first_stage(inst, part, cfg, seed=0)
    assert report.danger_estimate_modes == {"exact": 0, "sampled": 1}
    est = VulnerabilityOracle(inst, part, cfg).probability(
        0, {v: v % 4 for v in range(11)}
    )
    assert not est.exact and est.samples == cfg.mc_samples
    assert est.value in (0.0, 1.0)
    assert est.upper(2.0) >= est.value + 2.0 / cfg.mc_samples


def test_residual_components_grouped_once_per_solve(monkeypatch):
    calls = []
    group_by_free_vars = shattering.group_by_free_vars
    monkeypatch.setattr(shattering, "group_by_free_vars",
                        lambda inst, free: calls.append(free) or group_by_free_vars(inst, free))
    inst = path_instance(30)
    result = solve(inst, Partition.round_robin(30, 3), relaxed_config(), seed=77)
    assert result.components, "seed must leave a residual to solve"
    assert len(calls) == 1


def one_bit_tautology():
    taut = EventSpec(0, (0,), TruthTable(frozenset({(0,), (1,)})))
    return build_instance(fair_bits(1), [taut])


def test_satisfied_fixed_event_is_fatal_at_guarantee_grade(monkeypatch):
    inst = one_bit_tautology()
    state = RunState(
        fate={0: (FIXED, 0)},
        sampled_row1={0: 1},
        fixed_values={0: 1},
        components=[],
    )
    assert residual_instance(inst, state).satisfied_fixed == (0,)
    # An oracle that calls the tautology safe lets the stage fix it: solve
    # rejects the run at any grade, guarantee grade included.
    monkeypatch.setattr(VulnerabilityOracle, "probability",
                        lambda self, a, fixed=None, **kw: ProbabilityEstimate(0.0, True))
    for cfg in (relaxed_config(), strict_config()):
        with pytest.raises(ContractViolation, match="committed in a satisfied state"):
            solve(inst, Partition.singleton(1), cfg, seed=0)


def test_validate_state_rejects_a_corrupted_run():
    # A run's state holds each event's fate, the values drawn for fixed and
    # reverted owners, and the fixed owners' values; each corrupted copy
    # breaks one of those facts.
    inst = ring_instance(30)
    state, _ = run_first_stage(inst, Partition.round_robin(30, 3), relaxed_config(), seed=13)
    _validate_state(inst, state)
    fixed = min(with_fate(state, FIXED))
    reverted = min(with_fate(state, REVERTED))
    corrupted = {
        "no terminal fate": dataclasses.replace(
            state, fate={a: f for a, f in state.fate.items() if a != fixed}),
        "fixed values do not match": dataclasses.replace(
            state, fixed_values={**state.fixed_values,
                                 **{v: state.sampled_row1[v] for v in inst.allocated[reverted]}}),
        "first-row values do not match": dataclasses.replace(
            state, sampled_row1={v: x for v, x in state.sampled_row1.items()
                                 if v != inst.allocated[fixed][0]}),
    }
    for message, bad in corrupted.items():
        with pytest.raises(ContractViolation, match=message):
            _validate_state(inst, bad)


def test_stage_rejects_a_partition_of_another_size():
    inst = one_bit_tautology()
    with pytest.raises(InputError, match="partition must cover all events"):
        run_first_stage(inst, Partition.singleton(2), relaxed_config(), seed=0)


def test_solve_all_zero_probability():
    vs = fair_bits(6)
    inst = build_instance(vs, [never_event(i, (i,)) for i in range(6)])
    part = Partition.round_robin(6, 2)
    result = solve(inst, part, relaxed_config(), seed=4)
    assert check_assignment(inst, result.assignment).valid
    assert result.rounds_used <= 5 * 2 + 2


def test_solve_agrees_with_brute_force_on_small_instances():
    inst = path_instance(11)  # 12 bits
    assert brute_force_solve(inst) is not None
    part = Partition.round_robin(11, 2)
    for seed in range(5):
        result = solve(inst, part, relaxed_config(), seed=seed)
        assert check_assignment(inst, result.assignment).valid
        assert set(result.assignment) == set(range(inst.var_count))


def test_solve_deterministic_output():
    inst = path_instance(18)
    part = Partition.round_robin(18, 3)
    cfg = relaxed_config()
    a = solve(inst, part, cfg, seed=99)
    b = solve(inst, part, cfg, seed=99)
    assert a.assignment == b.assignment
    assert a.stage.per_event_fate == b.stage.per_event_fate


LIBRARY_ERRORS = (InputError, CapacityError, ContractViolation, ComponentFailure,
                  ReductionViolation)
@settings(max_examples=300, deadline=None)
@given(small_instances(), st.integers(0, 2 ** 32))
def test_solve_against_brute_force_on_random_small_instances(case, seed):
    """A returned assignment is valid; an instance that exhaustive search
    proves unsatisfiable raises; every raise is a typed library error. A
    satisfiable instance may still fail, since the relaxed constants let
    the staged phase commit values that leave the residual unsolvable."""
    inst, part = case
    cfg = relaxed_config()
    if brute_force_solve(inst) is None:
        event("unsatisfiable")
        with pytest.raises(LIBRARY_ERRORS):
            solve(inst, part, cfg, seed)
        return
    try:
        result = solve(inst, part, cfg, seed)
    except LIBRARY_ERRORS as exc:
        event(f"satisfiable, raised {type(exc).__name__}")
        return
    event("solved")
    assert check_assignment(inst, result.assignment).valid
    assert sorted(result.assignment) == list(range(inst.var_count))
    assert all(0 <= result.assignment[v] < inst.variables[v].domain_size
               for v in range(inst.var_count))
