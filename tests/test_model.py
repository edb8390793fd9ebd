import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, reject, settings, strategies as st

from _families import small_instances
from _reference_event_graphs import edge_list_graphs, pair_set_graphs
from resilient_lll import model
from resilient_lll.defective import build_split_instance
from resilient_lll.errors import CapacityError, ContractViolation, InputError
from resilient_lll.generators import random_regular_graph, ring_family, window_family
from resilient_lll.light_partition import build_light_partition_instance
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    MaxPartLoad,
    TruthTable,
    VariableSpec,
    brute_force_solve,
    build_instance,
    check_assignment,
    instance_from_dict,
    instance_to_dict,
)


def fair_bits(n):
    return [VariableSpec.fair_bit()] * n


def all_ones_event(event_id, var_ids):
    return EventSpec(
        event_id,
        tuple(var_ids),
        CountThreshold(groups=(tuple(var_ids),), threshold=len(var_ids), ref_value=1),
    )


def random_instance(n_events, n_vars, arity, seed):
    rng = random.Random(seed)
    events = []
    for a in range(n_events):
        deps = tuple(sorted(rng.sample(range(n_vars), arity)))
        rows = frozenset(
            combo for combo in itertools.product((0, 1), repeat=arity)
            if rng.random() < 0.3
        )
        events.append(EventSpec(a, deps, TruthTable(rows)))
    return build_instance(fair_bits(n_vars), events)


def test_two_events_sharing_a_variable():
    vs = fair_bits(3)
    e0 = all_ones_event(0, [0, 1])
    e1 = all_ones_event(1, [1, 2])
    inst = build_instance(vs, [e0, e1])
    assert inst.dep_graph.edge_count() == 1
    assert inst.d == 1


def test_dep_graph_matches_intersection_oracle():
    inst = random_instance(20, 12, 3, seed=4)
    for a in range(20):
        for b in range(a + 1, 20):
            expected = bool(
                set(inst.events[a].dependent_vars)
                & set(inst.events[b].dependent_vars)
            )
            assert (b in inst.dep_graph.adjacency[a]) == expected


def assert_graphs_match_pair_set_builders(inst):
    dependents, dep, alloc = pair_set_graphs(inst)
    assert [list(evs) for evs in inst.dependents] == dependents
    assert inst.dep_graph.adjacency == dep.adjacency
    assert inst.alloc_graph.adjacency == alloc.adjacency
    dep, alloc = edge_list_graphs(inst)
    assert inst.dep_graph.adjacency == dep.adjacency
    assert inst.alloc_graph.adjacency == alloc.adjacency
    assert (inst.d, inst.d_vars) == (dep.max_degree, alloc.max_degree)


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_graphs_match_pair_set_builders_on_random_instances(case):
    assert_graphs_match_pair_set_builders(case[0])


@pytest.mark.parametrize("seed", range(4))
def test_graphs_match_pair_set_builders_on_larger_instances(seed):
    assert_graphs_match_pair_set_builders(random_instance(40, 30, 4, seed=seed))


@st.composite
def generated_instances(draw):
    """A small instance of a generator family: ring, window, light
    partition, or vertex or edge split of a random regular graph."""
    kind = draw(st.sampled_from(("ring", "window", "light-partition", "vertex", "edge")))
    seed = draw(st.integers(0, 100))
    try:
        if kind == "ring":
            degree = draw(st.integers(0, 4))
            n = draw(st.integers(2 * degree + 2, 40))
            return ring_family(n + n * degree % 2, degree, draw(st.integers(0, 3)), seed)
        if kind == "window":
            return window_family(draw(st.integers(2, 40)), draw(st.integers(0, 4)), seed)
        degree = draw(st.integers(4 if kind == "light-partition" else 2, 7))
        n = draw(st.integers(2 * degree + 2, 30))
        g = random_regular_graph(n + n * degree % 2, degree, seed)
        if kind == "light-partition":
            return build_light_partition_instance(g, draw(st.sampled_from((1.5, 2.0, 99.0))))
        return build_split_instance(g, kind, draw(st.sampled_from((1.0, 1.5, 2.0))))
    except ContractViolation:
        reject()  # the degrees break the instance's own d < 2 * d_vars^2 rule


@settings(max_examples=150, deadline=None)
@given(generated_instances())
def test_graphs_match_pair_set_builders_on_generator_families(inst):
    assert_graphs_match_pair_set_builders(inst)


@settings(max_examples=150, deadline=None)
@given(generated_instances())
def test_generated_and_loaded_family_instances_share_one_record(inst):
    # Every variable of a family has one distribution, so one record.
    back = instance_from_dict(instance_to_dict(inst))
    for variables in (inst.variables, back.variables):
        assert len({id(spec) for spec in variables}) == 1


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_loaded_instances_share_one_record_per_distinct_distribution(case):
    inst, _ = case
    back = instance_from_dict(instance_to_dict(inst))
    assert back.variables == inst.variables
    record = {}
    for spec in back.variables:
        assert record.setdefault((spec.domain_size, spec.weights), spec) is spec
    assert len({id(spec) for spec in back.variables}) == len(
        {(spec.domain_size, spec.weights) for spec in inst.variables})


def test_default_allocation_is_lowest_id_dependent_event():
    inst = random_instance(10, 8, 3, seed=1)
    for v in range(inst.var_count):
        dependents = [
            ev.event_id for ev in inst.events if v in ev.dependent_vars
        ]
        assert inst.owner[v] == min(dependents)


def test_degree_relation_invariant():
    for seed in range(6):
        inst = random_instance(15, 10, 3, seed=seed)
        assert inst.d_vars <= inst.d
        if inst.d > 0:
            assert inst.d < 2 * inst.d_vars ** 2


def test_allocation_must_be_dependent():
    vs = fair_bits(2)
    events = [all_ones_event(0, [0]), all_ones_event(1, [1])]
    with pytest.raises(InputError):
        build_instance(vs, events, allocation={0: 1, 1: 0})


@pytest.mark.parametrize("owner", [2, 5, -1, "x", 1.0, True])
@pytest.mark.parametrize("route", ["build_instance", "instance_from_dict"])
def test_unknown_owner_is_an_input_error_naming_the_variable(owner, route):
    vs = fair_bits(2)
    events = [all_ones_event(0, [0, 1]), all_ones_event(1, [1])]
    with pytest.raises(InputError, match="variable 1 allocated to unknown event"):
        if route == "build_instance":
            build_instance(vs, events, allocation={0: 0, 1: owner})
        else:
            data = instance_to_dict(build_instance(vs, events))
            data["allocation"]["1"] = owner
            instance_from_dict(data)


def test_dangling_variable_rejected():
    vs = fair_bits(3)
    with pytest.raises(InputError):
        build_instance(vs, [all_ones_event(0, [0, 1])])  # var 2 unowned


def test_predicate_reference_outside_deps_rejected():
    with pytest.raises(InputError):
        EventSpec(0, (0,), CountThreshold(groups=((0, 1),), threshold=1, ref_value=1))


def test_check_assignment_trivia():
    vs = fair_bits(2)
    never = EventSpec(0, (0, 1), TruthTable(frozenset()))
    always = EventSpec(1, (0, 1), TruthTable(frozenset(itertools.product((0, 1), repeat=2))))
    inst = build_instance(vs, [never, always])
    report = check_assignment(inst, {0: 0, 1: 1})
    assert report.violated_events == [1]
    with pytest.raises(InputError):
        check_assignment(inst, {0: 0})


def test_check_assignment_matches_reevaluation():
    inst = random_instance(12, 9, 3, seed=8)
    rng = random.Random(2)
    assignment = {v: rng.randrange(2) for v in range(inst.var_count)}
    report = check_assignment(inst, assignment)
    expected = [
        ev.event_id for ev in inst.events
        if tuple(assignment[v] for v in ev.dependent_vars) in ev.predicate.rows
    ]
    assert report.violated_events == expected


def test_brute_force_trivial_cases():
    vs = fair_bits(2)
    never = EventSpec(0, (0, 1), TruthTable(frozenset()))
    inst = build_instance(vs, [never])
    assert brute_force_solve(inst) == {0: 0, 1: 0}

    always = EventSpec(0, (0, 1), TruthTable(frozenset(itertools.product((0, 1), repeat=2))))
    inst2 = build_instance(vs, [always])
    assert brute_force_solve(inst2) is None


def test_brute_force_on_guaranteed_solvable_instance():
    # e*p*d <= 1 forces existence; validity is checked directly.
    vs = fair_bits(12)
    events = [
        all_ones_event(0, [0, 1, 2, 3]),
        all_ones_event(1, [3, 4, 5, 6]),
        all_ones_event(2, [6, 7, 8, 9]),
        all_ones_event(3, [9, 10, 11, 0]),
    ]
    inst = build_instance(vs, events)
    p = 2 ** -4
    assert math.e * p * inst.d <= 1
    solution = brute_force_solve(inst)
    assert solution is not None
    assert check_assignment(inst, solution).valid


def test_brute_force_capacity_guard():
    vs = fair_bits(30)
    events = [all_ones_event(0, list(range(30)))]
    inst = build_instance(vs, events)
    with pytest.raises(CapacityError):
        brute_force_solve(inst)


def test_max_part_load_and_count_threshold_eval():
    vs = [VariableSpec.uniform(3)] * 4
    ev = EventSpec(0, (0, 1, 2, 3), MaxPartLoad(counted=(0, 1, 2, 3), threshold=3))
    inst = build_instance(vs, [ev])
    assert inst.events[0].evaluate({0: 1, 1: 1, 2: 1, 3: 0})
    assert not inst.events[0].evaluate({0: 1, 1: 1, 2: 0, 3: 2})

    two_group = EventSpec(
        0,
        (0, 1, 2, 3),
        CountThreshold(groups=((0, 1), (2, 3)), threshold=2, ref_var=0),
    )
    assert two_group.evaluate({0: 2, 1: 2, 2: 0, 3: 1})   # first group fires
    assert two_group.evaluate({0: 2, 1: 0, 2: 2, 3: 2})   # second group fires
    assert not two_group.evaluate({0: 2, 1: 0, 2: 2, 3: 1})


def test_structurally_false_detection():
    ev = EventSpec(0, (0, 1), MaxPartLoad(counted=(0, 1), threshold=5))
    assert ev.structurally_false()
    ev2 = EventSpec(0, (0, 1), CountThreshold(groups=((0, 1),), threshold=3, ref_value=1))
    assert ev2.structurally_false()
    ev3 = EventSpec(0, (0, 1), TruthTable(frozenset({(0, 0)})))
    assert not ev3.structurally_false()


def test_weight_validation():
    with pytest.raises(InputError):
        VariableSpec(2, (0.5, 0.6))
    with pytest.raises(InputError):
        VariableSpec(2, (1.2, -0.2))
    VariableSpec(3, (0.2, 0.3, 0.5))  # ok


@pytest.mark.parametrize("weights", [(math.nan, 0.5), (0.5, math.nan),
                                     (math.nan, math.nan)])
def test_nan_weights_are_rejected_naming_the_variable(weights):
    # A spec is a distribution without an id; the loader names the variable.
    with pytest.raises(InputError, match="^weights sum to nan$"):
        VariableSpec(2, weights)
    data = instance_to_dict(window_family(3))
    data["variables"][3]["weights"] = list(weights)
    with pytest.raises(InputError, match="variable 3: weights sum to nan"):
        instance_from_dict(data)


@pytest.mark.parametrize("domain, weights, message", [
    (0, (), "empty domain"),
    (2, (1.0,), "weight count != domain size"),
    (2, (1.5, -0.5), "negative weight"),
    (2, (math.nan, 0.5), "weights sum to nan"),
    (2, (0.5, 0.6), "weights sum to 1.1"),
    (2, (0, 2), "weights sum to 2"),
    (2, (0.0, 2.0), "weights sum to 2.0"),
])
def test_a_bad_spec_raises_its_own_message_after_a_valid_one(domain, weights, message):
    # The loader builds each distinct distribution once; a valid spec before
    # a bad one, or the same bad spec twice, changes no message, and the
    # loader prefixes the id of the variable. It reads weights as floats.
    VariableSpec.uniform(max(domain, 1))
    for _ in range(2):
        with pytest.raises(InputError) as exc:
            VariableSpec(domain, weights)
        assert str(exc.value) == message
    with pytest.raises(InputError) as exc:
        VariableSpec(domain, tuple(map(float, weights)))
    loaded_message = str(exc.value)
    for var_id in (5, 6):
        data = instance_to_dict(window_family(3))
        data["variables"][var_id].update(domain=domain, weights=list(weights))
        with pytest.raises(InputError) as exc:
            instance_from_dict(data)
        assert str(exc.value) == (
            f"instance variables: InputError: variable {var_id}: {loaded_message}")


def test_a_ring_load_checks_its_one_distribution_once(monkeypatch):
    # 2,400 fair bits share one (domain size, weights) pair: the load builds
    # and checks one spec, and every variable holds that record.
    data = instance_to_dict(ring_family(400, 2, 5, 0))
    built = []
    check = VariableSpec.__post_init__
    monkeypatch.setattr(VariableSpec, "__post_init__",
                        lambda spec: check(spec) or built.append(spec))
    inst = instance_from_dict(data)
    assert inst.var_count == 2400
    assert len(built) == 1
    assert all(spec is built[0] for spec in inst.variables)


@settings(max_examples=200, deadline=None)
@given(small_instances())
def test_round_trip_keeps_uniformity_classes_and_graphs(case):
    inst, _ = case
    back = instance_from_dict(instance_to_dict(inst))
    for spec, loaded in zip(inst.variables, back.variables):
        w0 = spec.weights[0]
        uniform = all(abs(w - w0) <= model.WEIGHT_TOL for w in spec.weights)
        assert spec.is_uniform == loaded.is_uniform == uniform
    class_of_id = {}
    stride = 1 + max(spec.domain_size for spec in inst.variables)
    for a, (ev, loaded) in enumerate(zip(inst.events, back.events)):
        assert ev.structurally_false() == loaded.structurally_false() == (
            ev.predicate.structurally_false(ev.dependent_vars))
        shape = inst.shapes[a]
        assert back.shapes[a] == shape
        pred = ev.predicate
        if not isinstance(pred, CountThreshold) or not all(
                inst.variables[v].is_uniform for v in ev.dependent_vars):
            assert shape is None
            continue
        classes = [(inst.variables[v].domain_size,
                    tuple(g.count(v) for g in pred.groups), v == pred.ref_var)
                   for v in ev.dependent_vars]
        # One id per class across the instance.
        for class_id, cls in zip(shape.classes, classes):
            assert class_of_id.setdefault(class_id, cls) == cls
        assert shape.estimate_key == (pred.threshold, pred.ref_value,
                                      tuple(sorted(shape.classes)))
        assert shape.conditioned == tuple(sum(occ) > 1 and not is_ref
                                          for _, occ, is_ref in classes)
        assert shape.stride == stride
    assert len(set(class_of_id.values())) == len(class_of_id)
    assert back.owner == inst.owner
    assert back.dep_graph.adjacency == inst.dep_graph.adjacency
    assert back.alloc_graph.adjacency == inst.alloc_graph.adjacency


def test_instance_from_dict_rejects_a_nan_weight():
    data = instance_to_dict(window_family(3))
    data["variables"][2]["weights"][0] = "nan"
    with pytest.raises(InputError, match="instance variables: .*variable 2: "):
        instance_from_dict(data)


@pytest.mark.parametrize("field, entry, key, value", [
    ("variables", 1, "id", 1.0),
    ("variables", 1, "id", True),
    ("variables", 2, "domain", 2.0),
    ("events", 1, "id", 1.0),
    ("events", 2, "vars", 0.0),
])
def test_instance_dicts_reject_non_int_ids_domains_and_dependencies(field, entry, key,
                                                                    value):
    data = instance_to_dict(ring_family(4, 2, 1, 0))
    if key == "vars":
        data[field][entry][key][0] = value
    else:
        data[field][entry][key] = value
    with pytest.raises(InputError, match=f"^instance {field}: .* {value!r} is not an int$"):
        instance_from_dict(data)


@pytest.mark.parametrize("event_id, deps, message", [
    (0, (0.0, 1), "dependency 0.0 is not an int"),
    (0, (0, True), "dependency True is not an int"),
    (0, ("1",), "dependency '1' is not an int"),
    (True, (0, 1), "event id True is not an int"),
    (0.0, (0, 1), "event id 0.0 is not an int"),
])
def test_build_instance_rejects_ids_that_are_not_ints(event_id, deps, message):
    # The library route shares the loader's check: a float or bool id would
    # otherwise pass the range and dense-id tests.
    event = EventSpec(event_id, deps, TruthTable(frozenset()))
    with pytest.raises(InputError, match=f"^{message}$"):
        build_instance([VariableSpec.fair_bit()] * 2, [event])


def test_variable_ids_load_in_any_order_but_must_be_dense():
    data = instance_to_dict(ring_family(4, 2, 1, 0))
    data["variables"].reverse()
    assert instance_to_dict(instance_from_dict(data)) == instance_to_dict(
        ring_family(4, 2, 1, 0))
    for v, new_id in ((1, 0), (7, 8), (0, -1)):  # a repeat, a gap, out of range
        data = instance_to_dict(ring_family(4, 2, 1, 0))
        data["variables"][v]["id"] = new_id
        with pytest.raises(InputError, match="^instance variables: InputError: variable "
                                             "ids must be dense 0..n-1$"):
            instance_from_dict(data)


SIGNED_ZERO_WEIGHTS = {
    "variables": [{"id": 1, "domain": 2, "weights": [-0.0, 1.0]},
                  {"id": 0, "domain": 2, "weights": [0.0, 1.0]},
                  {"id": 2, "domain": 3, "weights": [0.5, -0.0, 0.5]}],
    "events": [{"id": 0, "vars": [0, 1, 2], "predicate": {
        "kind": "max_part_load", "params": {"counted": [0, 1, 2], "threshold": 2}}}],
    "allocation": {"0": 0, "1": 0, "2": 0},
}


@pytest.mark.parametrize("name, make, digest", [
    ("ring", lambda: instance_to_dict(ring_family(40, 2, 5, 3)),
     "739ebc95460a5a496e46ca1c5a56ad8c031a5aabd70b8e5a8f442ce0ceb80a5d"),
    ("window", lambda: instance_to_dict(window_family(30, 6, 2)),
     "e2e092912bf0cdeec3bd5c86fda643175c90ebbdb4dc179bd52adc96fd738abb"),
    ("vertex-split", lambda: instance_to_dict(
        build_split_instance(random_regular_graph(12, 4, 0), "vertex", 1.0)),
     "169079aaa19e7fdd584611f5bf14e732d7848ee118b6ab10223afe323e58de33"),
    ("edge-split", lambda: instance_to_dict(
        build_split_instance(random_regular_graph(12, 4, 0), "edge", 1.0)),
     "5fe6e3f553d7ac325cbf3bdbdddfbdaa8296def8d7d4e99b59f5c0636b1aee6c"),
    ("light-partition", lambda: instance_to_dict(
        build_light_partition_instance(random_regular_graph(20, 6, 1), 2.0)),
     "c1d712a68eb6e26ad76d03837e2b158ffb994d2f96b35c26774fddba2938d783"),
    ("signed-zero", lambda: SIGNED_ZERO_WEIGHTS,
     "ab597dcd44aec5e6815740fbd4455364510a2d660bb3c6bac16d65f9ad39ab27"),
])
def test_round_trip_json_is_pinned(name, make, digest):
    # SHA-256 of the JSON of instance_to_dict(instance_from_dict(d)), as the
    # model gave it while every variable held a spec of its own. A -0.0
    # weight keeps its sign although it equals 0.0.
    back = instance_to_dict(instance_from_dict(make()))
    text = json.dumps(back)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    if name == "signed-zero":
        signs = [[math.copysign(1.0, w) for w in d["weights"]] for d in back["variables"]]
        assert signs == [[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0, 1.0]]


@pytest.mark.parametrize("value", [5, -1, 0.5, "x", None, True])
def test_check_assignment_rejects_a_value_outside_the_domain(value):
    inst = window_family(3)
    assignment = {v: 0 for v in range(inst.var_count)}
    assignment[4] = value
    with pytest.raises(InputError, match=r"variables \[4\] have no value"):
        check_assignment(inst, assignment)
    del assignment[4]
    with pytest.raises(InputError, match=r"variables \[4\] have no value"):
        check_assignment(inst, assignment)


def test_serialization_roundtrip():
    inst = random_instance(8, 6, 3, seed=5)
    data = instance_to_dict(inst)
    back = instance_from_dict(data)
    assert back.var_count == inst.var_count
    assert back.owner == inst.owner
    assert back.dep_graph.adjacency == inst.dep_graph.adjacency
    for a, b in zip(inst.events, back.events):
        assert a.dependent_vars == b.dependent_vars
        assert a.predicate == b.predicate

    # Parametric predicates survive too.
    vs = fair_bits(3)
    ev = EventSpec(
        0, (0, 1, 2),
        CountThreshold(groups=((0, 1), (1, 2)), threshold=1.5, ref_var=0),
    )
    ev2 = EventSpec(1, (0, 2), MaxPartLoad(counted=(0, 2), threshold=2))
    inst2 = build_instance(vs, [ev, ev2])
    back2 = instance_from_dict(instance_to_dict(inst2))
    assert back2.events[0].predicate == ev.predicate
    assert back2.events[1].predicate == ev2.predicate
