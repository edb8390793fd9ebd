import itertools
import math
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from resilient_lll import probability
from resilient_lll.config import relaxed_config, strict_config
from resilient_lll.defective import EDGE, VERTEX, build_split_instance
from resilient_lll.errors import CapacityError, ContractViolation, InputError
from resilient_lll.general import event_estimates
from resilient_lll.generators import random_regular_graph, ring_family, window_family
from resilient_lll.graph import Partition
from resilient_lll.light_partition import build_light_partition_instance
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    MaxPartLoad,
    TruthTable,
    VariableSpec,
    build_instance,
    check_assignment,
)
from resilient_lll.probability import (
    EXACT_ENUM_CAP,
    ProbabilityEstimate,
    VulnerabilityOracle,
    event_probability,
)
from resilient_lll.seeds import derive_seed, first_row_sampler, first_row_value
from resilient_lll.solver import run_first_stage

from _families import hub_instance
from _reference_probability import (
    ReferenceMemoKeys,
    conditional_event_probability,
    reference_indicator,
    swap_groups,
)


def fair_bits(n):
    return [VariableSpec.fair_bit()] * n


def xor_instance():
    rows = frozenset({(0, 1), (1, 0)})
    ev = EventSpec(0, (0, 1), TruthTable(rows))
    return build_instance(fair_bits(2), [ev])


def test_xor_probability_half():
    inst = xor_instance()
    est = event_probability(inst, 0)
    assert est.exact and est.value == 0.5


def test_count_threshold_matches_binomial_oracle():
    # Pr[Bin(5, 1/2) >= 4], frozen from the comb-sum oracle: 6/32.
    oracle = sum(math.comb(5, k) for k in range(4, 6)) / 2 ** 5
    assert oracle == 6 / 32
    ev = EventSpec(
        0, tuple(range(5)),
        CountThreshold(groups=(tuple(range(5)),), threshold=4, ref_value=1),
    )
    inst = build_instance(fair_bits(5), [ev])
    est = event_probability(inst, 0)
    assert est.exact and est.value == pytest.approx(oracle, abs=1e-12)


def test_truth_table_probability_is_weight_sum():
    # Non-uniform weights: exact mode must equal the sum over satisfying rows.
    vs = [
        VariableSpec(2, (0.25, 0.75)),
        VariableSpec(3, (0.5, 0.3, 0.2)),
    ]
    rows = frozenset({(0, 2), (1, 0), (1, 1)})
    ev = EventSpec(0, (0, 1), TruthTable(rows))
    inst = build_instance(vs, [ev])
    expected = 0.25 * 0.2 + 0.75 * 0.5 + 0.75 * 0.3
    est = event_probability(inst, 0)
    assert est.exact and est.value == pytest.approx(expected, abs=1e-12)


@st.composite
def truth_table_queries(draw):
    """(instance, event, fixed, free): a ``TruthTable`` event over one to
    five uniform or weighted variables of domain 1-3 in a random dependency
    order, whose rows may have the wrong length or hold values outside the
    domains (1.0 and True equal 1), with some of its variables fixed and the
    free ones in a random order."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=5))
    skewed = {1: (1.0,), 2: (0.25, 0.75), 3: (0.2, 0.3, 0.5)}
    variables = [VariableSpec(size, skewed[size]) if draw(st.booleans())
                 else VariableSpec.uniform(size) for size in sizes]
    deps = tuple(draw(st.permutations(range(len(sizes)))))
    support = list(itertools.product(*(range(sizes[v]) for v in deps)))
    odd = st.lists(st.sampled_from((0, 1, 2, 3, -1, 1.0, True, 0.5)),
                   min_size=max(len(deps) - 1, 0), max_size=len(deps) + 1).map(tuple)
    rows = draw(st.sets(st.sampled_from(support) | odd, max_size=12))
    ev = EventSpec(0, deps, TruthTable(frozenset(rows)))
    inst = build_instance(variables, [ev])
    free = [v for v in deps if draw(st.booleans())]
    fixed = {v: draw(st.integers(0, sizes[v] - 1)) for v in deps if v not in free}
    return inst, ev, fixed, draw(st.permutations(free))


@settings(max_examples=400, deadline=None)
@given(truth_table_queries())
def test_truth_table_probability_counts_rows_as_enumeration_does(case):
    # Uniform or weighted, the row count gives the float that enumerating
    # every completion gives, at any support.
    inst, ev, fixed, free = case
    expected = probability._mass_over(inst, free, fixed, ev.evaluate, math.inf, 0, None)
    est = probability._probability_over(inst, ev, fixed, free, 0, None)
    assert est.exact
    assert est.value == expected.value


def test_truth_table_above_the_enumeration_cap_is_exact():
    # 3^13 completions, above EXACT_ENUM_CAP, were sampled before rows were
    # counted; a count over the support is exact.
    k = 13
    assert 3 ** k > EXACT_ENUM_CAP
    rows = frozenset({(0,) * k, (1,) * k, (2,) + (0,) * (k - 1), (3,) * k, (0,) * (k - 1)})
    ev = EventSpec(0, tuple(range(k)), TruthTable(rows))
    inst = build_instance([VariableSpec.uniform(3)] * k, [ev])
    assert event_probability(inst, 0) == ProbabilityEstimate(3 / 3 ** k, exact=True)


def test_probability_invariant_under_row_permutation():
    rows = [(0, 1, 1), (1, 0, 0), (1, 1, 0)]
    ev1 = EventSpec(0, (0, 1, 2), TruthTable(frozenset(rows)))
    ev2 = EventSpec(0, (0, 1, 2), TruthTable(frozenset(reversed(rows))))
    i1 = build_instance(fair_bits(3), [ev1])
    i2 = build_instance(fair_bits(3), [ev2])
    assert event_probability(i1, 0).value == event_probability(i2, 0).value


def test_majority_of_25_bits_is_exact():
    # 2^25 completions, beyond the enumeration cap: the count DP is exact.
    k = 25
    oracle = sum(math.comb(k, j) for j in range(13, k + 1)) / 2 ** k
    assert oracle == 0.5
    ev = EventSpec(
        0, tuple(range(k)),
        CountThreshold(groups=(tuple(range(k)),), threshold=13, ref_value=1),
    )
    inst = build_instance(fair_bits(k), [ev])
    est = event_probability(inst, 0)
    assert est.exact and est.value == oracle


def test_monte_carlo_within_tolerance():
    # 3^15 completions force sampling for MaxPartLoad; the oracle sums the
    # multinomial mass of the count vectors whose largest part reaches 7.
    k, threshold = 15, 7
    oracle = sum(
        math.factorial(k) // (math.factorial(a) * math.factorial(b)
                              * math.factorial(k - a - b))
        for a in range(k + 1) for b in range(k + 1 - a)
        if max(a, b, k - a - b) >= threshold
    ) / 3 ** k
    ev = EventSpec(0, tuple(range(k)), MaxPartLoad(tuple(range(k)), threshold))
    inst = build_instance([VariableSpec.uniform(3)] * k, [ev])
    mc = 10_000
    est = event_probability(inst, 0, mc_samples=mc, seed=123)
    assert not est.exact and est.samples == mc
    assert abs(est.value - oracle) <= 4 / math.sqrt(mc)


def _enumerated_probability(inst, event, fixed):
    """Brute-force oracle: sum the weight of every satisfying completion of
    the event's unfixed variables."""
    free = [v for v in event.dependent_vars if v not in fixed]
    specs = [inst.variables[v] for v in free]
    values = dict(fixed)
    hits, mass = 0, 0.0
    for combo in itertools.product(*(range(s.domain_size) for s in specs)):
        values.update(zip(free, combo))
        if event.evaluate(values):
            hits += 1
            w = 1.0
            for s, val in zip(specs, combo):
                w *= s.weights[val]
            mass += w
    return hits, math.prod(s.domain_size for s in specs), mass


@st.composite
def count_threshold_cases(draw):
    n = draw(st.integers(1, 8))
    weighted = draw(st.booleans())
    variables = []
    for _ in range(n):
        size = draw(st.integers(1, 3))
        if weighted:
            raw = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)
                       .filter(any))
            variables.append(VariableSpec(size, tuple(x / sum(raw) for x in raw)))
        else:
            variables.append(VariableSpec.uniform(size))
    var_ids = st.integers(0, n - 1)
    # Groups may overlap and may repeat a variable.
    groups = draw(st.lists(st.lists(var_ids, min_size=1, max_size=5).map(tuple),
                           min_size=1, max_size=3))
    if draw(st.booleans()):
        ref = {"ref_var": draw(var_ids)}
    else:
        ref = {"ref_value": draw(st.integers(0, 3))}
    threshold = draw(st.integers(0, 12)) / 2
    event = EventSpec(0, tuple(range(n)),
                      CountThreshold(groups=tuple(groups), threshold=threshold, **ref))
    fixed = {
        v: draw(st.integers(0, variables[v].domain_size - 1))
        for v in draw(st.sets(var_ids))
    }
    return build_instance(variables, [event]), fixed


@settings(max_examples=400, deadline=None)
@given(count_threshold_cases())
def test_count_threshold_engine_matches_enumeration(case):
    inst, fixed = case
    event = inst.events[0]
    est = conditional_event_probability(inst, 0, row1_fixed=fixed)
    hits, support, mass = _enumerated_probability(inst, event, fixed)
    assert est.exact
    free = [v for v in event.dependent_vars if v not in fixed]
    if all(inst.variables[v].is_uniform for v in free):
        assert est.value == hits / support
    else:
        assert est.value == pytest.approx(mass, abs=1e-12)


def test_conditional_with_no_swaps_equals_unconditional():
    inst = xor_instance()
    a = event_probability(inst, 0)
    b = conditional_event_probability(inst, 0)
    assert a.exact and b.exact and a.value == b.value


def test_conditional_xor_one_bit_fixed():
    inst = xor_instance()
    est = conditional_event_probability(inst, 0, row1_fixed={0: 0})
    assert est.exact and est.value == 0.5


def test_conditional_matches_exhaustive_oracle_all_fixed_combos():
    rng = random.Random(9)
    rows = frozenset(
        c for c in itertools.product((0, 1), repeat=3) if rng.random() < 0.4
    )
    ev = EventSpec(0, (0, 1, 2), TruthTable(rows))
    inst = build_instance(fair_bits(3), [ev])
    for fixed_mask in range(8):
        fixed = {v: (v + 1) % 2 for v in range(3) if fixed_mask >> v & 1}
        free = [v for v in range(3) if v not in fixed]
        hits = 0
        for combo in itertools.product((0, 1), repeat=len(free)):
            values = dict(fixed)
            values.update(zip(free, combo))
            if tuple(values[v] for v in (0, 1, 2)) in rows:
                hits += 1
        oracle = hits / 2 ** len(free)
        est = conditional_event_probability(inst, 0, row1_fixed=fixed)
        assert est.exact and est.value == pytest.approx(oracle, abs=1e-12)


def test_conditional_swap_set_ignores_pinned_values():
    # Event 0 fires iff vars 0 and 1 are both 1; event 0 owns var 0 and
    # event 1 owns var 1. Swapping event 0 draws var 0 fresh whatever its
    # pinned first-row value, while var 1 keeps its pin.
    ev = EventSpec(0, (0, 1), TruthTable(frozenset({(1, 1)})))
    other = EventSpec(1, (1,), TruthTable(frozenset()))
    inst = build_instance(fair_bits(2), [ev, other], {0: 0, 1: 1})
    unpinned = conditional_event_probability(
        inst, 0, swap_events=[0], row1_fixed={1: 1}
    )
    assert unpinned.exact and unpinned.value == 0.5
    for pin in (0, 1):
        est = conditional_event_probability(
            inst, 0, swap_events=[0], row1_fixed={0: pin, 1: 1}
        )
        assert est == unpinned
    kept = conditional_event_probability(inst, 0, row1_fixed={0: 1, 1: 1})
    assert kept.exact and kept.value == 1.0


# --- vulnerability oracle -------------------------------------------------


def single_bit_instance():
    ev = EventSpec(0, (0,), TruthTable(frozenset({(1,)})))
    return build_instance(fair_bits(1), [ev])


def test_vulnerability_zero_probability_event():
    ev = EventSpec(0, (0, 1), TruthTable(frozenset()))
    inst = build_instance(fair_bits(2), [ev])
    part = Partition.singleton(1)
    est = VulnerabilityOracle(inst, part, relaxed_config()).probability(0)
    assert est.exact and est.value == 0.0


def two_row_enumeration_oracle(inst, cfg):
    """Exhaustive two-row evaluation for the single-bit instance."""
    thr = cfg.inner_threshold(inst.d)
    ev = inst.events[0]
    hits = 0
    for row1 in (0, 1):
        q_empty = 1.0 if ev.evaluate({0: row1}) else 0.0
        q_swap = sum(1.0 for row2 in (0, 1) if ev.evaluate({0: row2})) / 2
        if q_empty >= thr or q_swap >= thr:
            hits += 1
    return hits / 2


def test_vulnerability_single_event_matches_two_row_oracle():
    inst = single_bit_instance()
    part = Partition.singleton(1)
    for cfg in (strict_config(), relaxed_config()):
        est = VulnerabilityOracle(inst, part, cfg).probability(0)
        assert est.exact
        assert est.value == pytest.approx(two_row_enumeration_oracle(inst, cfg))


def test_vulnerability_conditioned_on_full_row():
    inst = single_bit_instance()
    part = Partition.singleton(1)
    cfg = relaxed_config()
    hot = VulnerabilityOracle(inst, part, cfg).probability(0, {0: 1})
    cold = VulnerabilityOracle(inst, part, cfg).probability(0, {0: 0})
    assert (hot.value, cold.value) == (1.0, 0.0)


SWAP_FAMILIES = {
    "ring": lambda seed: ring_family(30, seed=seed),
    "window": lambda seed: window_family(20, seed=seed),
    "vertex-split": lambda seed: build_split_instance(
        random_regular_graph(16, 5, seed), VERTEX, 1),
    "edge-split": lambda seed: build_split_instance(
        random_regular_graph(12, 4, seed), EDGE, 1),
    "light-partition": lambda seed: build_light_partition_instance(
        random_regular_graph(20, 6, seed), 2.0),
}


def expected_swap_groups(inst, part, a):
    """Event ``a``'s dependencies grouped by their owner, in ascending id
    order, and the owners grouped by part."""
    deps = inst.events[a].dependent_vars
    by_part = {}
    for b in sorted({inst.owner[v] for v in deps}):
        owned = tuple(sorted(v for v in deps if inst.owner[v] == b))
        by_part.setdefault(part.part_of(b), []).append((b, owned))
    return tuple((p, tuple(by_part[p])) for p in sorted(by_part))


@pytest.mark.parametrize("family", sorted(SWAP_FAMILIES))
def test_swap_groups_are_dependencies_grouped_by_owner(family):
    rng = random.Random(family)
    cfg = relaxed_config()
    for seed in range(3):
        inst = SWAP_FAMILIES[family](seed)
        r = rng.randint(1, 3)
        part = Partition(r, tuple(rng.randrange(r) for _ in range(inst.event_count)))
        oracle = VulnerabilityOracle(inst, part, cfg)
        for a in range(inst.event_count):
            groups = swap_groups(oracle, a)
            assert groups == expected_swap_groups(inst, part, a)
            # The members cover every dependency, as the shaped memo key assumes.
            assert sorted(v for _, members in groups for _, owned in members
                          for v in owned) == sorted(inst.events[a].dependent_vars)


@pytest.mark.parametrize("value", [0.5, 1.0, True, "1", None])
def test_probability_rejects_a_fixed_value_that_is_not_an_int(value):
    # A fixed value must be an int in its domain, as in check_assignment.
    inst = ring_family(40)
    deps = inst.events[0].dependent_vars
    oracle = VulnerabilityOracle(inst, Partition.singleton(inst.event_count),
                                 relaxed_config())
    with pytest.raises(InputError,
                       match=re.escape(f"value {value!r} out of domain for variable {deps[0]}")):
        oracle.probability(0, {v: value for v in deps})
    with pytest.raises(InputError, match="have no value in their domain"):
        check_assignment(inst, {v: value for v in range(inst.var_count)})


def test_vulnerability_capacity_error_names_offender():
    # A per-event-keyed hub whose 15 swap neighbors share one part exceeds
    # the cap.
    inst = hub_instance(shaped=False)
    part = Partition.singleton(inst.event_count)
    with pytest.raises(CapacityError, match="event 0"):
        VulnerabilityOracle(inst, part, relaxed_config()).probability(0)


@pytest.mark.parametrize("key", [(3, 0, 1), (0, -1, 1), (0, 1), (0, 1, 1, 0),
                                 (True, 0, 1), (0.0, 0, 1), ("1", 0, 1)])
def test_indicator_rejects_a_key_outside_the_domains(key):
    # Three fair bits, var 0 twice in the group, var 2 the reference: three
    # classes. The value 3 would pack as class 1 holding 0, and the key
    # would alias a reveal with two class-1 zeros.
    inst = build_instance(fair_bits(3), [
        EventSpec(0, (0, 1, 2), CountThreshold(((0, 0, 1),), 2, ref_var=2))])
    oracle = VulnerabilityOracle(inst, Partition.singleton(1), relaxed_config())
    assert oracle._layout(0)[0] == (2, None)
    with pytest.raises(InputError) as info:
        oracle.indicator(0, key)
    assert str(info.value) == (f"event 0: key {key!r} is not one int in its "
                               "variable's domain per dependency")
    assert oracle.memo_counts == {"hits": 0, "misses": 0, "shortcuts": 0}


def test_indicator_rejects_a_key_outside_the_domains_of_an_unshaped_event():
    # Per-position classes under stride 3: the value 3 at position 0 would
    # pack as position 1 holding 0.
    inst = hub_instance(4, shaped=False)
    oracle = VulnerabilityOracle(inst, Partition.singleton(inst.event_count),
                                 relaxed_config())
    assert oracle._layout(0)[:4] == (0, None, 3, [0, 3, 6, 9])
    for key in [(3, 1, 1, 1), (1, 1, 2, 1), (1, 1, 1), (1, 1, 1, True)]:
        with pytest.raises(InputError, match=re.escape(f"event 0: key {key!r} ")):
            oracle.indicator(0, key)
    assert oracle.indicator(0, (0, 1, 1, 1)) is True


def test_vulnerability_monte_carlo_path_close_to_exact():
    rows = frozenset({(1, 1, 1), (1, 1, 0), (0, 1, 1)})
    ev = EventSpec(0, (0, 1, 2), TruthTable(rows))
    inst = build_instance(fair_bits(3), [ev])
    part = Partition.singleton(1)
    cfg = relaxed_config()
    exact = VulnerabilityOracle(inst, part, cfg).probability(0)
    sampled = VulnerabilityOracle(inst, part, cfg, seed=7).probability(
        0, force_mc=True, mc_samples=4000
    )
    assert exact.exact and not sampled.exact
    assert abs(sampled.value - exact.value) <= 4 / math.sqrt(4000)


def test_oracle_memoization_consistency():
    inst = single_bit_instance()
    part = Partition.singleton(1)
    oracle = VulnerabilityOracle(inst, part, relaxed_config())
    first = oracle.probability(0, {0: 1})
    second = oracle.probability(0, {0: 1})
    assert first == second


def test_satisfied_indicator_precedes_subset_cap():
    # All ones satisfies the per-event-keyed hub: the empty swap answers
    # before its 15 swap neighbors are searched. Under a cap of 12 the
    # search stops at the 13th neighbor, whose subsets bring the count to
    # 2^13 - 1 vectors, one per subset.
    inst = hub_instance(shaped=False)
    assert probability.SUBSET_CAP == 12
    oracle = VulnerabilityOracle(inst, Partition.singleton(inst.event_count),
                                 relaxed_config())
    assert oracle.indicator(0, (1,) * 15) is True
    with pytest.raises(CapacityError) as info:
        oracle.indicator(0, (0,) + (1,) * 14)
    assert str(info.value) == ("event 0: at least 8191 reachable swap vectors in part 0 "
                               "exceed 4095 (2^subset_cap - 1, subset cap 12)")
    # A failed search is not memoized: the next unsatisfied query raises again.
    with pytest.raises(CapacityError):
        oracle.indicator(0, (1,) * 14 + (0,))


def test_shaped_hub_answers_as_the_mask_loop_beyond_the_member_cap():
    # The count-all-ones hub has 15 swap neighbors in one part, above a cap
    # of 12 members, but a key with z zero bits reaches only
    # (z + 1)(16 - z) - 1 count vectors. One zero bit swapped alone gives
    # 1/2, above 15^-1; eight zero bits all redraw to 1 with probability 2^-8.
    inst = hub_instance()
    part = Partition.singleton(inst.event_count)
    oracle = VulnerabilityOracle(inst, part, relaxed_config())
    reference = VulnerabilityOracle(inst, part, relaxed_config())
    keys = [(0,) + (1,) * 14, (0, 1) * 7 + (0,), (0,) * 15]
    answers = [oracle.indicator(0, key) for key in keys]
    assert answers == [True, False, False]
    assert answers == [reference_indicator(reference, 0, key) for key in keys]
    # The first key answers at its first vector; the second tries all
    # 9 * 8 - 1; of the third key's 15, the 9 that leave only zeros fixed
    # were met under the second.
    assert oracle.swap_counts == {"engine": 1 + 71 + 15 - 9, "reused": 9}


def test_reachable_vector_budget_names_event_part_and_count():
    # A cap of 3 allows 2^3 - 1 = 7 vectors per part. At all zeros the hub's
    # members all add the same vector, so the search reaches one more per
    # member and stops at the eighth.
    inst = hub_instance()
    oracle = VulnerabilityOracle(inst, Partition.singleton(inst.event_count),
                                 relaxed_config())
    assert oracle.indicator(0, (1,) * 15) is True
    with mock.patch.object(probability, "SUBSET_CAP", 3), \
            pytest.raises(CapacityError) as info:
        oracle.indicator(0, (0,) * 15)
    assert str(info.value) == ("event 0: at least 8 reachable swap vectors in part 0 "
                               "exceed 7 (2^subset_cap - 1, subset cap 3)")
    assert oracle.memo_counts == {"hits": 0, "misses": 0, "shortcuts": 1}


def sampled_twins():
    """Twin events over 21 fair bits, each bit in both groups, so swapping
    all 21 bits conditions on 2^21 match patterns and is sampled. Event 0
    owns every bit. Returns the oracle and the all-zeros reveal."""
    bits = tuple(range(21))
    events = [EventSpec(a, bits, CountThreshold((bits, bits), 21, ref_value=1))
              for a in (0, 1)]
    inst = build_instance(fair_bits(21), events, [0] * 21)
    return (VulnerabilityOracle(inst, Partition.singleton(2), relaxed_config()),
            dict.fromkeys(bits, 0))


def test_sampled_swap_probability_is_not_shared():
    # The twin event samples its own swap probability.
    oracle, zeros = sampled_twins()
    assert [oracle.probability(a, zeros).exact for a in (0, 1)] == [False, False]
    assert oracle.memo_counts == {"hits": 0, "misses": 2, "shortcuts": 0}


def test_sampled_swap_draws_are_pinned():
    # Each twin's one sampled swap draws its 2,000 samples from the oracle's
    # rng in turn; the next draw fixes how many came before it.
    oracle, zeros = sampled_twins()
    assert [oracle.probability(a, zeros) for a in (0, 1)] == [
        ProbabilityEstimate(0.0, exact=False, samples=2000)] * 2
    assert oracle._rng.random() == 0.7981722576743173


def test_per_event_swap_search_counts_are_pinned():
    # The unshaped 12-leaf hub at d = 12: a key with z <= 3 zero bits
    # answers when its zeros are first swapped together, z >= 4 tries all
    # 4,095 swap subsets. The five-zero key reuses the 2,048 swap
    # probabilities that swap bit 4, which the four-zero key computed.
    inst = hub_instance(12, shaped=False)
    oracle = VulnerabilityOracle(inst, Partition.singleton(inst.event_count),
                                 relaxed_config())
    keys = [(1,) * 12, (0,) + (1,) * 11, (0,) * 3 + (1,) * 9, (0,) * 4 + (1,) * 8,
            (0,) * 5 + (1,) * 7, (0,) * 4 + (1,) * 8, (1,) * 11 + (0,)]
    assert [oracle.indicator(0, key) for key in keys] == [
        True, True, True, False, False, False, True]
    assert oracle.swap_counts == {"engine": 1 + 7 + 4095 + 2047 + 2048, "reused": 2048}
    assert oracle.memo_counts == {"hits": 1, "misses": 5, "shortcuts": 1}


@st.composite
def shared_oracle_cases(draw, full_reveals=True):
    """Small instances of count-threshold events (and a few others) with a
    stream of oracle queries over full and partial reveals, or with
    ``full_reveals`` False over 1 to 16 partial ones."""
    n = draw(st.integers(2, 6))
    weighted = draw(st.booleans())
    variables = []
    for _ in range(n):
        size = draw(st.integers(1, 3))
        if weighted and draw(st.booleans()):
            raw = draw(st.lists(st.integers(1, 4), min_size=size, max_size=size))
            variables.append(VariableSpec(size, tuple(x / sum(raw) for x in raw)))
        else:
            variables.append(VariableSpec.uniform(size))
    var_ids = st.integers(0, n - 1)
    layouts = []
    events = []
    for a in range(draw(st.integers(2, 5))):
        if layouts and draw(st.booleans()):
            # A twin of an earlier event: the same variables, groups and
            # threshold, so the two can differ only in the reference.
            deps, groups, threshold = draw(st.sampled_from(layouts))
        else:
            deps = tuple(sorted(draw(st.sets(var_ids, min_size=1, max_size=5))))
            # Groups may repeat a variable.
            groups = tuple(draw(st.lists(
                st.lists(st.sampled_from(deps), min_size=1, max_size=4).map(tuple),
                min_size=1, max_size=3)))
            threshold = draw(st.integers(0, 8)) / 2
            layouts.append((deps, groups, threshold))
        if draw(st.booleans()):
            ref = {"ref_var": draw(st.sampled_from(deps))}
        else:
            ref = {"ref_value": draw(st.integers(0, 3))}
        events.append(EventSpec(a, deps, CountThreshold(groups, threshold, **ref)))
    if draw(st.booleans()):
        deps = tuple(sorted(draw(st.sets(var_ids, min_size=1, max_size=4))))
        events.append(EventSpec(len(events), deps,
                                MaxPartLoad(deps, draw(st.integers(1, 3)))))
    uncovered = set(range(n)) - {v for ev in events for v in ev.dependent_vars}
    if uncovered:
        ev = events[0]
        events[0] = EventSpec(0, tuple(sorted(set(ev.dependent_vars) | uncovered)),
                              ev.predicate)
    owner = [draw(st.sampled_from([ev.event_id for ev in events
                                   if v in ev.dependent_vars]))
             for v in range(n)]
    try:
        inst = build_instance(variables, events, owner)
    except ContractViolation:  # degree conditions of the model
        assume(False)
    parts = draw(st.integers(1, 3))
    part = Partition(parts, tuple(draw(st.integers(0, parts - 1))
                                  for _ in range(inst.event_count)))
    cfg = relaxed_config(c3=draw(st.sampled_from([0.5, 1.0, 2.0])))
    # Every full reveal of every event (unless ``full_reveals`` is False), and
    # some partial ones, in random order.
    queries = []
    for ev in inst.events if full_reveals else ():
        deps = ev.dependent_vars
        for key in itertools.product(*(range(variables[v].domain_size) for v in deps)):
            queries.append((ev.event_id, dict(zip(deps, key))))
    for _ in range(draw(st.integers(0, 6) if full_reveals else st.integers(1, 16))):
        ev = draw(st.sampled_from(inst.events))
        queries.append((ev.event_id, {
            v: draw(st.integers(0, variables[v].domain_size - 1))
            for v in draw(st.sets(st.sampled_from(ev.dependent_vars)))}))
    draw(st.randoms()).shuffle(queries)
    return inst, part, cfg, queries


def oracle_case(domains, events, owner, c3, queries):
    """A case over uniform variables with every event in one part."""
    inst = build_instance([VariableSpec.uniform(d) for d in domains],
                          events, owner)
    return inst, Partition.singleton(inst.event_count), relaxed_config(c3=c3), queries


def count_event(a, deps, groups, threshold, **ref):
    return EventSpec(a, deps, CountThreshold(groups, threshold, **ref))


# Three pairs of queries whose shapes differ in one ingredient of the memo
# key each, with indicators that differ. Variable 0 occurs twice in event 0's
# group: (1, 0, 0) reaches 1/2 by swapping event 2's variable alone, (0, 1, 0)
# at most 3/8.
OCCURRENCE_CASE = oracle_case(
    (2, 2, 2),
    [count_event(0, (0, 1, 2), ((0, 0, 1, 2),), 3, ref_value=1),
     count_event(1, (0, 1), ((0, 1),), 2, ref_value=1),
     count_event(2, (2,), ((2,),), 1, ref_value=1)],
    (1, 1, 2), 1.0,
    [(0, {0: 1, 1: 0, 2: 0}), (0, {0: 0, 1: 1, 2: 0})],
)
# The same values, grouped differently among the swap members: (1, 0, 0, 0)
# needs every member swapped (1/16), (0, 0, 1, 0) only events 0 and 1 (1/8).
GROUPING_CASE = oracle_case(
    (2, 2, 2, 2),
    [count_event(0, (0, 1, 2, 3), ((0, 1, 2, 3),), 4, ref_value=1),
     count_event(1, (0, 1), ((0, 1),), 2, ref_value=1),
     count_event(2, (2,), ((2,),), 1, ref_value=1)],
    (1, 1, 2, 0), 3.5,
    [(0, {0: 1, 1: 0, 2: 0, 3: 0}), (0, {0: 0, 1: 0, 2: 1, 3: 0})],
)
# Twins that differ only in the constant reference: no bit can equal 2.
REFERENCE_CASE = oracle_case(
    (2, 2, 2),
    [count_event(0, (0, 1, 2), ((0, 1, 2),), 2, ref_value=0),
     count_event(1, (0, 1, 2), ((0, 1, 2),), 2, ref_value=2),
     count_event(2, (2,), ((2,),), 1, ref_value=1)],
    (0, 1, 2), 1.0,
    [(0, {0: 1, 1: 1, 2: 1}), (1, {0: 1, 1: 1, 2: 1})],
)


@settings(max_examples=300, deadline=None)
@example(OCCURRENCE_CASE)
@example(GROUPING_CASE)
@example(REFERENCE_CASE)
@given(shared_oracle_cases())
def test_shared_oracle_matches_fresh_oracle_per_query(case):
    # One oracle shares indicator results across events of the same shape;
    # every answer must equal that of an oracle that has seen nothing else.
    inst, part, cfg, queries = case
    shared = VulnerabilityOracle(inst, part, cfg, seed=5)
    for a, fixed in queries:
        deps = inst.events[a].dependent_vars
        if len(fixed) == len(deps):
            key = tuple(fixed[v] for v in deps)
            fresh = VulnerabilityOracle(inst, part, cfg, seed=5)
            assert shared.indicator(a, key) == fresh.indicator(a, key)
        fresh = VulnerabilityOracle(inst, part, cfg, seed=5)
        assert shared.probability(a, fixed) == fresh.probability(a, fixed)
    # Exact event estimates are shared by shape as well.
    assert event_estimates(inst) == [event_probability(inst, ev.event_id)
                                     for ev in inst.events]


# Partial reveals of GROUPING_CASE's event 0 that the outer memo must keep
# apart: at c3 = 2, one 1 and two 0s grouped (1, 0), (0) give 0 and grouped
# (0, 0), (1) give 1/2; at c3 = 1, variables 1 to 3 free give 3/8 and
# variable 1 revealed as 0 gives 0.
_GROUPING_EVENTS = GROUPING_CASE[0].events
OUTER_GROUPING_CASE = oracle_case(
    (2, 2, 2, 2), _GROUPING_EVENTS, (1, 1, 2, 0), 2.0,
    [(0, {0: 1, 1: 0, 2: 0}), (0, {0: 0, 1: 0, 2: 1})])
OUTER_FREE_CASE = oracle_case(
    (2, 2, 2, 2), _GROUPING_EVENTS, (1, 1, 2, 0), 1.0,
    [(0, {0: 1}), (0, {0: 1, 1: 0})])


@settings(max_examples=300, deadline=None)
@example(OUTER_GROUPING_CASE)
@example(OUTER_FREE_CASE)
@given(shared_oracle_cases(full_reveals=False))
def test_outer_memo_matches_fresh_oracle_under_partial_reveals(case):
    # The outer memo shares a shaped event's estimate under a partial reveal
    # with every reveal of the same key; each estimate must equal, in value,
    # exactness and sample count, the one an oracle that has seen nothing
    # else gives.
    inst, part, cfg, queries = case
    shared = VulnerabilityOracle(inst, part, cfg, seed=5)
    for a, fixed in queries:
        assert shared.probability(a, fixed) == VulnerabilityOracle(
            inst, part, cfg, seed=5).probability(a, fixed)


def test_outer_memo_shares_one_entry_across_members():
    # Two all-ones events of one shape. Event 0's free variable 1 sits at
    # position 1 and belongs to leaf 2; event 1's free variable 2 sits at
    # position 0 and belongs to leaf 3. Member for member, the two reveals
    # are the same, so the second query is answered by the first's entry
    # without an indicator call.
    events = [count_event(0, (0, 1), ((0, 1),), 2, ref_value=1),
              count_event(1, (2, 3), ((2, 3),), 2, ref_value=1),
              EventSpec(2, (1,), TruthTable(frozenset())),
              EventSpec(3, (2,), TruthTable(frozenset()))]
    inst = build_instance(fair_bits(4), events, (0, 2, 3, 1))
    part, cfg = Partition.singleton(inst.event_count), relaxed_config()
    oracle = VulnerabilityOracle(inst, part, cfg)
    first = oracle.probability(0, {0: 1})
    counts = dict(oracle.memo_counts)
    assert oracle.probability(1, {3: 1}) == first
    assert oracle.memo_counts == counts and len(oracle._outer_memo) == 1
    assert first == VulnerabilityOracle(inst, part, cfg).probability(1, {3: 1})


def revealable_ints(oracle, a):
    """Every int that a revealed value of event ``a``'s dependencies packs
    to in its outer key: each position's base plus each value class."""
    _, ref, _, bases, _, sizes = oracle._layout(a)
    return {base + (x if ref is None else x == ref)
            for base, size in zip(bases, sizes) for x in range(size)}


@pytest.mark.parametrize("domains, ref", [
    ((3, 3, 3), {"ref_var": 0}),   # raw values up to one below the stride
    ((1, 1, 1), {"ref_value": 0}),  # stride 2, both value classes in use
    ((1, 1, 1), {"ref_value": 1}),
], ids=["ref-var", "domain-1-match", "domain-1-no-match"])
def test_outer_key_free_class_never_aliases_a_revealed_value(domains, ref):
    # An unrevealed position packs to an int that no revealed value of any
    # position produces, and every partial reveal answers as a fresh oracle.
    events = [count_event(0, (0, 1, 2), ((0, 1, 2),), 2, **ref)]
    events += [EventSpec(v, (v,), TruthTable(frozenset())) for v in (1, 2)]
    inst = build_instance([VariableSpec.uniform(d) for d in domains], events, (0, 1, 2))
    part, cfg = Partition.singleton(inst.event_count), relaxed_config()
    oracle = VulnerabilityOracle(inst, part, cfg)
    layout, deps = oracle._layout(0), inst.events[0].dependent_vars
    assert isinstance(layout[0], tuple)  # a shared prefix: the outer memo applies
    revealable = revealable_ints(oracle, 0)
    reveals = itertools.product(*([None, *range(d)] for d in domains))
    for values in sorted(reveals, key=lambda r: random.Random(str(r)).random()):
        fixed = {v: x for v, x in zip(deps, values) if x is not None}
        if len(fixed) == len(deps):
            continue
        _, grouped = oracle._outer_key(layout, deps, fixed)
        free = Counter(x for members in grouped for ints in members for x in ints)
        free.subtract(_packed_ints(oracle, 0, fixed))
        free = +free
        assert sum(free.values()) == len(deps) - len(fixed)
        assert not set(free) & revealable
        assert oracle.probability(0, fixed) == VulnerabilityOracle(
            inst, part, cfg).probability(0, fixed)


def _packed_ints(oracle, a, fixed):
    """The ints of the revealed positions of event ``a`` under ``fixed``."""
    _, ref, _, bases, _, _ = oracle._layout(a)
    return [base + (fixed[v] if ref is None else fixed[v] == ref)
            for base, v in zip(bases, oracle.inst.events[a].dependent_vars) if v in fixed]


def test_outer_memo_never_stores_a_sampled_estimate():
    # force_mc, and a support above EXACT_OUTER_CAP, give sampled outer
    # estimates, which draw from the oracle's rng and are never shared.
    inst = hub_instance(4)
    part, cfg = Partition.singleton(inst.event_count), relaxed_config(mc_samples=64)
    oracle = VulnerabilityOracle(inst, part, cfg)
    assert isinstance(oracle._layout(0)[0], tuple)
    assert not oracle.probability(0, {0: 1}, force_mc=True).exact
    with mock.patch.object(probability, "EXACT_OUTER_CAP", 4):
        assert not oracle.probability(0, {0: 1}).exact  # 8 completions
        assert oracle.probability(0, {0: 1, 1: 1}).exact
    assert len(oracle._outer_memo) == 1


@pytest.mark.parametrize("kind", ["truth-table", "max-load", "weighted"])
def test_outer_memo_keeps_nothing_for_per_event_layouts(kind):
    # Events keyed per event (a TruthTable, a MaxPartLoad, weighted
    # variables) read values the classes do not hold: nothing is stored.
    predicate = {"truth-table": TruthTable(frozenset({(1, 1, 1), (0, 1, 1)})),
                 "max-load": MaxPartLoad((0, 1, 2), 2),
                 "weighted": CountThreshold(((0, 1, 2),), 2, ref_value=1)}[kind]
    weights = (0.25, 0.75) if kind == "weighted" else (0.5, 0.5)
    events = [EventSpec(0, (0, 1, 2), predicate)]
    events += [EventSpec(v, (v,), TruthTable(frozenset())) for v in (1, 2)]
    inst = build_instance([VariableSpec(2, weights)] * 3, events, (0, 1, 2))
    oracle = VulnerabilityOracle(inst, Partition.singleton(inst.event_count),
                                 relaxed_config())
    assert oracle._layout(0)[0] == 0
    for fixed in ({}, {0: 1}, {1: 0}, {0: 1}, {0: 0, 2: 1}):
        assert oracle.probability(0, fixed).exact
    assert not oracle._outer_memo


SWAP_SEARCH_KINDS = ("shaped", "truth-table", "max-load", "weighted", "sampled")


@st.composite
def swap_search_cases(draw):
    """An event over m uniform variables, and sometimes a sibling over
    fresh variables: the same types on a prefix of them, so a twin or a
    smaller event with the same threshold. Each variable takes one of up to
    three types (a domain size and its occurrences per group), so many
    variables share a class. Each is owned by its event or by a leaf event,
    so a part holds up to m swap members; the parts are random. Queries are
    full reveals of the two events.

    The kind decides the events' predicate: "shaped" a count threshold
    (m <= 12), which the oracle keys by shape; the other kinds (m <= 6) are
    keyed per event: a random ``TruthTable``, a ``MaxPartLoad``, a count
    threshold over weighted variables, and one over uniform variables under
    an ``EXACT_ENUM_CAP`` of 0, so that every swap probability is sampled.
    Returns (kind, that cap, instance, partition, config, queries)."""
    kind = draw(st.sampled_from(SWAP_SEARCH_KINDS))
    m = draw(st.integers(1, 12 if kind == "shaped" else 6))
    n_groups = draw(st.integers(1, 3))
    types = draw(st.lists(st.tuples(st.integers(2 if kind == "weighted" else 1, 3),
                                    st.lists(st.integers(0, 2), min_size=n_groups,
                                             max_size=n_groups)),
                          min_size=1, max_size=3))
    typed = [draw(st.sampled_from(types)) for _ in range(m)]
    threshold = draw(st.integers(0, 12)) / 2
    ref_var = draw(st.none() | st.integers(0, m - 1))
    ref_values = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    labels = draw(st.lists(st.integers(0, m), min_size=m, max_size=m))
    counts = [m] + draw(st.lists(st.integers(1, m), max_size=1))
    rnd = draw(st.randoms(use_true_random=False))
    variables, events, owner, keys = [], [], {}, []
    for t, count in enumerate(counts):
        ids = range(len(variables), len(variables) + count)
        for size, _ in typed[:count]:
            # Weights 1..size (scaled), never uniform at size >= 2.
            variables.append(VariableSpec(size, tuple([(j + 1) / (size * (size + 1) / 2)
                                                       for j in range(size)]))
                             if kind == "weighted" else VariableSpec.uniform(size))
        groups = tuple(tuple(ids[v] for v in range(count) for _ in range(typed[v][1][g]))
                       or (ids[0],) for g in range(n_groups))
        ref = ({"ref_var": ids[ref_var]} if ref_var is not None and ref_var < count
               else {"ref_value": ref_values[t]})
        support = list(itertools.product(*(range(size) for size, _ in typed[:count])))
        predicate = {
            "truth-table": lambda: TruthTable(frozenset(
                row for row in support if rnd.random() < 0.3)),
            "max-load": lambda: MaxPartLoad(tuple(ids), threshold),
        }.get(kind, lambda: CountThreshold(groups, threshold, **ref))()
        events.append(EventSpec(t, tuple(ids), predicate))
        keys.append(st.sampled_from(support))
    for t, count in enumerate(counts):
        ids = events[t].dependent_vars
        for label in sorted(set(labels[:count])):
            owned = tuple(ids[v] for v in range(count) if labels[v] == label)
            if label:
                events.append(EventSpec(len(events), owned, TruthTable(frozenset())))
            owner.update(dict.fromkeys(owned, t if not label else len(events) - 1))
    try:
        inst = build_instance(variables, events, owner)
    except ContractViolation:  # degree conditions of the model
        assume(False)
    parts = draw(st.integers(1, 3))
    part = Partition(parts, tuple(draw(st.integers(0, parts - 1))
                                  for _ in range(inst.event_count)))
    cfg = relaxed_config(c3=draw(st.sampled_from([0.5, 1.0, 2.0])),
                         mc_samples=32 if kind == "sampled" else 2000)
    queries = [(t, k) for t, key in enumerate(keys)
               for k in draw(st.lists(key, min_size=1, max_size=6))]
    draw(st.randoms()).shuffle(queries)
    return kind, 0 if kind == "sampled" else EXACT_ENUM_CAP, inst, part, cfg, queries


def twelve_member_case(**ref):
    """Two overlapping groups over 12 variables of domains 2 and 3, each
    owned by its own leaf event in one part. The threshold asks for a whole
    group, so each key tries every reachable vector and answers False, but
    for all zeros under ``ref_var``, which the empty swap satisfies."""
    sizes = (2, 3) * 6
    groups = (tuple(range(8)), tuple(range(4, 12)) + (0,))
    hub = count_event(0, tuple(range(12)), groups, 8, **ref)
    leaves = [EventSpec(v + 1, (v,), TruthTable(frozenset())) for v in range(12)]
    inst = build_instance([VariableSpec.uniform(d) for d in sizes],
                          [hub] + leaves, [v + 1 for v in range(12)])
    keys = [(0,) * 12, (1, 2) * 6, (0, 1, 1, 0, 1, 2, 0, 0, 1, 1, 0, 2)]
    return ("shaped", EXACT_ENUM_CAP, inst, Partition.singleton(inst.event_count),
            relaxed_config(c3=0.5), [(0, key) for key in keys])


def sibling_case():
    """Count-all-ones events over 6 and 3 leaf-owned bits with one
    threshold, 3, at all zeros. Swapping k + 3 of the 6 bits leaves as many
    zeros fixed as swapping k of the 3, yet it can reach 3 ones; only the
    6-bit event passes 6^-1. The 3-bit event is asked first, so a swap key
    that dropped the swapped classes would hand its zeros to the other."""
    events = [count_event(0, tuple(range(6)), (tuple(range(6)),), 3, ref_value=1),
              count_event(1, (6, 7, 8), ((6, 7, 8),), 3, ref_value=1)]
    events += [EventSpec(v + 2, (v,), TruthTable(frozenset())) for v in range(9)]
    inst = build_instance(fair_bits(9), events, [v + 2 for v in range(9)])
    return ("shaped", EXACT_ENUM_CAP, inst, Partition.singleton(inst.event_count),
            relaxed_config(), [(1, (0,) * 3), (0, (0,) * 6)])


def carry_case():
    """Count-all-ones events with threshold 3, at all zeros, over three
    leaf-owned bits and over one leaf-owned bit that occurs three times in
    its group: two classes. Swapping the three bits swaps three of the
    first class, 1/8 in all, below 3^-1; the one bit's swap reaches 1/2. A
    count vector numeral whose base did not exceed 3 would carry the
    first into the second and answer the three bits with the one bit's
    probability."""
    events = [count_event(0, (0, 1, 2), ((0, 1, 2),), 3, ref_value=1),
              count_event(1, (3,), ((3, 3, 3),), 3, ref_value=1)]
    events += [EventSpec(v + 2, (v,), TruthTable(frozenset())) for v in range(4)]
    inst = build_instance(fair_bits(4), events, [v + 2 for v in range(4)])
    return ("shaped", EXACT_ENUM_CAP, inst, Partition.singleton(inst.event_count),
            relaxed_config(), [(1, (0,)), (0, (0,) * 3)])


@settings(max_examples=150, deadline=None)
@example(carry_case())
@example(sibling_case())
@example(twelve_member_case(ref_value=1))
@example(twelve_member_case(ref_var=3))
@given(swap_search_cases())
def test_vector_search_matches_reference_mask_loop(case):
    # The reachable-vector search answers every full reveal as the mask
    # loop does: for a shaped event by count vectors under a prefix that
    # its shape shares, for any other by one vector per subset, in mask
    # order, so that a fresh oracle's sampled swaps draw what the loop
    # draws. An oracle that shares swap probabilities and indicators across
    # queries answers as a fresh one wherever no swap was sampled.
    kind, cap, inst, part, cfg, queries = case
    with mock.patch.object(probability, "EXACT_ENUM_CAP", cap):
        shared = VulnerabilityOracle(inst, part, cfg)
        for a, key in queries:
            prefix = shared._layout(a)[0]
            assert isinstance(prefix, tuple) if kind == "shaped" else prefix == a
            expected = reference_indicator(VulnerabilityOracle(inst, part, cfg), a, key)
            assert VulnerabilityOracle(inst, part, cfg).indicator(a, key) == expected
            answer = shared.indicator(a, key)
            if a not in shared._inner_mc_events:
                assert answer == expected
            else:
                assert kind == "sampled"


@settings(max_examples=300, deadline=None)
@given(shared_oracle_cases(), st.integers(0, 16))
def test_layout_sampling_rule_matches_class_rule(case, cap):
    # The layout decides from the event's shape whether a swap probability
    # could be sampled; under a small cap, it must agree with the
    # probability engine's own rule on every part's full swap set.
    inst, part, cfg, _ = case
    with mock.patch.object(probability, "EXACT_ENUM_CAP", cap):
        oracle = VulnerabilityOracle(inst, part, cfg)
        for ev in inst.events:
            a = ev.event_id
            # A per-event layout's prefix is the event id; a shaped one's,
            # shared by the events of its shape, is a tuple.
            prefix = oracle._layout(a)[0]
            if inst.shapes[a] is None:
                assert prefix == a
                continue
            samples = any(
                probability._conditioning(inst.variables, ev.predicate,
                                          {v for _, sv in members for v in sv}) is None
                for _, members in swap_groups(oracle, a))
            assert (prefix == a) == samples
            assert isinstance(prefix, tuple) != samples


@settings(max_examples=300, deadline=None)
@example(OCCURRENCE_CASE, EXACT_ENUM_CAP)
@example(GROUPING_CASE, EXACT_ENUM_CAP)
@example(REFERENCE_CASE, EXACT_ENUM_CAP)
@given(shared_oracle_cases(), st.sampled_from([0, 2, 4, EXACT_ENUM_CAP]))
def test_packed_memo_keys_match_reference_keys(case, cap):
    # Two (event, full reveal) pairs share a packed memo key exactly when
    # they share the reference key, so the memo's hits, misses and answers
    # stay as they were. Small caps mix in per-event keys.
    inst, part, cfg, _ = case
    new, old = [], []
    with mock.patch.object(probability, "EXACT_ENUM_CAP", cap):
        oracle = VulnerabilityOracle(inst, part, cfg)
        reference = ReferenceMemoKeys(oracle)
        for ev in inst.events:
            for key in itertools.product(*(range(inst.variables[v].domain_size)
                                           for v in ev.dependent_vars)):
                new.append(oracle._memo_key(ev.event_id, key))
                old.append(reference._memo_key(ev.event_id, key))
    assert len(set(new)) == len(set(old)) == len(set(zip(new, old)))


# --- first-row values -----------------------------------------------------


def test_table_deterministic_across_orders():
    vs = [VariableSpec.uniform(5)] * 20
    order = list(range(20))
    random.Random(0).shuffle(order)
    vals1 = {v: first_row_value(42, v, vs[v]) for v in range(20)}
    vals2 = {v: first_row_value(42, v, vs[v]) for v in order}
    assert vals1 == vals2


def test_table_cells_stable_once_materialized():
    vs = fair_bits(4)
    before = first_row_value(1, 2, vs[2])
    for _ in range(5):
        assert first_row_value(1, 2, vs[2]) == before


first_row_specs = st.lists(st.one_of(
    st.integers(1, 7).map(VariableSpec.uniform),
    st.lists(st.integers(0, 5), min_size=1, max_size=7).filter(any).map(
        lambda raw: VariableSpec(len(raw), tuple(x / sum(raw) for x in raw)))),
    min_size=1, max_size=24)


@settings(max_examples=100, deadline=None)
@given(first_row_specs, st.integers(0, 2 ** 63 - 1), st.randoms(use_true_random=False))
def test_reseeded_draws_equal_first_row_values_in_any_order(specs, seed, rnd):
    # One generator re-seeded per variable draws what a fresh one does.
    order = list(range(len(specs)))
    rnd.shuffle(order)
    draw = first_row_sampler(seed)
    assert {v: draw(v, specs[v]) for v in order} == {
        v: first_row_value(seed, v, spec) for v, spec in enumerate(specs)}


@settings(max_examples=50, deadline=None)
@given(first_row_specs, st.data())
def test_staged_phase_draws_equal_first_row_values(specs, data):
    # Never-events that own random blocks of the variables, in random parts:
    # every event is fixed, so the staged phase draws every variable, in
    # part order, and each value is its first_row_value.
    n = len(specs)
    owner = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    events = [EventSpec(a, tuple(v for v in range(n) if owner[v] == a),
                        TruthTable(frozenset())) for a in range(n)]
    inst = build_instance(specs, events, owner)
    parts = data.draw(st.integers(1, 3))
    part = Partition(parts, tuple(data.draw(st.lists(st.integers(0, parts - 1),
                                                     min_size=n, max_size=n))))
    seed = data.draw(st.integers(0, 1000))
    state, _ = run_first_stage(inst, part, relaxed_config(), seed)
    table_seed = derive_seed(seed, "table")
    assert state.sampled_row1 == {v: first_row_value(table_seed, v, spec)
                                  for v, spec in enumerate(specs)}


def test_different_seeds_differ_somewhere():
    vs = [VariableSpec.uniform(1000)] * 8
    assert any(first_row_value(1, v, vs[v]) != first_row_value(2, v, vs[v])
               for v in range(8))
