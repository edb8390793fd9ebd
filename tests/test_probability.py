import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from resilient_lll.config import relaxed_config, strict_config
from resilient_lll.errors import CapacityError
from resilient_lll.graph import Partition
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    MaxPartLoad,
    TruthTable,
    VariableSpec,
    build_instance,
)
from resilient_lll.probability import (
    VulnerabilityOracle,
    conditional_event_probability,
    event_probability,
    vulnerability_probability,
)
from resilient_lll.randomness import RandomnessTable


def fair_bits(n):
    return [VariableSpec.fair_bit(i) for i in range(n)]


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
        VariableSpec(0, 2, (0.25, 0.75)),
        VariableSpec(1, 3, (0.5, 0.3, 0.2)),
    ]
    rows = frozenset({(0, 2), (1, 0), (1, 1)})
    ev = EventSpec(0, (0, 1), TruthTable(rows))
    inst = build_instance(vs, [ev])
    expected = 0.25 * 0.2 + 0.75 * 0.5 + 0.75 * 0.3
    est = event_probability(inst, 0)
    assert est.exact and est.value == pytest.approx(expected, abs=1e-12)


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
    inst = build_instance([VariableSpec.uniform(i, 3) for i in range(k)], [ev])
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
    for v in range(n):
        size = draw(st.integers(1, 3))
        if weighted:
            raw = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size)
                       .filter(any))
            variables.append(VariableSpec(v, size, tuple(x / sum(raw) for x in raw)))
        else:
            variables.append(VariableSpec.uniform(v, size))
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


def test_conditional_swap_set_uses_second_row_cells():
    # Event fires iff var 0 == 1; var 0 owned by event 0. Swapping event 0
    # makes the probability depend only on the second-row cell.
    ev = EventSpec(0, (0,), TruthTable(frozenset({(1,)})))
    inst = build_instance(fair_bits(1), [ev])
    est = conditional_event_probability(
        inst, 0, swap_events=[0], row1_fixed={0: 1}, row2_fixed={0: 0}
    )
    assert est.exact and est.value == 0.0
    est2 = conditional_event_probability(
        inst, 0, swap_events=[0], row1_fixed={0: 0}, row2_fixed={0: 1}
    )
    assert est2.exact and est2.value == 1.0


# --- vulnerability oracle -------------------------------------------------


def single_bit_instance():
    ev = EventSpec(0, (0,), TruthTable(frozenset({(1,)})))
    return build_instance(fair_bits(1), [ev])


def test_vulnerability_zero_probability_event():
    ev = EventSpec(0, (0, 1), TruthTable(frozenset()))
    inst = build_instance(fair_bits(2), [ev])
    part = Partition.singleton(1)
    est = vulnerability_probability(inst, 0, part, cfg=relaxed_config())
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
        est = vulnerability_probability(inst, 0, part, cfg=cfg)
        assert est.exact
        assert est.value == pytest.approx(two_row_enumeration_oracle(inst, cfg))


def test_vulnerability_conditioned_on_full_row():
    inst = single_bit_instance()
    part = Partition.singleton(1)
    cfg = relaxed_config()
    hot = vulnerability_probability(inst, 0, part, fixed={0: 1}, cfg=cfg)
    cold = vulnerability_probability(inst, 0, part, fixed={0: 0}, cfg=cfg)
    assert (hot.value, cold.value) == (1.0, 0.0)


def test_vulnerability_capacity_error_names_offender():
    # A hub event whose 15 swap neighbors share one part exceeds the cap.
    n_leaves = 15
    vs = fair_bits(n_leaves)
    hub = EventSpec(
        0, tuple(range(n_leaves)),
        CountThreshold(groups=(tuple(range(n_leaves)),), threshold=n_leaves, ref_value=1),
    )
    leaves = [
        EventSpec(i + 1, (i,), TruthTable(frozenset({(1,)})))
        for i in range(n_leaves)
    ]
    allocation = {v: v + 1 for v in range(n_leaves)}
    inst = build_instance(vs, [hub] + leaves, allocation)
    part = Partition.singleton(inst.event_count)
    cfg = relaxed_config(subset_cap=12)
    with pytest.raises(CapacityError, match="event 0"):
        vulnerability_probability(inst, 0, part, cfg=cfg)


def test_vulnerability_monte_carlo_path_close_to_exact():
    rows = frozenset({(1, 1, 1), (1, 1, 0), (0, 1, 1)})
    ev = EventSpec(0, (0, 1, 2), TruthTable(rows))
    inst = build_instance(fair_bits(3), [ev])
    part = Partition.singleton(1)
    cfg = relaxed_config()
    exact = vulnerability_probability(inst, 0, part, cfg=cfg)
    sampled = vulnerability_probability(
        inst, 0, part, cfg=cfg, force_mc=True, mc_samples=4000, seed=7
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


# --- randomness table -----------------------------------------------------


def test_table_deterministic_across_orders():
    vs = [VariableSpec.uniform(i, 5) for i in range(20)]
    t1 = RandomnessTable(vs, seed=42)
    t2 = RandomnessTable(vs, seed=42)
    order = list(range(20))
    random.Random(0).shuffle(order)
    vals1 = {(v, r): t1.value(v, r) for v in range(20) for r in (1, 2)}
    vals2 = {(v, r): t2.value(v, r) for r in (2, 1) for v in order}
    assert vals1 == vals2


def test_table_cells_stable_once_materialized():
    vs = fair_bits(4)
    t = RandomnessTable(vs, seed=1)
    before = t.row1(2)
    for _ in range(5):
        assert t.row1(2) == before
    assert t.materialized(2, 1) and not t.materialized(2, 2)


def test_different_seeds_differ_somewhere():
    vs = [VariableSpec.uniform(i, 1000) for i in range(8)]
    a = RandomnessTable(vs, seed=1)
    b = RandomnessTable(vs, seed=2)
    assert any(a.row1(v) != b.row1(v) for v in range(8))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 60))
def test_table_rows_independent_of_each_other(seed):
    vs = fair_bits(6)
    t = RandomnessTable(vs, seed=seed)
    # row-2 reads must not disturb row-1 cells
    r1 = [t.row1(v) for v in range(6)]
    _ = [t.row2(v) for v in range(6)]
    assert [t.row1(v) for v in range(6)] == r1
