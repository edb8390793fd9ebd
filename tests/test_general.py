import hashlib
import json
import math
import random
from collections import Counter

import pytest

from _families import fair_bits, never_event, ring_instance
from resilient_lll.config import relaxed_config, strict_config
from resilient_lll.defective import build_split_instance
from resilient_lll.errors import InputError
from resilient_lll.graph import Partition
from resilient_lll.general import (
    choose_parts,
    criterion_check,
    event_estimates,
    max_parts,
    preset_parts,
    resilience_certificate,
    solve_general,
)
from resilient_lll.model import (
    brute_force_solve,
    build_instance,
    check_assignment,
)
from resilient_lll.probability import VulnerabilityOracle, event_probability
from resilient_lll.seeds import derive_seed
from resilient_lll import general, generators, model, solver


def test_criterion_zero_probability_instance():
    vs = fair_bits(4)
    inst = build_instance(vs, [never_event(i, (i, (i + 1) % 4)) for i in range(4)])
    report = criterion_check(inst, 1, c=1.0, estimates=event_estimates(inst))
    assert report.ok and report.margin == math.inf and report.exact


def test_criterion_boundary_is_inclusive():
    # ring events have p = 2^-3 with no private bits; with c*d_vars/r = 3
    # the bound is exactly p.
    inst = ring_instance(6, privates=0)
    assert inst.d_vars == 2
    report = criterion_check(inst, 1, c=1.5, estimates=event_estimates(inst))
    assert report.p == pytest.approx(2 ** -3)
    assert report.bound == pytest.approx(2 ** -3)
    assert report.ok


def test_criterion_p_matches_per_event_maximum():
    inst = ring_instance(10, privates=2)
    report = criterion_check(inst, 1, c=0.5, estimates=event_estimates(inst))
    brute_max = max(
        event_probability(inst, a).value for a in range(inst.event_count)
    )
    assert report.p == pytest.approx(brute_max)


def test_criterion_r_range_validated():
    inst = ring_instance(8, privates=1)
    estimates = event_estimates(inst)
    with pytest.raises(InputError):
        criterion_check(inst, 0, c=1.0, estimates=estimates)
    with pytest.raises(InputError):
        criterion_check(inst, max_parts(inst.d_vars) + 1, c=1.0, estimates=estimates)


def test_part_helpers():
    assert max_parts(1) == 1
    assert max_parts(16) == 4
    assert choose_parts(16, 0.0, 1.0) == 1
    assert choose_parts(16, 2 ** -8, 1.0) == 2
    assert preset_parts(16, "max-parts") == 4
    assert preset_parts(16, "log-parts") == 4
    assert preset_parts(64, "log-parts") == 6


def test_certificate_zero_probability_passes():
    vs = fair_bits(4)
    inst = build_instance(vs, [never_event(i, (i, (i + 1) % 4)) for i in range(4)])
    cert = resilience_certificate(inst, Partition.singleton(4), relaxed_config(),
                                  estimates=event_estimates(inst))
    assert cert.value == 0.0 and cert.passes


def subset_count_oracle(inst, part, cfg, p_by_event):
    """Re-derive the certificate by literally enumerating the distinct swap
    sets: every nonempty same-part subset of the inclusive allocation
    neighborhood, plus the empty set once."""
    amp = max(inst.d, 1) ** cfg.c3
    best = 0.0
    for ev in inst.events:
        hood = {ev.event_id, *inst.alloc_graph.neighbors(ev.event_id)}
        distinct_swaps = 1  # the empty set, shared by every part
        for i in range(part.part_count):
            members = [b for b in hood if part.part_of(b) == i]
            for mask in range(1, 1 << len(members)):
                distinct_swaps += 1
        best = max(best, distinct_swaps * p_by_event[ev.event_id] * amp)
    return best


def test_certificate_matches_subset_count_oracle():
    inst = ring_instance(10, privates=3)
    cfg = relaxed_config()
    rng = random.Random(5)
    part = Partition(3, tuple(rng.randrange(3) for _ in range(10)))
    p_by_event = {
        a: event_probability(inst, a).value for a in range(inst.event_count)
    }
    cert = resilience_certificate(inst, part, cfg, estimates=event_estimates(inst))
    oracle = subset_count_oracle(inst, part, cfg, p_by_event)
    assert cert.value == pytest.approx(oracle, rel=1e-12)


def test_certificate_below_uniform_envelope():
    # Whenever per-part loads respect the gamma bound (trivially true at
    # gamma = 99 on small instances) the exact certificate is dominated.
    inst = ring_instance(12, privates=2)
    cfg = relaxed_config()
    estimates = event_estimates(inst)
    rng = random.Random(7)
    for r in (1, 2, 3):
        part = Partition(r, tuple(rng.randrange(r) for _ in range(12)))
        cert = resilience_certificate(inst, part, cfg, estimates=estimates)
        assert cert.value <= cert.uniform_bound + 1e-12


def test_certificate_uniform_envelope_past_float_range_is_infinite():
    # gamma * d_vars / r = 99 * 16 at one part: 2^1584 is no float.
    inst = generators.ring_family(200, 16, 20)
    cert = resilience_certificate(inst, Partition.singleton(200), relaxed_config(),
                                  estimates=event_estimates(inst))
    assert cert.uniform_bound == math.inf
    assert math.isfinite(cert.value) and cert.p_used > 0


def refine_partition(part, rng):
    """Split one nonempty part in two at random."""
    parts = part.parts()
    splittable = [i for i, members in enumerate(parts) if len(members) >= 2]
    if not splittable:
        return None
    target = rng.choice(splittable)
    assignment = list(part.assignment)
    new_index = part.part_count
    members = parts[target]
    chosen = rng.sample(members, len(members) // 2)
    for m in chosen:
        assignment[m] = new_index
    return Partition(part.part_count + 1, tuple(assignment))


def test_certificate_monotone_under_refinement():
    inst = ring_instance(12, privates=2)
    cfg = relaxed_config()
    estimates = event_estimates(inst)
    rng = random.Random(11)
    part = Partition.singleton(12)
    for _ in range(6):
        refined = refine_partition(part, rng)
        if refined is None:
            break
        before = resilience_certificate(inst, part, cfg, estimates=estimates).value
        after = resilience_certificate(inst, refined, cfg, estimates=estimates).value
        assert after <= before + 1e-12
        part = refined


def test_solve_general_r1_equals_trivial_partition_solve():
    inst = ring_instance(10, privates=4)
    cfg = relaxed_config()
    seed = 31
    res = solve_general(inst, 1, cfg, seed)
    direct = solver.solve(
        inst, Partition.singleton(inst.event_count), cfg, derive_seed(seed, "solve")
    )
    assert res.assignment == direct.assignment
    assert res.partition.part_count == 1


def test_solve_general_without_r_takes_parts_from_largest_estimate():
    cfg = relaxed_config()
    for inst in (ring_instance(20, privates=4),
                 build_split_instance(generators.circulant_graph(20, 8), "vertex", 1),
                 build_split_instance(generators.circulant_graph(8, 2), "edge", 1)):
        p = max(est.value for est in event_estimates(inst))
        r = choose_parts(inst.d_vars, p, cfg.criterion_c)
        res = solve_general(inst, None, cfg, seed=5)
        assert (res.criterion.r, res.criterion.p, res.certificate.p_used) == (r, p, p)
        assert res.to_dict() == solve_general(inst, r, cfg, seed=5).to_dict()


def test_solve_general_small_instance_brute_checked():
    inst = ring_instance(4, privates=2)  # 12 bits total
    assert brute_force_solve(inst) is not None
    cfg = relaxed_config()
    res = solve_general(inst, 1, cfg, seed=3)
    assert check_assignment(inst, res.assignment).valid


def test_solve_general_strict_mode_rejects_weak_criterion():
    inst = ring_instance(8, privates=0)  # p = 1/8, far above strict bound
    cfg = strict_config()
    with pytest.raises(InputError):
        solve_general(inst, 1, cfg, seed=0, mode="strict")


def test_solve_general_relaxed_mode_records_warnings():
    inst = ring_instance(8, privates=0)
    cfg = strict_config()
    res = solve_general(inst, 1, cfg, seed=1, mode="relaxed")
    assert res.warnings
    assert check_assignment(inst, res.assignment).valid


def test_solve_general_output_always_validates():
    cfg = relaxed_config()
    for seed in range(6):
        inst = ring_instance(20, privates=4)
        res = solve_general(inst, 2, cfg, seed=seed)
        assert check_assignment(inst, res.assignment).valid
        assert res.rounds_used == 5 * res.partition.part_count + 2


def test_ring_solve_reports_every_danger_estimate_exact():
    inst = generators.ring_family(60, 2, 5, 3)
    for r in (1, 2):
        stage = solve_general(inst, r, relaxed_config(), 3).to_dict()["stage"]
        assert stage["danger_estimate_modes"] == {"exact": 60, "sampled": 0}


def test_ring_solve_counts_indicator_memo_hits(monkeypatch):
    calls = []
    indicator = VulnerabilityOracle.indicator

    def counted(self, a, key):
        calls.append(a)
        return indicator(self, a, key)

    monkeypatch.setattr(VulnerabilityOracle, "indicator", counted)
    inst = generators.ring_family(200, 2, 5, 4)
    memo = solve_general(inst, 1, relaxed_config(), 4).to_dict()["stage"]["indicator_memo"]
    assert memo["hits"] + memo["misses"] + memo["shortcuts"] == len(calls) == 200
    # Ring events come in a few shapes, so most indicators are shared.
    assert memo["misses"] < memo["hits"]


def test_event_estimates_share_exact_estimates_by_shape(monkeypatch):
    inst = generators.window_family(40, 6, 2)
    expected = [event_probability(inst, a) for a in range(inst.event_count)]
    calls = []
    monkeypatch.setattr(general, "event_probability",
                        lambda inst, a, **kw: calls.append(a) or event_probability(inst, a, **kw))
    assert event_estimates(inst) == expected
    # Every window event counts ones over eight bits: one shape.
    assert calls == [0]


def test_event_classes_computed_once_per_event_per_instance(monkeypatch):
    # The criterion's estimates and the vulnerability oracle both read the
    # event shape records; each instance builds them once, for every event
    # in one pass.
    built = Counter()
    alive = []  # keeps each instance's variables, so their ids stay distinct
    event_shapes = model.event_shapes

    def counted(variables, events):
        alive.append(variables)
        built[id(variables)] += len(events)
        return event_shapes(variables, events)

    monkeypatch.setattr(model, "event_shapes", counted)
    inst = generators.ring_family(60, 2, 5, 3)
    for r in (1, 2):
        solve_general(inst, r, relaxed_config(), 3)
    assert built[id(inst.variables)] == inst.event_count
    assert all(shape is not None for shape in inst.shapes)
    assert len(built) == len(alive)


@pytest.mark.parametrize("seed, memo, fixed, reverted, sizes", [
    (0, (376, 19, 5), 365, 35, (7, 7, 7, 7, 7, 7, 7)),
    (1, (378, 19, 3), 363, 37, (9, 7, 7, 7, 7, 7, 7)),
    (2, (381, 19, 0), 358, 42, (9, 7, 7, 7, 7, 7, 7, 7)),
])
def test_ring_stage_counters_are_pinned(seed, memo, fixed, reverted, sizes):
    # The benchmark's ring-general op at r = 1: a change to the oracle's memo
    # sharing, its estimate modes or the staged fates shows here first.
    stage = solve_general(generators.ring_family(400, 2, 5, seed), 1, relaxed_config(),
                          seed).stage
    assert stage.indicator_memo == dict(zip(("hits", "misses", "shortcuts"), memo))
    assert stage.danger_estimate_modes == {"exact": 400, "sampled": 0}
    assert (stage.fixed_count, stage.reverted_count, stage.deferred_count) == (
        fixed, reverted, 0)
    assert stage.residual_component_sizes == sizes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_swap_counts_are_pinned(seed, monkeypatch):
    # The same op's 19 indicator misses evaluate 105 swap probabilities, one
    # per reachable count vector. The engine computes 21 of them; the
    # shape-keyed swap memo answers the rest.
    made = []

    class Recorded(VulnerabilityOracle):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(solver, "VulnerabilityOracle", Recorded)
    solve_general(generators.ring_family(400, 2, 5, seed), 1, relaxed_config(), seed)
    assert [oracle.swap_counts for oracle in made] == [{"engine": 21, "reused": 84}]


def result_digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("seed, digest", [
    (0, "b4cb03d8b71d62f1a620fa57eccd07e61910ef350c58b70d52e7440f6e64c5dd"),
    (1, "ff7afb5196f3ed92c580316d35b5da812baf6c497d0e7a5944f007a9c59854ac"),
    (2, "cb511d6e1dbcd2f94d78da5316bcafd7938a4c0e10df5d148283256d1fd6cc94"),
])
def test_ring_general_result_is_pinned(seed, digest):
    # The whole result of the benchmark's ring-general op, not just its
    # assignment: fates, dangerous events, estimate modes and memo counts.
    result = solve_general(generators.ring_family(400, 2, 5, seed), 1, relaxed_config(),
                           seed)
    assert result_digest(result) == digest


@pytest.mark.parametrize("seed, digest", [
    (0, "9e471811feb23d82e12aaae1ff1300492538579222b6c5bc89db6523d43811a6"),
    (1, "8534384164b92863a0d2e2aed29c45c7ed849bb2c2fb153a5cd459d4f3e8af50"),
    (2, "8562a911b6d5d05141b14969801165026ff610f81e634f577ce4abc6595040df"),
])
def test_ring_four_part_stage_report_is_pinned(seed, digest):
    # The staged phase under partial reveals, where most danger queries are
    # outer memo hits between events of the same shape.
    _, report = solver.run_first_stage(generators.ring_family(24, 2, 5, seed),
                                       Partition.round_robin(24, 4), relaxed_config(), seed)
    assert result_digest(report) == digest


@pytest.mark.parametrize("seed, memo, queries", [
    (0, (1153, 56, 5), 71),
    (1, (1402, 67, 5), 71),
    (2, (1681, 87, 6), 65),
])
def test_ring_four_part_work_counters_are_pinned(seed, memo, queries, monkeypatch):
    # Deterministic work of the same staged phase. The memo counts are the
    # indicator calls that outer memo misses make: 3,908/56/16, 4,089/67/18
    # and 4,752/87/17 before the outer memo, with the same misses. Every
    # first-row value is drawn by one generator, re-seeded per variable.
    inst = generators.ring_family(24, 2, 5, seed)
    made, seeded, asked = [], [], []
    init, reseed = random.Random.__init__, random.Random.seed
    probability = VulnerabilityOracle.probability
    monkeypatch.setattr(random.Random, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    monkeypatch.setattr(random.Random, "seed",
                        lambda self, *args: seeded.append(args) or reseed(self, *args))
    monkeypatch.setattr(VulnerabilityOracle, "probability",
                        lambda self, a, *args: asked.append(a) or probability(self, a, *args))
    state, report = solver.run_first_stage(inst, Partition.round_robin(24, 4),
                                           relaxed_config(), seed)
    assert report.indicator_memo == dict(zip(("hits", "misses", "shortcuts"), memo))
    assert len(asked) == queries
    assert len(made) == 2  # the oracle's generator and the first-row one
    draws = [args for args in seeded if args and isinstance(args[0], str)]
    assert len(draws) == len(set(draws)) == len(state.sampled_row1) == 144
