"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned
here, not configurable; every expected value is either computed by an
independent oracle in this file or checked as a stated inequality.
"""

import json
import math
import time
from unittest import mock

import pytest

from resilient_lll.config import lg, relaxed_config
from resilient_lll.defective import (
    EDGE,
    VERTEX,
    build_split_instance,
    defect_violations,
    edge_split_p_bound,
    halving_iterations,
    inductive_bound,
    iterate_halving,
    vertex_split_p_bound,
)
from resilient_lll.edge_coloring import color_edges, minimal_epsilon
from resilient_lll.errors import CapacityError, ComponentFailure
from resilient_lll.general import event_estimates, resilience_certificate, solve_general
from resilient_lll.generators import (
    circulant_graph,
    gnp_graph,
    random_regular_graph,
    ring_family,
    window_family,
)
from resilient_lll.graph import Partition, per_part_neighbor_counts
from resilient_lll.light_partition import compute_light_partition_detailed
from resilient_lll.misra_gries import proper_coloring_violations
from resilient_lll.model import (
    brute_force_solve,
    check_assignment,
    CountThreshold,
    EventSpec,
    VariableSpec,
    build_instance,
)
from resilient_lll.probability import (
    VulnerabilityOracle,
    event_probability,
)
from resilient_lll import shattering
from resilient_lll.shattering import solve_component
from resilient_lll.solver import Residual, run_first_stage, solve


def announce(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS — {detail}")


def test_criterion_1_oracle_equivalence():
    # 50 instances, <= 12 fair bits each, e*p*(d+1) <= 1; the end-to-end
    # solver and the exhaustive oracle must agree on all 50, within 60 s.
    start = time.perf_counter()
    cfg = relaxed_config()
    shapes = [(4, 1), (5, 1), (6, 1), (4, 2)]  # (events, private bits)
    solved = 0
    for trial in range(50):
        n, m = shapes[trial % len(shapes)]
        inst = ring_family(n, 2, m, seed=trial)
        assert inst.var_count <= 12
        p = 2.0 ** -(3 + m)
        assert math.e * p * (inst.d + 1) <= 1
        ground_truth = brute_force_solve(inst)
        assert ground_truth is not None, "oracle says unsolvable"
        res = solve_general(inst, 1, cfg, seed=trial)
        assert check_assignment(inst, res.assignment).valid
        solved += 1
    elapsed = time.perf_counter() - start
    assert solved == 50
    assert elapsed <= 60
    announce(1, "oracle equivalence", f"50/50 solved and verified in {elapsed:.1f}s")


def test_criterion_2_end_to_end_success_rate():
    # 100 seeds, 200-event degree<=6 instances, relaxed constants: at least
    # 99 valid outputs; any failure must be a residual-phase cap error.
    start = time.perf_counter()
    cfg = relaxed_config()
    valid = 0
    failures = []
    for seed in range(100):
        inst = ring_family(200, 2, 5, seed=seed)
        assert inst.d <= 6
        try:
            res = solve_general(inst, 1, cfg, seed=seed)
        except (ComponentFailure, CapacityError) as exc:
            failures.append((seed, type(exc).__name__))
            continue
        assert check_assignment(inst, res.assignment).valid, (
            f"seed {seed} produced an invalid output silently"
        )
        valid += 1
    elapsed = time.perf_counter() - start
    assert valid >= 99, f"only {valid}/100 valid; failures: {failures}"
    assert elapsed <= 300
    announce(2, "end-to-end success rate",
             f"{valid}/100 valid in {elapsed:.1f}s; failures: {failures or 'none'}")


def test_criterion_3_round_linearity():
    cfg = relaxed_config()
    observed = {}
    post = {}
    for r in (1, 2, 4, 8):
        inst = ring_family(40, 2, 5, seed=17)
        part = Partition.round_robin(40, r)
        state, report = run_first_stage(inst, part, cfg, seed=17)
        observed[r] = report.rounds_used
        result = solve(inst, part, cfg, seed=17)
        post[r] = result.post_resamplings
        assert report.rounds_used == 5 * r + 2
    announce(3, "round linearity",
             f"rounds {observed} == 5r+2; post-stage iterations {post}")


def test_criterion_4_certificate_soundness():
    # 20 instances built to pass the union bound at relaxed constants; a
    # 10^4-sample estimate of any event's vulnerability never exceeds the
    # certificate value plus 3 sigma.
    cfg = relaxed_config()
    outer = 10_000
    checked = 0
    for trial in range(20):
        inst = window_family(10, private_bits=6, seed=trial)
        part = Partition.singleton(inst.event_count)
        cert = resilience_certificate(inst, part, cfg, estimates=event_estimates(inst))
        assert cert.passes, "instance must be constructed to pass the bound"
        oracle = VulnerabilityOracle(inst, part, cfg, seed=trial)
        worst = 0.0
        for a in range(inst.event_count):
            est = oracle.probability(a, {}, mc_samples=outer, force_mc=True)
            sigma = max(est.stderr, 1.0 / outer)
            assert est.value <= cert.value + 3 * sigma, (
                f"trial {trial} event {a}: {est.value} > {cert.value} + 3s"
            )
            worst = max(worst, est.value)
        checked += 1
    assert checked == 20
    announce(4, "certificate soundness",
             f"20/20 instances; worst estimate {worst:.4f} vs certificate "
             f"{cert.value:.4f}")


def test_criterion_5_light_partition_contract():
    g = random_regular_graph(1000, 32, seed=11)
    cfg = relaxed_config()  # defect constant stays at its default 99
    x = lg(32)
    report = compute_light_partition_detailed(g, x, cfg, seed=11)
    part = report.partition
    assert part.part_count == math.ceil(32 / x) == 7
    bound = cfg.defect_const * lg(32)
    violations = 0
    for v in range(g.node_count):
        counts = per_part_neighbor_counts(g, part, v)
        assert sum(counts) == g.degree(v)
        if max(counts) > bound:
            violations += 1
    assert violations == 0
    announce(5, "light partition contract",
             f"7 parts over 1000 nodes; max per-part load "
             f"{report.max_observed_load} <= {bound}")


def test_criterion_6_defective_inductive_bound():
    g = circulant_graph(1100, 1024)
    cfg = relaxed_config()
    q = 2
    k = halving_iterations(1024, q)
    results = {}
    for kind in (VERTEX, EDGE):
        coloring = iterate_halving(g, kind, q, cfg, seed=23)
        assert coloring.color_count == 2 ** k
        for entry in coloring.history:
            i = entry["iteration"]
            bound = inductive_bound(1024, q, i)
            assert entry["max_class_degree"] <= bound, (
                f"{kind} iteration {i}: {entry['max_class_degree']} > {bound}"
            )
        x = 1024 / 2 ** k
        final_bound = x + x / q
        worst = coloring.history[-1]["max_class_degree"]
        assert worst < final_bound
        assert defect_violations(g, coloring) == []
        results[kind] = worst
    announce(6, "defective inductive bound",
             f"{k} iterations; final class degrees {results} < "
             f"{1024 / 2 ** k * (1 + 1 / q)}")


def test_criterion_7_chernoff_envelopes():
    g = circulant_graph(130, 64)
    q = 2
    samples = 100_000
    vertex_bound = math.exp(-64 / (24 * (q * lg(64)) ** 2))
    assert vertex_bound == pytest.approx(vertex_split_p_bound(64, q))
    inst_v = build_split_instance(g, VERTEX, q)
    worst_v = 0.0
    for a in (0, 43, 86):
        est = event_probability(inst_v, a, mc_samples=samples, seed=100 + a)
        assert est.value <= vertex_bound + 3 * est.stderr
        worst_v = max(worst_v, est.value)

    edge_bound = 2 * math.exp(-64 / (38 * (q * lg(64)) ** 2))
    assert edge_bound == pytest.approx(edge_split_p_bound(64, q))
    inst_e = build_split_instance(g, EDGE, q)
    worst_e = 0.0
    for a in (0, 1000, 2000):
        est = event_probability(inst_e, a, mc_samples=samples, seed=200 + a)
        assert est.value <= edge_bound + 3 * est.stderr
        worst_e = max(worst_e, est.value)
    announce(7, "tail-bound envelopes",
             f"vertex {worst_v:.3f} <= {vertex_bound:.3f}; "
             f"edge {worst_e:.3f} <= {edge_bound:.3f} (exact estimates)")


def test_criterion_8_edge_coloring_end_to_end():
    cfg = relaxed_config()
    done = 0
    for trial in range(20):
        if trial % 2 == 0:
            d = 16 + 8 * ((trial // 2) % 7)
            g = random_regular_graph(500, d, seed=trial)
        else:
            g = gnp_graph(500, 0.07, seed=trial)
        delta = g.max_degree
        assert 16 <= delta <= 64, f"generated degree {delta} out of range"
        eps = minimal_epsilon(delta)
        res = color_edges(g, eps, cfg, seed=trial)
        bound = math.ceil((1 + eps) * delta)
        assert res.colors_used <= bound
        # palette inequality verified in exact arithmetic on this run
        assert res.plan.checks["direct_palette"]["holds"]
        # independent properness check: a color set per vertex
        edges = tuple(g.edges())
        colors = [res.colors[e] for e in edges]
        assert proper_coloring_violations(g.node_count, edges, colors) == []
        done += 1
    assert done == 20
    announce(8, "edge coloring end-to-end",
             "20/20 proper colorings within ceil((1+eps)*degree) colors")


def test_criterion_9_determinism():
    cfg = relaxed_config()
    inst = ring_family(60, 2, 5, seed=5)
    part = Partition.round_robin(60, 3)
    blobs = set()
    for _ in range(5):
        result = solve(inst, part, cfg, seed=42)
        blob = json.dumps(
            {
                "assignment": {str(k): v for k, v in sorted(result.assignment.items())},
                "fates": {str(k): list(v) for k, v in
                          sorted(result.stage.per_event_fate.items())},
            },
            sort_keys=True,
        ).encode("utf-8")
        blobs.add(blob)
    assert len(blobs) == 1
    announce(9, "determinism", "5 reruns byte-identical (assignment + fate map)")


def chain_component(k, arity):
    n_vars = k * (arity - 1) + 1
    vs = [VariableSpec.fair_bit()] * n_vars
    events = []
    for i in range(k):
        start = i * (arity - 1)
        deps = tuple(range(start, start + arity))
        events.append(EventSpec(i, deps, CountThreshold(
            groups=(deps,), threshold=arity, ref_value=1)))
    return build_instance(vs, events)


def test_criterion_10_resampling_behavior():
    total_resamples = 0
    total_events = 0
    solved = 0
    for trial in range(100):
        inst = chain_component(5, arity=5)
        p = 2.0 ** -5
        assert math.e * p * (inst.d + 1) <= 0.9
        residual = Residual(
            instance=inst,
            fixed_values={},
            components=[tuple(range(inst.event_count))],
            satisfied_fixed=(),
        )
        events = residual.components[0]
        with mock.patch.object(shattering, "EXHAUSTIVE_CAP", 0):  # resample
            assignment, stats = solve_component(residual, events, seed=trial)
        assert not any(ev.evaluate(assignment) for ev in inst.events)
        solved += 1
        total_resamples += stats["resamplings"]
        total_events += len(events)
    mean = total_resamples / total_events
    assert solved == 100
    assert mean <= 11
    announce(10, "resampling behavior",
             f"100/100 within cap; mean resamplings per event {mean:.3f} <= 11")
