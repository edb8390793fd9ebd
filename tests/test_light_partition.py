import hashlib
import json
import math
import random
import re
from fractions import Fraction

import pytest

from resilient_lll.cli import main as cli_main
from resilient_lll.config import lg, relaxed_config, strict_config
from resilient_lll.errors import InputError
from resilient_lll.generators import random_regular_graph
from resilient_lll.graph import Graph, Partition, per_part_neighbor_counts, save_graph
from resilient_lll.light_partition import (
    base_part_count,
    build_light_partition_instance,
    compute_light_partition_detailed,
    load_threshold,
    verify_resilience_1part,
    witness_threshold,
)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


regular_graph = random_regular_graph


def test_complete_graph_instance_shape():
    g = complete_graph(5)
    inst = build_light_partition_instance(g, defect_const=99)
    assert inst.event_count == 5
    for ev in inst.events:
        assert len(ev.dependent_vars) == 5
    assert inst.d_vars == 4 == g.max_degree


def test_alloc_graph_isomorphic_to_input():
    g = random_graph(30, 0.2, seed=2)
    assert g.max_degree >= 4
    inst = build_light_partition_instance(g, defect_const=99)
    assert inst.alloc_graph.adjacency == g.adjacency


def test_part_domain_size_for_degree_64():
    assert base_part_count(64) == 11  # ceil(64 / 6)
    g = regular_graph(130, 64, seed=1)
    assert g.max_degree == 64
    inst = build_light_partition_instance(g, defect_const=99)
    assert inst.variables[0].domain_size == 11


def test_balanced_grouping_sizes():
    # The light partition groups its base parts through this split.
    mapping = list(Partition.contiguous(11, 4).assignment)
    sizes = [mapping.count(grp) for grp in range(4)]
    assert sizes == [3, 3, 3, 2]


def test_load_threshold_strictly_above_constant():
    # defect_const * lg(delta) integral: threshold must sit one above.
    assert load_threshold(16, 2.0) == 9
    assert load_threshold(64, 99.0) == math.floor(99 * lg(64)) + 1


def test_x_equal_delta_gives_single_part():
    g = regular_graph(24, 6, seed=3)
    report = compute_light_partition_detailed(g, x=6, cfg=relaxed_config(), seed=0)
    part = report.partition
    assert part.part_count == 1
    for v in range(g.node_count):
        assert per_part_neighbor_counts(g, part, v)[0] == g.degree(v)


def test_small_degree_short_circuit():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    report = compute_light_partition_detailed(g, x=2, cfg=relaxed_config(), seed=0)
    assert report.partition.part_count == 1
    assert report.stage_rounds == 0


def test_x_below_lg_delta_rejected():
    g = regular_graph(24, 8, seed=4)
    with pytest.raises(InputError):
        compute_light_partition_detailed(g, x=2, cfg=relaxed_config(), seed=0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, -5, 0, "3", True])
@pytest.mark.parametrize("delta", [3, 6])
def test_x_must_be_a_finite_positive_real(x, delta):
    # Checked before the degree-below-4 short-circuit, so it holds at any Δ.
    g = regular_graph(24, delta, seed=4)
    with pytest.raises(InputError, match=re.escape(f"x = {x!r} is not a finite positive real")):
        compute_light_partition_detailed(g, x, relaxed_config(), seed=0)


@pytest.mark.parametrize("x", ["nan", "inf", "-5"])
def test_cli_partition_rejects_a_bad_x(tmp_path, capsys, x):
    path = tmp_path / "g.edges"
    save_graph(regular_graph(20, 6, seed=1), path)
    rc = cli_main(["partition", "--graph", str(path), f"--x={x}", "--out", "-"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: x = {float(x)!r} is not a finite positive real\n"


def test_partition_contract_at_default_constants():
    # Degree-32 graph, x = lg(delta): part count and per-part loads.
    g = regular_graph(120, 32, seed=5)
    cfg = relaxed_config()
    x = lg(32)
    report = compute_light_partition_detailed(g, x, cfg, seed=9)
    part = report.partition
    assert part.part_count == math.ceil(32 / x)
    bound = cfg.defect_const * lg(32) * math.ceil(x / lg(32))
    for v in range(g.node_count):
        counts = per_part_neighbor_counts(g, part, v)
        assert max(counts) <= bound
    assert report.max_observed_load <= bound


def test_partition_nontrivial_constants_exercises_machinery():
    # Lowered defect constant on a small-degree graph: events are live and
    # the staged machinery must still deliver the per-part bound.
    g = regular_graph(40, 6, seed=6)
    cfg = relaxed_config(defect_const=2.0)
    threshold = load_threshold(6, 2.0)
    inst = build_light_partition_instance(g, 2.0)
    assert not inst.events[0].structurally_false()
    report = compute_light_partition_detailed(g, x=lg(6), cfg=cfg, seed=21)
    for v in range(g.node_count):
        counts = per_part_neighbor_counts(g, report.partition, v)
        # Grouping factor is ceil(x / lg) = 1 here.
        assert max(counts) <= threshold - 1 + 1  # < threshold + grouping slack


def multinomial_tail_oracle(deg, parts, w):
    """Exact Pr[some part count >= w] for deg uniform throws into parts."""
    # Complement via generating polynomial (sum_{k<w} x^k / k!)^parts.
    poly = [Fraction(0)] * (deg + 1)
    for k in range(min(w, deg + 1)):
        poly[k] = Fraction(1, math.factorial(k))
    acc = [Fraction(1)] + [Fraction(0)] * deg
    for _ in range(parts):
        nxt = [Fraction(0)] * (deg + 1)
        for i, a in enumerate(acc):
            if a:
                for j in range(deg + 1 - i):
                    if poly[j]:
                        nxt[i + j] += a * poly[j]
        acc = nxt
    p_all_below = acc[deg] * math.factorial(deg) / Fraction(parts) ** deg
    return 1 - float(p_all_below)


def test_verify_report_matches_multinomial_oracle():
    g = regular_graph(60, 16, seed=7)
    inst = build_light_partition_instance(g, defect_const=2.0)
    cfg = relaxed_config(defect_const=2.0)
    trials = 4000
    report = verify_resilience_1part(inst, cfg, trials=trials, seed=3)
    parts = base_part_count(16)
    w = witness_threshold(load_threshold(16, 2.0))
    for entry in report["events"][:10]:
        v = entry["event"]
        deg = g.degree(v)
        oracle = multinomial_tail_oracle(deg, parts, w)
        sigma = math.sqrt(max(oracle * (1 - oracle), 1e-9) / trials)
        assert abs(entry["estimate"] - oracle) <= 4 * sigma + 1e-9


@pytest.mark.parametrize("n, d, defect_const, digest", [
    (60, 16, 3.2, "262ad02f4e1735636d87032e0dd0ef7360a99ea109e937953fdf8d7bd7bc9629"),
    (40, 8, 2.5, "5dc0cc6289a8fa58e894e4838e4c151a025e60ea160c7ba7bc2989d5d558e019"),
    (30, 6, 2.0, "e22eb7f6bfb0c402325aa83225d1b7e7e62c3c500085012f20f789acef44523d"),
    (30, 6, 99.0, "0633cd1dd1b92824e1d757424a3e98ef81a2f0db7b358de0e75e8cabddf6fe28"),
])
def test_verify_report_is_pinned(n, d, defect_const, digest):
    # SHA-256 of the report's JSON, from when each event's witness count had
    # a loop of its own rather than a ``MaxPartLoad`` at the witness threshold.
    # The first three have estimates strictly between 0 and 1; the last, none.
    inst = build_light_partition_instance(random_regular_graph(n, d, 1), defect_const)
    report = verify_resilience_1part(inst, relaxed_config(defect_const=defect_const),
                                     trials=300, seed=2)
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == digest


def test_verify_zero_witnesses_at_default_constants():
    g = regular_graph(130, 64, seed=8)
    inst = build_light_partition_instance(g, defect_const=99.0)
    report = verify_resilience_1part(inst, strict_config(), trials=2000, seed=1)
    assert report["all_pass"]
    assert all(e["estimate"] == 0.0 for e in report["events"])


def test_verify_isolated_vertex_has_zero_witness_probability():
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    # vertices 5..7 isolated
    inst = build_light_partition_instance(g, defect_const=2.0)
    report = verify_resilience_1part(inst, relaxed_config(), trials=500, seed=0)
    for entry in report["events"]:
        if entry["event"] >= 5:
            assert entry["estimate"] == 0.0 and entry["pass"]


def test_swap_containment_arithmetic():
    # If no part collects w same-part neighbors under the second row, then
    # re-drawing any subset of neighbors moves each per-part count by less
    # than w, so a count reaching the bad threshold t pins at least t - w >= w
    # on the first row alone.
    g = regular_graph(36, 8, seed=10)
    parts = base_part_count(8)
    t = load_threshold(8, 2.0)
    w = witness_threshold(t)
    assert t - w >= w
    rng = random.Random(4)
    for _ in range(80):
        row1 = [rng.randrange(parts) for _ in range(g.node_count)]
        row2 = [rng.randrange(parts) for _ in range(g.node_count)]
        for v in range(g.node_count):
            nbrs = g.neighbors(v)
            row2_max = max(
                (sum(1 for u in nbrs if row2[u] == c) for c in range(parts)),
                default=0,
            )
            if row2_max >= w:
                continue  # witness fired; containment promises nothing
            swap = {u for u in nbrs if rng.random() < 0.5}
            for c in range(parts):
                base = sum(1 for u in nbrs if u not in swap and row1[u] == c)
                swapped = sum(1 for u in swap if row2[u] == c)
                row1_count = sum(1 for u in nbrs if row1[u] == c)
                assert base + swapped < row1_count + w
                if base + swapped >= t:
                    assert row1_count >= t - w >= w
