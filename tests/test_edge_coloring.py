import functools
import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from resilient_lll.config import relaxed_config
from resilient_lll.defective import EDGE, halving_iterations, iterate_halving
from resilient_lll.edge_coloring import (
    ReductionPlan,
    color_edges,
    minimal_epsilon,
    plan_reduction,
    split_palette,
    verify_edge_coloring,
)
from resilient_lll.errors import ContractViolation, InputError, ReductionViolation
from resilient_lll.generators import circulant_graph, gnp_graph, random_regular_graph
from resilient_lll import misra_gries
from resilient_lll.graph import Graph
from resilient_lll.misra_gries import (
    misra_gries_edge_coloring,
    proper_coloring_violations,
)
from resilient_lll.seeds import derive_seed, rng_for

from _families import (
    cycle_sum_graph,
    degrees,
    edge_lists,
    halving_graphs,
    multigraph_edge_lists,
)
from _reference_edge_loops import color_edges_bucketed as reference_bucketed
from _reference_edge_loops import misra_gries_edge_coloring as reference_colorer


# --- palette arithmetic -----------------------------------------------------


def test_balanced_palette_split_sizes():
    split = split_palette(23, 4)
    assert [end - start for start, end in map(split.range, range(4))] == [6, 6, 6, 5]
    assert split.range(0) == (0, 6) and split.range(3) == (18, 23)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 400), st.data())
def test_palette_ranges_match_stored_contiguous_ranges(total, data):
    # Ranges are computed on read; they must equal the contiguous blocks,
    # larger first, that a stored tuple would hold.
    count = data.draw(st.integers(1, total))
    base, extra = divmod(total, count)
    stored, start = [], 0
    for i in range(count):
        width = base + (1 if i < extra else 0)
        stored.append((start, start + width))
        start += width
    split = split_palette(total, count)
    assert [split.range(i) for i in range(count)] == stored
    with pytest.raises(IndexError):
        split.range(count)
    with pytest.raises(IndexError):
        split.range(-1)


def test_palette_chain_frozen_exact_values():
    # The displayed chain at q = 16, c = 1, evaluated in exact rationals:
    # c q^2 lg^4 q + c q^1.5 lg^4 q - 1 >= (1 + q^-0.5 / 2)(c q^2 lg^4 q + c q lg^4 q)
    q = Fraction(16)
    lg4 = Fraction(4) ** 4  # lg(16)^4
    lhs = q * q * lg4 + Fraction(64) * lg4 - 1      # q^1.5 = 64 at q = 16
    rhs = (1 + Fraction(1, 8)) * (q * q * lg4 + q * lg4)
    assert lhs == 81919 and rhs == 78336
    assert lhs >= rhs


def test_plan_direct_mode_at_desk_degrees():
    for delta in (16, 40, 64):
        eps = minimal_epsilon(delta)
        plan = plan_reduction(delta, eps)
        assert plan.mode == "direct"
        assert plan.palette.total_colors == delta + 1
        assert plan.checks["direct_palette"]["holds"]
        assert plan.to_dict()["implied_c"] == 1.0


def test_plan_trivially_large_epsilon():
    plan = plan_reduction(10, 1.0)
    assert plan.palette.bucket_count >= 1
    last = plan.palette.range(plan.palette.bucket_count - 1)
    assert last[1] == plan.palette.total_colors == 20


def test_plan_bucketed_mode_at_astronomic_degree():
    # The coupled algebra only opens far beyond constructible graphs; the
    # plan itself is pure arithmetic and must validate exactly there.
    delta = 2 ** 40
    plan = plan_reduction(delta, 0.25)
    assert plan.mode == "bucketed"
    assert plan.iterations >= 1
    assert plan.checks["palette_chain"]["holds"]
    assert plan.checks["bucket_range"]["holds"]
    assert plan.palette.bucket_count == 2 ** plan.iterations
    assert plan.to_dict()["implied_c"] == plan.implied_c > 0
    # every bucket range covers (1 + eps/2) * delta'; the last is the smallest
    start, end = plan.palette.range(plan.palette.bucket_count - 1)
    assert end - start >= (1 + plan.eps_prime) * plan.delta_prime


def test_plan_rejects_hopeless_parameters():
    with pytest.raises(InputError):
        plan_reduction(100, 0.0)
    with pytest.raises(InputError):
        plan_reduction(100, -0.2)
    with pytest.raises(InputError):
        plan_reduction(0, 0.5)
    # Any positive eps survives via the ceiling: palette delta + 1.
    plan = plan_reduction(100, 0.001)
    assert plan.mode == "direct" and plan.palette.total_colors == 101


# --- misra-gries ------------------------------------------------------------


def test_single_edge_one_color():
    colors = misra_gries_edge_coloring(2, [(0, 1)], [1, 1])
    assert colors == [0]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fan_rotation_proper_on_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randrange(2, 28)
    g = gnp_graph(n, rng.random(), seed)
    edges = list(g.edges())
    colors = misra_gries_edge_coloring(n, edges, degrees(n, edges))
    assert proper_coloring_violations(n, edges, colors) == []
    if edges:
        assert max(colors) <= g.max_degree  # at most delta + 1 colors


def benchmark_op_buckets(seed=0):
    """(n, edges) of each Misra-Gries call in one op of the
    edgecolor-bucketed benchmark: circulant_graph(256, 128) relabelled by
    the op seed and halved five times at q = 2 into 32 4-regular buckets,
    as ``color_edges`` builds them."""
    g = circulant_graph(256, 128)
    label = list(range(256))
    rng_for(seed, "relabel").shuffle(label)
    g = Graph(256, [(label[u], label[v]) for u, v in g.edges()])
    halving = iterate_halving(g, EDGE, 2.0, relaxed_config(), derive_seed(seed, "buckets"))
    edges = g.edges()
    buckets = [(256, [edges[i] for i in members]) for _, members, _ in halving.classes]
    assert len(buckets) == 32
    return buckets


def with_benchmark_buckets(test):
    """Give ``test`` each bucket of one benchmark op as an explicit example
    with extra = 2: the palette Δ + 1 + 2 = 7 is the width of the bucket's
    palette range in that op."""
    for case in benchmark_op_buckets():
        test = example(case, 2)(test)
    return test


@settings(max_examples=400, deadline=None)
@with_benchmark_buckets
@given(edge_lists(), st.integers(1, 3))
def test_fan_rotation_matches_reference_colorer(case, extra):
    # A wider palette colors alike: the smallest free color is never
    # above the largest degree.
    n, edges = case
    degree = degrees(n, edges)
    colors = misra_gries_edge_coloring(n, edges, degree)
    assert colors == reference_colorer(n, edges)
    palette = max(degree, default=0) + 1 + extra
    assert colors == reference_colorer(n, edges, palette)


@pytest.mark.parametrize("make, args", [
    (circulant_graph, (65, 20)),
    (gnp_graph, (90, 0.3, 4)),
    (random_regular_graph, (60, 7, 2)),
    (cycle_sum_graph, (80, 12, 5)),
], ids=["circulant-65-20", "gnp-90", "regular-60-7", "cycle-sum-80"])
def test_fan_rotation_matches_reference_colorer_on_larger_graphs(make, args):
    g = make(*args)
    edges = list(g.edges())
    degree = degrees(g.node_count, edges)
    assert misra_gries_edge_coloring(g.node_count, edges, degree) == reference_colorer(
        g.node_count, edges)


@pytest.mark.parametrize("n, edges, degree, message", [
    (2, [(0, 5)], [1, 1], "outside 0..1"),
    (2, [(-1, 0)], [1, 1], "outside 0..1"),
    (3, [(0, 1), (1, 3)], [1, 2, 1], "outside 0..2"),
    (2, [(0, 1)], [1, 1, 0], "3 entries for 2 vertices"),
    (3, [(0, 1)], [1, 1], "2 entries for 3 vertices"),
], ids=["endpoint-n", "endpoint-negative", "second-edge", "degree-long", "degree-short"])
def test_inputs_outside_the_domain_are_input_errors(n, edges, degree, message):
    with pytest.raises(InputError, match=message):
        misra_gries_edge_coloring(n, edges, degree)


def test_parallel_edges_are_an_input_error_naming_the_pair():
    # A triangle with one doubled edge: the fan at 0 cannot be rotated.
    edges = [(0, 1), (0, 2), (1, 2), (0, 1)]
    with pytest.raises(InputError, match=r"parallel edges join \(0, 1\)"):
        misra_gries_edge_coloring(3, edges, degrees(3, edges))


@settings(max_examples=300, deadline=None)
@given(multigraph_edge_lists())
def test_multigraphs_color_properly_or_name_a_repeated_pair(case):
    n, edges = case
    try:
        colors = misra_gries_edge_coloring(n, edges, degrees(n, edges))
    except InputError as exc:
        pairs = [tuple(sorted(e)) for e in edges]
        assert any(f"join {p}:" in str(exc) and pairs.count(p) > 1 for p in pairs)
    else:
        assert proper_coloring_violations(n, edges, colors) == []
        assert max(colors, default=0) <= max(degrees(n, edges), default=0)


SCAN = """\
            for i, x in enumerate(fan):
                if at[x][d] is None:
                    w_idx = i
                    break
"""

LINK_CHECK = """\
            if w_idx is not None and any(
                    at[fan[i - 1]][color[fan_edges[i]]] is not None
                    for i in range(1, w_idx + 1)):
                raise RuntimeError('broken fan link')
"""


@functools.cache
def colorer_raising_on_a_broken_link():
    """A copy of ``misra_gries_edge_coloring`` that raises RuntimeError
    after its rotatable-prefix scan if any fan link up to the chosen w is
    broken, that is, if some fan edge's color is taken at the previous fan
    vertex."""
    source = inspect.getsource(misra_gries)
    assert SCAN in source
    namespace = {"__name__": "resilient_lll.broken_link_probe",
                 "__package__": "resilient_lll"}
    exec(source.replace(SCAN, SCAN + LINK_CHECK), namespace)
    return namespace["misra_gries_edge_coloring"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(edge_lists(), multigraph_edge_lists()))
def test_no_fan_link_breaks_before_the_first_vertex_with_d_free(case):
    # The argument above the library's scan: the inversion leaves every fan
    # link up to the first vertex with d free intact, so the scan needs no
    # broken-link check. The probe checks each of those links on every
    # example and otherwise colors exactly as the library.
    n, edges = case
    degree = degrees(n, edges)
    probe = colorer_raising_on_a_broken_link()
    try:
        colors = probe(n, edges, degree)
    except InputError:  # a multigraph's repeated pair, as in the library
        with pytest.raises(InputError):
            misra_gries_edge_coloring(n, edges, degree)
    else:
        assert colors == misra_gries_edge_coloring(n, edges, degree)


def test_an_understated_degree_is_an_input_error_naming_the_vertex():
    # Degree 1 everywhere gives a 2-color palette, but vertex 1 has 3 edges.
    with pytest.raises(InputError, match=r"degree\[1\] = 1, but vertex 1 has 3 edges"):
        misra_gries_edge_coloring(4, [(0, 1), (1, 2), (1, 3)], [1, 1, 1, 1])


def test_self_loop_rejected():
    with pytest.raises(InputError, match="self-loops"):
        misra_gries_edge_coloring(2, [(0, 1), (1, 1)], [1, 3])


# --- end-to-end -------------------------------------------------------------


def test_color_single_edge():
    g = Graph(2, [(0, 1)])
    res = color_edges(g, 1.0, relaxed_config(), seed=0)
    assert res.colors_used == 1
    assert res.verification["proper"]


def test_color_edges_direct_regime_meets_bound():
    cfg = relaxed_config()
    for seed in range(5):
        g = gnp_graph(60, 0.25, seed)
        eps = minimal_epsilon(g.max_degree)
        res = color_edges(g, eps, cfg, seed=seed)
        bound = math.ceil((1 + eps) * g.max_degree)
        assert res.colors_used <= bound
        assert res.verification["proper"] and res.verification["within_palette"]


def test_color_edges_bucketed_path_with_injected_plan():
    # Decouple bucket count from eps to drive the bucketed machinery at a
    # reachable degree: 32-regular graph, 8 buckets, palette 56 = (1+0.75)*32.
    g = circulant_graph(80, 32)
    eps, q, k = 0.75, 2.0, 3
    total = math.ceil((1 + eps) * 32)
    plan = ReductionPlan(
        mode="bucketed",
        epsilon=eps,
        q=q,
        iterations=k,
        x=32 / 2 ** k,
        delta_prime=32 / 2 ** k * (1 + 1 / q),
        eps_prime=eps / 2,
        palette=split_palette(total, 2 ** k),
        implied_c=1.0,
    )
    res = color_edges(g, eps, relaxed_config(), seed=3, plan=plan)
    assert res.plan.mode == "bucketed"
    assert len(res.bucket_degrees) == 8
    assert res.verification["proper"] and res.verification["within_palette"]
    assert res.colors_used <= total
    # palette containment per bucket: each edge's color inside its range
    # (recovered from the verification having passed the global bound and
    # each bucket using only range colors by construction)
    for label, deg in enumerate(res.bucket_degrees):
        start, end = plan.palette.range(label)
        assert deg + 1 <= end - start
    # each bucket degree equals a recount of the edges colored in its range
    ends = [plan.palette.range(label)[1] for label in range(2 ** k)]
    load = {}
    for (u, v), c in res.colors.items():
        label = next(i for i, end in enumerate(ends) if c < end)
        for w in (u, v):
            load[label, w] = load.get((label, w), 0) + 1
    assert res.bucket_degrees == [
        max((n for (b, _), n in load.items() if b == label), default=0)
        for label in range(2 ** k)
    ]


def bucketed_plan(delta, eps, q):
    """An explicit bucketed plan with one bucket per halving class, sharing
    a palette of ceil((1 + eps) * delta) colors."""
    k = halving_iterations(delta, q)
    x = delta / 2 ** k
    return ReductionPlan(
        mode="bucketed", epsilon=eps, q=q, iterations=k, x=x,
        delta_prime=x * (1 + 1 / q), eps_prime=eps / 2,
        palette=split_palette(math.ceil((1 + eps) * delta), 2 ** k), implied_c=1.0,
    )


def bucketed_outcome(g, plan, seed):
    """The library's colors in edge order and bucket degrees, or the type
    and message of the check it fails."""
    try:
        res = color_edges(g, plan.epsilon, relaxed_config(), seed, plan=plan)
    except (ContractViolation, InputError, ReductionViolation) as exc:
        return type(exc).__name__, str(exc)
    return [res.colors[e] for e in g.edges()], res.bucket_degrees


def reference_outcome(g, plan, seed):
    try:
        return reference_bucketed(g, plan, relaxed_config(), seed)
    except (ContractViolation, InputError, ReductionViolation) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=150, deadline=None)
@given(halving_graphs(), st.sampled_from([1, 1.5, 2]), st.integers(0, 10 ** 6))
def test_bucketed_colors_match_reference_loop(g, q, seed):
    assume(g.edges())
    plan = bucketed_plan(g.max_degree, 0.75, q)
    assert bucketed_outcome(g, plan, seed) == reference_outcome(g, plan, seed)


@pytest.mark.parametrize("make, args", [
    (circulant_graph, (130, 64)),
    (gnp_graph, (120, 0.5, 6)),
], ids=["circulant-130-64", "gnp-120"])
def test_bucketed_colors_match_reference_loop_on_larger_graphs(make, args):
    g = make(*args)
    plan = bucketed_plan(g.max_degree, 0.75, 2)
    ours = bucketed_outcome(g, plan, 4)
    assert len(ours[1]) >= 4
    assert ours == reference_outcome(g, plan, 4)


def test_injected_plan_with_too_small_ranges_fails_loudly():
    g = circulant_graph(40, 16)
    plan = ReductionPlan(
        mode="bucketed", epsilon=0.2, q=2.0, iterations=2,
        x=4.0, delta_prime=6.0, eps_prime=0.1,
        palette=split_palette(18, 4), implied_c=1.0,
    )
    with pytest.raises(ReductionViolation):
        color_edges(g, 0.2, relaxed_config(), seed=1, plan=plan)


def test_verify_reports_conflicts():
    g = Graph(3, [(0, 1), (1, 2)])
    bad = {(0, 1): 0, (1, 2): 0}
    report = verify_edge_coloring(g, bad, palette_bound=2)
    assert not report["proper"]
    assert len(report["violations"]) == 1
    good = {(0, 1): 0, (1, 2): 1}
    assert verify_edge_coloring(g, good, palette_bound=2)["proper"]


def test_verify_rejects_uncolored_edges():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match=r"\(1, 2\)"):
        verify_edge_coloring(g, {(0, 1): 0, (1, 2): None}, palette_bound=2)
    with pytest.raises(InputError, match=r"\(1, 2\)"):
        verify_edge_coloring(g, {(0, 1): 0}, palette_bound=2)


@pytest.mark.parametrize("bad", [0.5, True, "a", 1.0])
def test_verify_rejects_a_color_that_is_not_an_int(bad):
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match=rf"edge \(1, 2\) has color {bad!r}, not an int"):
        verify_edge_coloring(g, {(0, 1): 0, (1, 2): bad}, palette_bound=2)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_verify_rejects_a_non_int_color_equal_to_an_earlier_int(bad):
    # True == 1 == 1.0, so the set of distinct colors holds only the int.
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(InputError, match=rf"edge \(2, 3\) has color {bad!r}, not an int"):
        verify_edge_coloring(g, {(0, 1): 1, (2, 3): bad}, palette_bound=3)


def quadratic_violations(n, edges, colors):
    """Reference: every pair of incident edges, by vertex."""
    by_vertex = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        by_vertex[u].append(idx)
        by_vertex[v].append(idx)
    bad = []
    for v in range(n):
        incident = by_vertex[v]
        for i, e1 in enumerate(incident):
            for e2 in incident[i + 1:]:
                if colors[e1] is not None and colors[e1] == colors[e2]:
                    bad.append((v, e1, e2))
    return bad


@st.composite
def colored_edge_lists(draw):
    """A small edge list (repeats allowed) with a coloring that mixes
    None, random colors and planted clashes."""
    n = draw(st.integers(2, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=40))
    colors = draw(st.lists(st.one_of(st.none(), st.integers(0, 5)),
                           min_size=len(edges), max_size=len(edges)))
    for _ in range(draw(st.integers(0, 3)) if edges else 0):
        a = draw(st.integers(0, len(edges) - 1))
        b = draw(st.integers(0, len(edges) - 1))
        if set(edges[a]) & set(edges[b]):
            colors[b] = colors[a] if colors[a] is not None else 0
            colors[a] = colors[b]
    return n, edges, colors


@settings(max_examples=300, deadline=None)
@given(colored_edge_lists())
def test_proper_coloring_violations_matches_quadratic_reference(case):
    n, edges, colors = case
    assert proper_coloring_violations(n, edges, colors) == \
        quadratic_violations(n, edges, colors)


def test_verify_matches_pairwise_scan_on_random_colorings():
    rng = random.Random(4)
    g = gnp_graph(25, 0.3, seed=9)
    edges = list(g.edges())
    coloring = {e: rng.randrange(4) for e in edges}
    report = verify_edge_coloring(g, coloring, palette_bound=4)
    expected = set()
    for v in range(g.node_count):
        incident = [e for e in edges if v in e]
        for i, e1 in enumerate(incident):
            for e2 in incident[i + 1:]:
                if coloring[e1] == coloring[e2]:
                    expected.add((v, tuple(sorted((e1, e2)))))
    got = {
        (viol["vertex"], tuple(sorted((tuple(viol["edges"][0]), tuple(viol["edges"][1])))))
        for viol in report["violations"]
    }
    assert got == expected


def test_bucket_independence_disjoint_ranges():
    split = split_palette(56, 8)
    seen = set()
    for start, end in map(split.range, range(split.bucket_count)):
        block = set(range(start, end))
        assert not block & seen
        seen |= block
    assert seen == set(range(56))


def test_determinism():
    g = gnp_graph(40, 0.2, seed=12)
    cfg = relaxed_config()
    eps = minimal_epsilon(g.max_degree)
    a = color_edges(g, eps, cfg, seed=5)
    b = color_edges(g, eps, cfg, seed=5)
    assert a.colors == b.colors
