import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from resilient_lll import defective
from resilient_lll.config import lg, relaxed_config, strict_config
from resilient_lll.defective import (
    EDGE,
    VERTEX,
    DefectiveColoring,
    balanced_edge_split,
    balanced_vertex_split,
    build_split_instance,
    defect_violations,
    edge_split_p_bound,
    halving_iterations,
    inductive_bound,
    iterate_halving,
    iteration_floor,
    split_once,
    split_threshold,
    vertex_split_p_bound,
)
from resilient_lll.errors import ContractViolation, InputError
from resilient_lll.generators import circulant_graph, gnp_graph, random_regular_graph
from resilient_lll.graph import Graph
from resilient_lll.model import instance_to_dict

from _families import cycle_sum_graph, degrees, edge_lists, halving_graphs
from _reference_edge_loops import balanced_edge_split as reference_edge_split
from _reference_edge_loops import build_split_instance as reference_split_instance
from _reference_edge_loops import iterate_halving as reference_halving


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# --- parameter arithmetic ---------------------------------------------------


def test_split_threshold_formula_on_k4():
    # K4 has degree 3; the threshold follows the instantiated formula.
    g = complete_graph(4)
    expected = 3 / 2 + 3 / (4 * 1 * lg(3))
    assert split_threshold(g.max_degree, 1) == pytest.approx(expected)


def test_iteration_counts():
    assert halving_iterations(1024, 2) == 8     # lg(1024) - lg(4)
    assert halving_iterations(16, 1) == 4       # lg floor clamps to q^2 = 1
    assert halving_iterations(2, 4) == 0
    assert iteration_floor(2) == 4


def test_inductive_chain_step_exact_rational():
    # Splitting at the class bound keeps the chain closed:
    # D_i/2 + D_i/(4q lg) <= delta/2^i + delta*i/(2^i q lg), at
    # delta=1024, q=2, i=3, in exact arithmetic.
    delta, q, i, L = 1024, 2, 3, 10
    d_i = Fraction(delta, 2 ** (i - 1)) + Fraction(delta * (i - 1),
                                                   2 ** (i - 1) * q * L)
    lhs = d_i / 2 + d_i / (4 * q * L)
    rhs = Fraction(delta, 2 ** i) + Fraction(delta * i, 2 ** i * q * L)
    assert lhs <= rhs
    assert float(d_i) == pytest.approx(inductive_bound(delta, q, i - 1))
    assert float(rhs) == pytest.approx(inductive_bound(delta, q, i))


def test_inductive_degree_stays_above_iteration_floor():
    for delta, q in ((1024, 2), (256, 2), (64, 1)):
        k = halving_iterations(delta, q)
        for i in range(1, k + 1):
            assert inductive_bound(delta, q, i - 1) >= 2 * iteration_floor(q)


# --- instance construction --------------------------------------------------


def test_vertex_instance_structure():
    g = random_regular_graph(30, 6, seed=1)
    inst = build_split_instance(g, VERTEX, q=1)
    assert inst.d_vars == 6 == g.max_degree
    assert inst.alloc_graph.adjacency == g.adjacency
    assert inst.d < 2 * g.max_degree ** 2


def test_edge_instance_structure():
    g = random_regular_graph(16, 4, seed=2)
    inst = build_split_instance(g, EDGE, q=1)
    # Allocation degree is the line-graph degree, below the 2*max_degree - 1
    # envelope; dependency degree stays below 4*max_degree^2.
    line_degree = max(
        g.degree(u) + g.degree(v) - 2 for u, v in g.edges()
    )
    assert inst.d_vars == line_degree
    assert inst.d_vars <= 2 * g.max_degree - 1
    assert inst.d < 4 * g.max_degree ** 2


@settings(max_examples=300, deadline=None)
@given(edge_lists(), st.sampled_from((VERTEX, EDGE)), st.sampled_from((1, 1.5, 2)))
@example((6, [(0, 1), (1, 2), (0, 2), (2, 3)]), VERTEX, 1)  # 4 and 5 isolated
@example((6, [(0, 1), (1, 2), (0, 2), (2, 3)]), EDGE, 1.5)
def test_split_instance_matches_reference_builder(case, kind, q):
    # One loop over per-object groups builds both kinds exactly as the two
    # per-kind loops did, isolated vertices included.
    g = Graph(*case)
    if g.max_degree < 2:
        for build in (build_split_instance, reference_split_instance):
            with pytest.raises(InputError, match="degree below 2"):
                build(g, kind, q)
        return
    assert instance_to_dict(build_split_instance(g, kind, q)) == instance_to_dict(
        reference_split_instance(g, kind, q))


def test_instance_rejects_bad_q():
    g = complete_graph(4)
    with pytest.raises(InputError):
        build_split_instance(g, VERTEX, q=0.5)


def test_chernoff_envelopes_hold_at_moderate_degree():
    # The sampled bad-event rate must sit below the analytic envelope
    # (checked as an inequality; the envelope is loose at small degree).
    from resilient_lll.probability import event_probability

    g = circulant_graph(40, 16)
    q = 2
    inst = build_split_instance(g, VERTEX, q)
    est = event_probability(inst, 0, mc_samples=4000, seed=5)
    bound = vertex_split_p_bound(16, q)
    assert est.value <= bound + 3 * est.stderr

    inst_e = build_split_instance(g, EDGE, q)
    est_e = event_probability(inst_e, 0, mc_samples=2000, seed=6)
    bound_e = edge_split_p_bound(16, q)
    assert est_e.value <= bound_e + 3 * est_e.stderr


def test_random_split_same_color_mean_is_half_degree():
    g = random_regular_graph(40, 8, seed=3)
    rng = random.Random(7)
    trials = 2000
    total = 0
    for _ in range(trials):
        bits = [rng.randrange(2) for _ in range(g.node_count)]
        total += sum(1 for w in g.neighbors(0) if bits[w] == bits[0])
    mean = total / trials
    mu = g.degree(0) / 2
    sigma = math.sqrt(g.degree(0)) / 2 / math.sqrt(trials)
    assert abs(mean - mu) <= 3 * sigma


# --- balanced splits --------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_balanced_vertex_split_guarantee(seed):
    g = gnp_graph(30, 0.2, seed % 997)
    adjacency = [list(g.neighbors(v)) for v in range(g.node_count)]
    bits = balanced_vertex_split(adjacency, seed)
    for v in range(g.node_count):
        same = sum(1 for w in adjacency[v] if bits[w] == bits[v])
        assert same <= len(adjacency[v]) // 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_balanced_edge_split_guarantee(seed):
    g = gnp_graph(24, 0.25, seed % 991)
    edges = list(g.edges())
    degree = [g.degree(v) for v in range(g.node_count)]
    bits = balanced_edge_split(g.node_count, edges, degree)[0]
    counts = {}
    for (u, v), c in zip(edges, bits):
        counts[(u, c)] = counts.get((u, c), 0) + 1
        counts[(v, c)] = counts.get((v, c), 0) + 1
    for v in range(g.node_count):
        cap = (g.degree(v) + 1) // 2
        assert counts.get((v, 0), 0) <= cap
        assert counts.get((v, 1), 0) <= cap


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_balanced_edge_split_matches_reference_walk(case):
    n, edges = case
    assert balanced_edge_split(n, edges, degrees(n, edges))[0] == reference_edge_split(
        n, edges, 0)


@pytest.mark.parametrize("make, args", [
    (circulant_graph, (65, 20)),
    (gnp_graph, (90, 0.3, 4)),
    (random_regular_graph, (60, 7, 2)),
    (cycle_sum_graph, (80, 12, 5)),
], ids=["circulant-65-20", "gnp-90", "regular-60-7", "cycle-sum-80"])
def test_balanced_edge_split_matches_reference_walk_on_larger_graphs(make, args):
    g = make(*args)
    edges = list(g.edges())
    degree = [g.degree(v) for v in range(g.node_count)]
    assert balanced_edge_split(g.node_count, edges, degree)[0] == reference_edge_split(
        g.node_count, edges, 0)


def recount_ones(n, edges, colors):
    ones = [0] * n
    for (u, v), c in zip(edges, colors):
        ones[u] += c
        ones[v] += c
    return ones


def over_cap(n, edges, degree, colors):
    """Vertices with more than ceil(deg/2) incident edges of one color."""
    ones = recount_ones(n, edges, colors)
    cap = [(d + 1) // 2 for d in degree]
    return [v for v in range(n) if max(ones[v], degree[v] - ones[v]) > cap[v]]


def odd_seams(n, edges, degree):
    """Per component whose degrees are all even and whose edge count is odd,
    its minimum-(degree, id) vertex, where the split's walk starts."""
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen = [False] * n
    seams = []
    for root in range(n):
        if seen[root] or not degree[root]:
            continue
        seen[root] = True
        component, stack = [], [root]
        while stack:
            v = stack.pop()
            component.append(v)
            for w in adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        if (sum(degree[v] for v in component) // 2) % 2 and not any(
                degree[v] % 2 for v in component):
            seams.append(min(component, key=lambda v: (degree[v], v)))
    return sorted(seams)


def assert_only_odd_seams_over_cap(n, edges, degree, colors):
    """The split's one exception: the vertices over ceil(deg/2) are exactly
    the odd seams, each with deg/2 + 1 edges of color 0."""
    seams = odd_seams(n, edges, degree)
    assert over_cap(n, edges, degree, colors) == seams
    ones = recount_ones(n, edges, colors)
    assert [degree[v] - ones[v] for v in seams] == [degree[v] // 2 + 1 for v in seams]


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_edge_split_ones_match_a_recount_and_only_odd_seams_are_over_cap(case):
    # About one case in five here has a component with all degrees even
    # and an odd edge count (86 of 400 when last counted).
    n, edges = case
    degree = degrees(n, edges)
    colors, ones = balanced_edge_split(n, edges, degree)
    assert ones == recount_ones(n, edges, colors)
    assert_only_odd_seams_over_cap(n, edges, degree, colors)


@pytest.mark.parametrize("n, edges, seams", [
    (3, [(0, 1), (1, 2), (0, 2)], 1),
    (10, [(i, (i + 1) % 5) for i in range(5)]
     + [(5 + i, 5 + (i + 1) % 5) for i in range(5)], 2),
    # A star and a path (odd-degree vertices, walked from the hub) beside
    # a triangle, whose odd circuit has no hub edge.
    (10, [(0, 1), (0, 2), (0, 3), (4, 5), (5, 6), (7, 8), (8, 9), (7, 9)], 1),
], ids=["triangle", "two-5-cycles", "odd-degrees-and-a-triangle"])
def test_edge_split_odd_seams_alone_are_over_cap(n, edges, seams):
    # An odd cycle has no balanced two-coloring: each odd circuit without a
    # hub edge leaves its start one edge over its cap, and the split counts
    # that start's color-1 edges one short of deg/2.
    degree = degrees(n, edges)
    colors, ones = balanced_edge_split(n, edges, degree)
    assert len(odd_seams(n, edges, degree)) == seams
    assert_only_odd_seams_over_cap(n, edges, degree, colors)
    assert ones == recount_ones(n, edges, colors)
    assert colors == reference_edge_split(n, edges, 0)


@st.composite
def edge_lists_with_odd_cycles(draw):
    """``edge_lists()`` with up to two disjoint 3-, 5- or 7-cycles appended
    on new vertices: components with all degrees even and an odd edge
    count."""
    n, edges = draw(edge_lists())
    edges = list(edges)
    for length in draw(st.lists(st.sampled_from([3, 5, 7]), max_size=2)):
        edges += [(n + i, n + i + 1) for i in range(length - 1)] + [(n, n + length - 1)]
        n += length
    return n, edges


@settings(max_examples=400, deadline=None)
@given(edge_lists_with_odd_cycles())
def test_balanced_edge_split_matches_reference_split_and_recount(case):
    # The reference is the old walk followed by the old repair pass, with
    # every count recounted from its colors; about three cases in eight
    # here have an odd seam (149 of 400 when last counted).
    n, edges = case
    colors = reference_edge_split(n, edges, 0)
    assert balanced_edge_split(n, edges, degrees(n, edges)) == (
        colors, recount_ones(n, edges, colors))


def dict_loads(edges, labels):
    """Reference recount of (vertex, label) loads in a dict."""
    counts = {}
    for (u, v), label in zip(edges, labels):
        counts[(u, label)] = counts.get((u, label), 0) + 1
        counts[(v, label)] = counts.get((v, label), 0) + 1
    return counts


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 9), st.integers(1, 6))
def test_edge_load_counts_match_dict_recount(seed, label_count, bound):
    rng = random.Random(seed)
    g = gnp_graph(rng.randrange(2, 40), rng.random(), seed)
    edges = g.edges()
    try:
        halved = iterate_halving(g, EDGE, rng.choice([1, 1.5, 2]), relaxed_config(),
                                 seed)
    except InputError as exc:
        # A dense odd component can admit no split within the bound: K7's
        # 21 edges exceed two colors of at most 3 edges per vertex.
        assert "split contract's one exception" in str(exc)
    except ContractViolation as exc:
        assert "exceeds inductive bound" in str(exc)
    else:
        if halved.history:
            counts = dict_loads(edges, halved.colors)
            assert halved.history[-1]["max_class_degree"] == max(counts.values())
    labels = tuple(rng.randrange(label_count) for _ in edges)
    counts = dict_loads(edges, labels)
    coloring = DefectiveColoring(EDGE, labels, label_count, 1.0, 1.0, bound,
                                 edges=edges)
    assert defect_violations(g, coloring) == [
        {"vertex": v, "color": c, "count": count}
        for (v, c), count in sorted(counts.items()) if count >= bound
    ]


def test_split_once_vertex_contract_32_regular():
    g = random_regular_graph(80, 32, seed=4)
    coloring = split_once(g, VERTEX, q=1, cfg=relaxed_config(), seed=11)
    assert coloring.color_count == 2
    assert coloring.defect_bound == pytest.approx(16 + 32 / (4 * lg(32)))
    assert defect_violations(g, coloring) == []


def test_split_once_edge_contract():
    g = random_regular_graph(48, 16, seed=5)
    coloring = split_once(g, EDGE, q=1, cfg=relaxed_config(), seed=12)
    assert defect_violations(g, coloring) == []
    assert len(coloring.colors) == g.edge_count()


@pytest.mark.parametrize("n, k", [(3, 2), (5, 2), (7, 2), (7, 6), (11, 10)])
def test_split_once_edge_kind_returns_with_the_seam_of_an_odd_regular_graph(n, k):
    # A connected k-regular graph with k even and an odd edge count has no
    # split below the bound; the only vertex over it is the seam, vertex 0.
    g = circulant_graph(n, k)
    coloring = split_once(g, EDGE, 1, relaxed_config(), 0)
    assert defect_violations(g, coloring) == [
        {"vertex": 0, "color": 0, "count": k // 2 + 1}]
    assert_only_odd_seams_over_cap(n, coloring.edges, [k] * n, coloring.colors)


@pytest.mark.parametrize("n, k", [(9, 8), (13, 12)])
def test_split_once_edge_kind_rejects_an_overloaded_split(n, k, monkeypatch):
    # K9 and K13 have even edge counts, so the bound is within reach, and a
    # split with one edge flipped (one more of its color at both ends) fails.
    def overloaded(n, edges, degree):
        colors, ones = balanced_edge_split(n, edges, degree)
        return [1 - colors[0]] + colors[1:], ones

    monkeypatch.setattr(defective, "balanced_edge_split", overloaded)
    with pytest.raises(ContractViolation, match="exceeded its load bound"):
        split_once(circulant_graph(n, k), EDGE, 1, relaxed_config(), 0)


def test_split_once_empty_graph_trivial():
    g = Graph.empty(5)
    coloring = split_once(g, VERTEX, q=2, cfg=relaxed_config(), seed=0)
    assert defect_violations(g, coloring) == []


def test_split_once_lll_route_on_small_graph():
    g = random_regular_graph(12, 4, seed=6)
    coloring = split_once(g, VERTEX, q=1, cfg=relaxed_config(), seed=13,
                          method="lll")
    assert coloring.history[0]["method"] == "lll"
    assert defect_violations(g, coloring) == []


def test_split_once_lll_route_edge_kind():
    # An even cycle: the only admissible split alternates colors, and the
    # residual search must find it.
    g = circulant_graph(8, 2)
    coloring = split_once(g, EDGE, q=1, cfg=relaxed_config(), seed=14,
                          method="lll")
    assert coloring.history[0]["method"] == "lll"
    assert defect_violations(g, coloring) == []
    counts = {}
    for (u, v), c in zip(coloring.edges, coloring.colors):
        counts[(u, c)] = counts.get((u, c), 0) + 1
        counts[(v, c)] = counts.get((v, c), 0) + 1
    assert max(counts.values()) == 1


def test_split_and_halving_reject_unknown_method():
    g = circulant_graph(12, 4)
    with pytest.raises(InputError, match="'bogus'"):
        split_once(g, VERTEX, 1, relaxed_config(), 0, method="bogus")
    with pytest.raises(InputError, match="'auto'"):
        iterate_halving(g, EDGE, 1, relaxed_config(), 0, method="auto")


@pytest.mark.parametrize("g", [circulant_graph(10, 4), Graph(3, [])],
                         ids=["circulant", "edgeless"])
def test_split_once_rejects_unknown_kind(g):
    with pytest.raises(InputError, match="'face'"):
        split_once(g, "face", 1, relaxed_config(), 0)


# --- iterated halving -------------------------------------------------------


def test_iterate_halving_vertex_moderate_scale():
    g = circulant_graph(72, 32)
    q = 2
    coloring = iterate_halving(g, VERTEX, q, relaxed_config(), seed=15)
    k = halving_iterations(32, q)
    assert coloring.color_count == 2 ** k
    for entry in coloring.history:
        assert entry["max_class_degree"] <= entry["bound"]
    assert defect_violations(g, coloring) == []
    assert coloring.x == 32 / 2 ** k


def test_iterate_halving_edge_moderate_scale():
    g = circulant_graph(60, 32)
    coloring = iterate_halving(g, EDGE, 2, relaxed_config(), seed=16)
    assert coloring.color_count == 2 ** halving_iterations(32, 2)
    for entry in coloring.history:
        assert entry["max_class_degree"] <= entry["bound"]
    assert defect_violations(g, coloring) == []
    # classes partition the edge set
    assert len(coloring.colors) == g.edge_count()


@pytest.mark.parametrize("n, k, q", [(7, 6, 1.5), (11, 10, 2), (15, 14, 2)])
def test_iterate_halving_names_the_split_exception_as_an_input_error(n, k, q):
    # K7, K11 and K15 are k-regular with k even and an odd edge count, so
    # every edge split puts k/2 + 1 edges of one color at the seam, and the
    # first iteration's bound is below that.
    with pytest.raises(InputError, match=rf"iteration 1: measured class degree "
                       rf"{k // 2 + 1} exceeds .* {k}-regular component of odd edge "
                       r"count.*split contract's one exception"):
        iterate_halving(circulant_graph(n, k), EDGE, q, relaxed_config(), 0)


@pytest.mark.parametrize("n, k, kind", [(9, 8, EDGE), (7, 6, VERTEX)])
def test_iterate_halving_other_bound_failures_stay_contract_violations(
        n, k, kind, monkeypatch):
    # K9 has an even edge count, and the vertex kind has no such exception.
    bound = defective.inductive_bound
    monkeypatch.setattr(defective, "inductive_bound",
                        lambda delta, q, i: bound(delta, q, i) if i == 0 else 0.0)
    with pytest.raises(ContractViolation, match="exceeds inductive bound"):
        iterate_halving(circulant_graph(n, k), kind, 1.5, relaxed_config(), 0)


@pytest.mark.parametrize("seed", range(3))
def test_iterate_halving_lll_route(seed):
    g = circulant_graph(20, 8)
    coloring = iterate_halving(g, VERTEX, 1, relaxed_config(), seed, method="lll")
    # Classes of degree at most 1 are split by the balanced route.
    assert [h["methods"] for h in coloring.history] == [
        ["lll"], ["lll"], ["balanced", "lll"]]
    assert defect_violations(g, coloring) == []


@pytest.mark.parametrize("seed", range(3))
def test_iterate_halving_lll_route_edge_kind_counts_class_degrees(seed):
    # The edge LLL route succeeds at desk scale only at degree 2; its halves'
    # degrees come from its own bits, and must equal a recount of each class.
    g = circulant_graph(8, 2)
    coloring = iterate_halving(g, EDGE, 1, relaxed_config(), seed, method="lll")
    assert [h["methods"] for h in coloring.history] == [["lll"]]
    reference = reference_halving(g, EDGE, 1, relaxed_config(), seed, method="lll")
    assert (coloring.colors, coloring.history) == (reference.colors, reference.history)
    edges = g.edges()
    for _, objs, local in coloring.classes:
        assert local == degrees(g.node_count, [edges[e] for e in objs])


def test_iterate_halving_single_iteration_reduces_to_one_split():
    # Degree 8 with q = 2 admits exactly one iteration; the outcome is a
    # two-class coloring whose defect bound is implied by the split bound.
    g = circulant_graph(24, 8)
    assert halving_iterations(8, 2) == 1
    coloring = iterate_halving(g, VERTEX, 2, relaxed_config(), seed=20)
    assert coloring.color_count == 2
    assert coloring.defect_bound >= split_threshold(8, 2)
    assert defect_violations(g, coloring) == []


def test_iterate_halving_small_q_trivial_cases():
    g = circulant_graph(10, 2)
    coloring = iterate_halving(g, VERTEX, 4, relaxed_config(), seed=17)
    assert coloring.color_count == 1  # no admissible iterations


def test_iterate_halving_deterministic():
    g = circulant_graph(40, 16)
    a = iterate_halving(g, VERTEX, 2, relaxed_config(), seed=18)
    b = iterate_halving(g, VERTEX, 2, relaxed_config(), seed=18)
    assert a.colors == b.colors


def test_iterate_halving_strict_mode_enforces_window():
    g = circulant_graph(72, 32)
    with pytest.raises(InputError):
        iterate_halving(g, VERTEX, 2, strict_config(), seed=19)


def halving_outcome(halve, g, kind, q, seed):
    """A halving's colors, history and parameters, or the type and message
    of the check it fails."""
    try:
        coloring = halve(g, kind, q, relaxed_config(), seed)
    except (ContractViolation, InputError) as exc:
        return type(exc).__name__, str(exc)
    return coloring.to_dict(), coloring.history


STAR = Graph(9, [(0, leaf) for leaf in range(1, 9)])


@settings(max_examples=200, deadline=None)
@example(STAR, VERTEX, 1, 0)  # the center alone in its class: one half is empty
@given(halving_graphs(), st.sampled_from([VERTEX, EDGE]), st.sampled_from([1, 1.5, 2]),
       st.integers(0, 10 ** 6))
def test_iterate_halving_matches_reference_loop(g, kind, q, seed):
    assert halving_outcome(iterate_halving, g, kind, q, seed) == halving_outcome(
        reference_halving, g, kind, q, seed)


@pytest.mark.parametrize("kind", [VERTEX, EDGE])
@pytest.mark.parametrize("make, args", [
    (circulant_graph, (130, 64)),
    (gnp_graph, (120, 0.5, 6)),
    (random_regular_graph, (90, 40, 3)),
], ids=["circulant-130-64", "gnp-120", "regular-90-40"])
def test_iterate_halving_matches_reference_loop_on_larger_graphs(make, args, kind):
    g = make(*args)
    ours = halving_outcome(iterate_halving, g, kind, 2, 8)
    assert len(ours[1]) >= 2
    assert ours == halving_outcome(reference_halving, g, kind, 2, 8)


def test_iterate_halving_rejects_bad_inputs():
    g = circulant_graph(10, 4)
    with pytest.raises(InputError):
        iterate_halving(g, "face", 2, relaxed_config(), seed=0)
    with pytest.raises(InputError):
        iterate_halving(g, VERTEX, 0.5, relaxed_config(), seed=0)
