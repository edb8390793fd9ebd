import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from resilient_lll.errors import InputError
from resilient_lll.graph import (
    Graph,
    Partition,
    load_graph,
    neighbors_within,
    per_part_neighbor_counts,
    save_graph,
)


def bfs_oracle(g, v, k):
    """Independent BFS truncated at depth k."""
    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier and d < k:
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in dist:
                    dist[w] = d + 1
                    nxt.append(w)
        frontier = nxt
        d += 1
    return {u for u, dd in dist.items() if 0 < dd <= k}


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_path_one_hop():
    g = Graph(3, [(0, 1), (1, 2)])
    assert neighbors_within(g, 1, 1) == {0, 2}


def test_path_two_hops():
    g = Graph(3, [(0, 1), (1, 2)])
    assert neighbors_within(g, 0, 2) == {1, 2}


def test_zero_hops_empty():
    g = Graph(3, [(0, 1), (1, 2)])
    assert neighbors_within(g, 1, 0) == set()


def test_neighbors_within_matches_bfs_oracle():
    g = random_graph(50, 0.1, seed=7)
    for v in range(g.node_count):
        assert neighbors_within(g, v, 2) == bfs_oracle(g, v, 2)


def test_out_of_range_node_rejected():
    g = Graph(2, [(0, 1)])
    with pytest.raises(InputError):
        neighbors_within(g, 5, 1)


def test_construction_rejects_self_loops_and_duplicates():
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 1), (1, 0)])


def test_star_counts():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    part = Partition(1, (0, 0, 0, 0, 0))
    assert per_part_neighbor_counts(g, part, 0) == [4]


def test_empty_graph_counts():
    g = Graph.empty(4)
    part = Partition(2, (0, 1, 0, 1))
    assert per_part_neighbor_counts(g, part, 2) == [0, 0]


def test_counts_match_naive_recount():
    g = random_graph(40, 0.15, seed=3)
    rng = random.Random(11)
    part = Partition(4, tuple(rng.randrange(4) for _ in range(40)))
    for v in range(g.node_count):
        counts = per_part_neighbor_counts(g, part, v)
        naive = [0, 0, 0, 0]
        for w in range(g.node_count):
            if w in g.adjacency[v]:
                naive[part.assignment[w]] += 1
        assert counts == naive
        assert sum(counts) == g.degree(v)


def test_mismatched_partition_rejected():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InputError):
        per_part_neighbor_counts(g, Partition(1, (0, 0)), 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000), st.integers(1, 4))
def test_within_sets_nested_and_symmetric(seed, k):
    g = random_graph(18, 0.2, seed)
    rng = random.Random(seed)
    v = rng.randrange(18)
    inner = neighbors_within(g, v, k)
    outer = neighbors_within(g, v, k + 1)
    assert inner <= outer
    for u in inner:
        assert v in neighbors_within(g, u, k)


def set_reference_graph(n, edges):
    """Set-based construction: the adjacency of a valid simple edge list,
    or None when some pair is out of range, a self-loop or repeated."""
    seen = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if not (0 <= u < n and 0 <= v < n) or u == v or key in seen:
            return None
        seen.add(key)
    return tuple(tuple(sorted({b for a, b in seen if a == u} |
                              {a for a, b in seen if b == u}))
                 for u in range(n))


@st.composite
def edge_lists(draw):
    """Random edge lists with planted duplicates in both orientations,
    self-loops and out-of-range ids."""
    n = draw(st.integers(0, 12))
    node = st.integers(-2, n + 1) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=30))
    if edges and draw(st.booleans()):
        u, v = draw(st.sampled_from(edges))
        edges.insert(draw(st.integers(0, len(edges))),
                     (v, u) if draw(st.booleans()) else (u, v))
    if n and draw(st.booleans()):
        x = draw(st.integers(0, n - 1))
        edges.insert(draw(st.integers(0, len(edges))), (x, x))
    return n, edges


@settings(max_examples=500, deadline=None)
@given(edge_lists())
def test_graph_matches_set_reference(case):
    n, edges = case
    expected = set_reference_graph(n, edges)
    if expected is None:
        with pytest.raises(InputError):
            Graph(n, edges)
        return
    g = Graph(n, edges)
    assert g.adjacency == expected
    assert g.max_degree == max(map(len, expected), default=0)
    assert g.edges() == tuple(sorted((min(e), max(e)) for e in edges))


def test_duplicate_edge_named_from_its_smaller_endpoint():
    with pytest.raises(InputError, match=re.escape("duplicate edge (1, 3)")):
        Graph(5, [(0, 4), (3, 1), (2, 4), (1, 3)])


@pytest.mark.parametrize("edge", [(0, True), (0, 1.0), (0, 1, 2), (1,), "01", 2, None])
def test_an_edge_that_is_not_a_pair_of_ints_is_an_input_error(edge):
    message = re.escape(f"edge {edge!r} is not a pair of ints")
    with pytest.raises(InputError, match=message):
        Graph(3, [(1, 2), edge, (0, 1)])
    with pytest.raises(InputError, match=message):  # the first bad edge is named
        Graph(3, [(1, 2), edge, (0, 1.5)])


def test_adjacency_constructor_keeps_what_it_is_given():
    adjacency = ((1, 2), (0,), (0,), ())
    g = Graph.from_adjacency(adjacency)
    assert g.adjacency is adjacency
    assert (g.node_count, g.max_degree, g.edges()) == (4, 2, ((0, 1), (0, 2)))
    assert g.adjacency == Graph(4, [(0, 1), (2, 0)]).adjacency


def test_partition_helpers():
    p = Partition.round_robin(7, 3)
    assert sorted(len(x) for x in p.parts()) == [2, 2, 3]
    q = Partition.contiguous(7, 3)
    assert [len(x) for x in q.parts()] == [3, 2, 2]
    s = Partition.singleton(4)
    assert s.part_count == 1 and s.parts() == [[0, 1, 2, 3]]
    with pytest.raises(InputError):
        Partition(2, (0, 2))


@pytest.mark.parametrize("part_count, assignment, message", [
    (True, (0, 0), "part count True is not an int"),
    (2.0, (0, 1), "part count 2.0 is not an int"),
    (2, (0, True), "item 1 assigned to part True, which is not an int"),
    (2, (0, 1.0), "item 1 assigned to part 1.0, which is not an int"),
    (2, ("0", 1), "item 0 assigned to part '0', which is not an int"),
])
def test_partition_rejects_a_part_that_is_not_an_int(part_count, assignment, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Partition(part_count, assignment)


def test_graph_file_roundtrip(tmp_path):
    g = random_graph(20, 0.2, seed=9)
    path = tmp_path / "g.edges"
    save_graph(g, path)
    h = load_graph(path)
    assert h.node_count == g.node_count
    assert h.adjacency == g.adjacency


@pytest.mark.parametrize("text,line", [
    ("n x\n0 1\n", 1),
    ("# comment\nn 4\n0 1\n2 three\n", 4),
])
def test_graph_file_non_integer_token_is_input_error(tmp_path, text, line):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(InputError, match=re.escape(f"{path}:{line}:")):
        load_graph(path)
