"""Shared instance families for the test suite."""

import itertools
import random

from hypothesis import reject, strategies as st

from resilient_lll.errors import ContractViolation
from resilient_lll.generators import circulant_graph, gnp_graph
from resilient_lll.graph import Graph, Partition
from resilient_lll.model import (
    CountThreshold,
    EventSpec,
    MaxPartLoad,
    TruthTable,
    VariableSpec,
    build_instance,
)


def fair_bits(n):
    return [VariableSpec.fair_bit()] * n


def never_event(event_id, deps):
    return EventSpec(event_id, tuple(deps), TruthTable(frozenset()))


def path_instance(n_events=30, rows=frozenset({(1, 1)})):
    """Event i depends on bits (i, i+1); neighboring events share one bit."""
    vs = fair_bits(n_events + 1)
    events = [EventSpec(i, (i, i + 1), TruthTable(rows)) for i in range(n_events)]
    return build_instance(vs, events)


def hub_instance(n_leaves=15, shaped=True):
    """A hub event that fires when all its bits are 1, over bits each owned
    by its own leaf event, so the hub has one same-part swap neighbor per
    bit. Shaped, it is a count-all-ones event; unshaped, a one-row
    ``TruthTable`` with the same rows, which the oracle keys per event."""
    bits = tuple(range(n_leaves))
    predicate = (CountThreshold(groups=(bits,), threshold=n_leaves, ref_value=1) if shaped
                 else TruthTable(frozenset({(1,) * n_leaves})))
    leaves = [EventSpec(i + 1, (i,), TruthTable(frozenset({(1,)}))) for i in bits]
    return build_instance(fair_bits(n_leaves), [EventSpec(0, bits, predicate)] + leaves,
                          {v: v + 1 for v in bits})


def ring_instance(n_events=30, privates=4):
    """Events on a ring sharing one bit with each ring neighbor, plus private
    bits; each event fires only when all its bits are 1, so
    p = 2^-(3 + privates) exactly and the dependency degree is 4.

    Variable ids: shared bit of event i is i; private bits follow densely.
    Each event owns its shared bit and its private bits.
    """
    n_vars = n_events + n_events * privates
    vs = fair_bits(n_vars)
    events = []
    allocation = {}
    for i in range(n_events):
        shared = [(i - 1) % n_events, i, (i + 1) % n_events]
        own_private = [n_events + i * privates + j for j in range(privates)]
        deps = tuple(sorted(set(shared + own_private)))
        events.append(
            EventSpec(
                i, deps,
                CountThreshold(groups=(deps,), threshold=len(deps), ref_value=1),
            )
        )
        allocation[i] = i
        for v in own_private:
            allocation[v] = i
    return build_instance(vs, events, allocation)


def degrees(n, edges):
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def cycle_sum_edges(vertices, cycles, rng):
    """The symmetric difference of ``cycles`` random cycles through
    ``vertices``: every degree is even, and unlike a single cycle or a
    complete graph the degrees differ from vertex to vertex."""
    edges = set()
    if len(vertices) >= 3:
        for _ in range(cycles):
            cycle = rng.sample(vertices, rng.randint(3, len(vertices)))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edges ^= {(min(a, b), max(a, b))}
    return sorted(edges)


def cycle_sum_graph(n, cycles, seed):
    return Graph(n, cycle_sum_edges(list(range(n)), cycles, random.Random(seed)))


@st.composite
def multigraph_edge_lists(draw, max_n=8, max_edges=15):
    """(n, edges) of a small loopless multigraph: each edge joins two
    distinct random vertices, so vertex pairs may repeat."""
    n = draw(st.integers(2, max_n))
    pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    return n, [tuple(e) for e in draw(st.lists(pairs, max_size=max_edges))]


@st.composite
def edge_lists(draw, max_component=12):
    """(n, edges) of a simple graph: up to four components plus up to three
    isolated vertices. A component is a random graph of its own density
    from empty to complete, or a sum of cycles, whose degrees are all even
    but differ. Vertex ids are shuffled across components; the edges come
    either sorted with u < v, as ``Graph.edges`` yields them, or in a
    random order and orientation."""
    sizes = draw(st.lists(st.integers(1, max_component), max_size=4))
    isolated = draw(st.integers(0, 3))
    rng = draw(st.randoms(use_true_random=False))
    n = sum(sizes) + isolated
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    base = 0
    for size in sizes:
        block = list(range(base, base + size))
        density = draw(st.sampled_from((0.0, 0.3, 0.6, 1.0, "even")))
        if density == "even":
            pairs = cycle_sum_edges(block, draw(st.integers(1, 3)), rng)
        else:
            pairs = [(a, b) for a in block for b in block[a - base + 1:]
                     if rng.random() < density]
        edges.extend((label[a], label[b]) for a, b in pairs)
        base += size
    if draw(st.booleans()):
        edges = sorted((min(e), max(e)) for e in edges)
    else:
        rng.shuffle(edges)
        edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return n, edges


SKEWED_WEIGHTS = ((0.25, 0.75), (0.1, 0.9), (0.2, 0.3, 0.5), (0.5, 0.25, 0.25))


def sublists(items):
    return st.lists(st.sampled_from(items), min_size=1, unique=True)


@st.composite
def small_instances(draw):
    """A random small instance and event partition: uniform and weighted
    variables of domain 2 or 3, events of all three predicate kinds over
    one to four variables each, a random allocation and 1-3 parts."""
    n_vars = draw(st.integers(1, 7))
    variables = []
    for v in range(n_vars):
        if draw(st.booleans()):
            variables.append(VariableSpec.uniform(draw(st.integers(2, 3))))
        else:
            weights = draw(st.sampled_from(SKEWED_WEIGHTS))
            variables.append(VariableSpec(len(weights), weights))
    n_events = draw(st.integers(1, 5))
    deps = [set(draw(st.lists(st.integers(0, n_vars - 1), min_size=1, max_size=4,
                              unique=True)))
            for _ in range(n_events)]
    for v in range(n_vars):
        if not any(v in dep for dep in deps):
            deps[draw(st.integers(0, n_events - 1))].add(v)
    events = []
    for a, dep in enumerate(tuple(sorted(d)) for d in deps):
        kind = draw(st.sampled_from(("truth_table", "count_threshold",
                                     "max_part_load")))
        if kind == "truth_table":
            rows = list(itertools.product(
                *(range(variables[v].domain_size) for v in dep)))
            predicate = TruthTable(frozenset(draw(st.sets(st.sampled_from(rows)))))
        elif kind == "count_threshold":
            # One or two disjoint groups, split from one sublist; a reference
            # variable may be counted in both.
            members = draw(sublists(dep))
            cut = draw(st.integers(0, len(members) - 1))
            groups = [members[:cut], members[cut:]] if cut else [members]
            if draw(st.booleans()):
                ref = {"ref_var": draw(st.sampled_from(dep))}
                if draw(st.booleans()):
                    groups = [g if ref["ref_var"] in g else g + [ref["ref_var"]]
                              for g in groups]
            else:
                ref = {"ref_value": draw(st.integers(0, 2))}
            groups = tuple(map(tuple, groups))
            threshold = draw(st.integers(1, max(map(len, groups)) + 1))
            predicate = CountThreshold(groups, threshold, **ref)
        else:
            counted = tuple(draw(sublists(dep)))
            predicate = MaxPartLoad(counted, draw(st.integers(2, len(counted) + 1)))
        events.append(EventSpec(a, dep, predicate))
    allocation = {
        v: draw(st.sampled_from([a for a, dep in enumerate(deps) if v in dep]))
        for v in range(n_vars)
    }
    try:
        inst = build_instance(variables, events, allocation)
    except ContractViolation:
        reject()  # the degrees break the instance's own d < 2 * d_vars^2 rule
    parts = draw(st.integers(1, 3))
    assignment = tuple(draw(st.integers(0, parts - 1)) for _ in range(n_events))
    return inst, Partition(parts, assignment)


@st.composite
def halving_graphs(draw):
    """Random G(n, p) graphs, and circulant graphs relabelled by a seeded
    permutation so that class members are not in ring order."""
    seed = draw(st.integers(0, 10 ** 6))
    if draw(st.booleans()):
        return gnp_graph(draw(st.integers(2, 40)), draw(st.floats(0.0, 1.0)), seed)
    n = draw(st.integers(3, 72))
    g = circulant_graph(n, 2 * draw(st.integers(1, (n - 1) // 2)))
    label = list(range(n))
    random.Random(seed).shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in g.edges()])
