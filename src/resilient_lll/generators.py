"""Seeded graph and instance generators for experiments and tests."""

from __future__ import annotations

from .errors import InputError
from .graph import Graph
from .model import CountThreshold, EventSpec, VariableSpec, build_instance
from .seeds import rng_for

MAX_REPAIR_SWAPS = 200_000  # swap attempts before random_regular_graph gives up


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style G(n, p), deterministic given seed."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise InputError("need n >= 0 and p in [0, 1]")
    rng = rng_for(seed, "gnp", n, p)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """Exactly d-regular simple graph via stub pairing plus swap repair.

    Pairs stubs uniformly, then removes self-loops and duplicate edges by
    random 2-swaps; fails after the repair budget instead of returning an
    irregular graph.
    """
    if n <= d or n * d % 2 != 0 or d < 0:
        raise InputError(f"no {d}-regular simple graph on {n} nodes")
    if d == 0:
        return Graph.empty(n)
    rng = rng_for(seed, "regular", n, d)
    stubs = [v for v in range(n) for _ in range(d)]
    rng.shuffle(stubs)
    pairs = [[stubs[i], stubs[i + 1]] for i in range(0, len(stubs), 2)]

    def key(pair):
        return (pair[0], pair[1]) if pair[0] < pair[1] else (pair[1], pair[0])

    counts = {}
    for pair in pairs:
        k = key(pair)
        counts[k] = counts.get(k, 0) + 1

    def is_bad(pair):
        return pair[0] == pair[1] or counts[key(pair)] > 1

    bad = [i for i, pair in enumerate(pairs) if is_bad(pair)]
    budget = MAX_REPAIR_SWAPS
    while bad:
        if budget <= 0:
            raise InputError(
                f"regular-graph repair budget exhausted for n={n}, d={d}"
            )
        budget -= 1
        i = bad[-1]
        if not is_bad(pairs[i]):
            bad.pop()
            continue
        j = rng.randrange(len(pairs))
        if j == i:
            continue
        u, v = pairs[i]
        x, y = pairs[j]
        # Swap one endpoint; accept only if both replacement edges are new
        # simple edges.
        new1, new2 = [u, x], [v, y]
        if rng.random() < 0.5:
            new1, new2 = [u, y], [v, x]
        if new1[0] == new1[1] or new2[0] == new2[1]:
            continue
        k1, k2 = key(new1), key(new2)
        if counts.get(k1, 0) > 0 or counts.get(k2, 0) > 0 or k1 == k2:
            continue
        for old in (pairs[i], pairs[j]):
            k = key(old)
            counts[k] -= 1
            if counts[k] == 0:
                del counts[k]
        pairs[i], pairs[j] = new1, new2
        counts[k1] = counts.get(k1, 0) + 1
        counts[k2] = counts.get(k2, 0) + 1
        if is_bad(pairs[j]):
            bad.append(j)
    g = Graph(n, [tuple(pair) for pair in pairs])
    if any(g.degree(v) != d for v in range(n)):
        raise InputError("repair left an irregular graph")
    return g


def circulant_graph(n: int, d: int) -> Graph:
    """Deterministic d-regular graph: node i joined to i +- 1..d/2 (mod n).

    d must be even and below n; useful for large synthetic regular graphs
    where pairing repair would be too slow.
    """
    if d % 2 != 0 or d >= n or d < 0:
        raise InputError(f"circulant needs even d < n, got n={n}, d={d}")
    edges = set()
    for i in range(n):
        for off in range(1, d // 2 + 1):
            j = (i + off) % n
            edges.add((min(i, j), max(i, j)))
    return Graph(n, sorted(edges))


def ring_family(n_events: int, shared_degree: int = 2, private_bits: int = 5,
                seed: int = 0):
    """Bounded-degree all-equal-one instances with exactly known p.

    Each event owns one shared bit and ``private_bits`` private bits, and
    additionally depends on the shared bits of ``shared_degree`` partner
    events (a seeded regular partner graph). The event fires only when all
    its bits are 1, so p = 2^-(1 + shared_degree + private_bits) exactly,
    the allocation degree is shared_degree, and the dependency degree is at
    most shared_degree * (shared_degree + 1).
    """
    if n_events < shared_degree + 1:
        raise InputError("need more events than the shared degree")
    partner = random_regular_graph(n_events, shared_degree, seed)
    n_vars = n_events * (1 + private_bits)
    events, allocation = [], {}
    for i in range(n_events):
        own = [i] + [n_events + i * private_bits + j for j in range(private_bits)]
        deps = tuple(sorted(own + list(partner.neighbors(i))))
        events.append(EventSpec(i, deps, CountThreshold((deps,), len(deps), ref_value=1)))
        allocation.update(dict.fromkeys(own, i))
    return build_instance([VariableSpec.fair_bit()] * n_vars, events, allocation)


def window_family(n_events: int, private_bits: int = 6, seed: int = 0):
    """Path-structured all-equal-one instances with dependency degree 2.

    Event i depends on shared bits i and i+1 plus its own private bits and
    owns all but the (i+1)-th; p = 2^-(2 + private_bits) exactly. The ids of
    private bits are shuffled by the seed so distinct seeds give distinct
    (isomorphic) instances.
    """
    if n_events < 2:
        raise InputError("need at least two events")
    rng = rng_for(seed, "window", n_events, private_bits)
    shared = n_events + 1
    private_ids = list(range(shared, shared + n_events * private_bits))
    rng.shuffle(private_ids)
    events = []
    allocation = {n_events: n_events - 1}  # last shared bit: its only owner
    for i in range(n_events):
        own_private = private_ids[i * private_bits:(i + 1) * private_bits]
        deps = tuple(sorted([i, i + 1] + own_private))
        events.append(EventSpec(i, deps, CountThreshold((deps,), len(deps), ref_value=1)))
        allocation.update(dict.fromkeys([i] + own_private, i))
    return build_instance([VariableSpec.fair_bit()] * (shared + n_events * private_bits),
                          events, allocation)


GRAPH_FAMILIES = {
    "gnp": lambda params, seed: gnp_graph(int(params["n"]), float(params["p"]), seed),
    "regular": lambda params, seed: random_regular_graph(
        int(params["n"]), int(params["d"]), seed
    ),
    "circulant": lambda params, seed: circulant_graph(
        int(params["n"]), int(params["d"])
    ),
}

INSTANCE_FAMILIES = {
    "ring": lambda params, seed: ring_family(
        int(params["n"]),
        int(params.get("shared_degree", 2)),
        int(params.get("private_bits", 5)),
        seed,
    ),
    "window": lambda params, seed: window_family(
        int(params["n"]),
        int(params.get("private_bits", 6)),
        seed,
    ),
}


def generate(kind: str, family: str, params: dict, seed: int):
    """Dispatch for the CLI / experiment runner. kind: 'graph' | 'instance'."""
    table = GRAPH_FAMILIES if kind == "graph" else INSTANCE_FAMILIES
    if family not in table:
        raise InputError(f"unknown {kind} family {family!r}; have {sorted(table)}")
    return table[family](params, seed)
