"""Defective vertex and edge colorings by iterated two-way splitting.

A (x, q)-defective coloring uses max_degree/x colors with every vertex
seeing fewer than x + x/q same-color neighbors (vertex kind) or fewer than
x + x/q incident edges of any one color (edge kind). One split halves the
degree-ish quantity; iterating lg(max_degree) - lg(q^2 * lg(q)^4) times
lands at class degree Theta(q^2 * lg(q)^4) while the per-iteration
inductive bound delta/2^i + delta*i/(2^i*q*lg(delta)) is checked after
every iteration.

Each split is produced by one of two methods, with the same split contract.
"balanced", the default, splits deterministically: local-max-cut for
vertices (same-color degree at most floor(deg/2)) and alternating walk
coloring for edges (per-color incident count at most ceil(deg/2), except
in a component with all degrees even and an odd edge count, which has no
such split: there the walk's start, a minimum-degree vertex, has deg/2 + 1
edges of color 0). Each pass of an Euler circuit colored 0, 1, 0, ...
through a vertex uses one edge of each color, so the halves' degrees follow
from the degrees, the hub edges' colors and those starts. "lll" is the
constraint-avoidance route:
build the two-coloring instance whose bad events are overloaded vertices
and run the general driver on it, with the part count chosen from the
instance's exact event probabilities. Its asymptotic preconditions hold
only at degrees far beyond desk scale, so it is never chosen by default.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass

from .config import ThresholdConfig, lg
from .errors import ContractViolation, InputError
from .graph import Graph
from .model import CountThreshold, EventSpec, VariableSpec, build_instance
from .seeds import derive_seed, rng_for
from .shattering import _UnionFind
from . import general

VERTEX = "vertex"
EDGE = "edge"


# --- parameter arithmetic ---------------------------------------------------

def _lg_clamped(x: float) -> float:
    return max(lg(x), 1.0) if x > 0 else 1.0


def split_threshold(delta: float, q: float) -> float:
    """Bad-event load: delta/2 + delta/(4*q*lg(delta))."""
    if delta <= 0 or q <= 0:
        raise InputError("need positive degree and q")
    return delta / 2 + delta / (4 * q * _lg_clamped(delta))


def split_precondition_ok(delta: float, q: float) -> bool:
    """Hardened admissibility: q <= sqrt(delta / lg(delta)^4)."""
    if delta < 2:
        return False
    return q <= math.sqrt(delta / lg(delta) ** 4)


def iteration_floor(q: float) -> float:
    """q^2 * lg(q)^4, with lg(q) clamped to 1 below q = 2 so the iteration
    arithmetic stays defined for small q."""
    if q < 1:
        raise InputError("q must be at least 1")
    return q * q * _lg_clamped(q) ** 4


def halving_iterations(delta: int, q: float) -> int:
    """Number of splits: floor(lg(delta) - lg(q^2 lg(q)^4)), at least 0."""
    if delta < 2:
        return 0
    return max(0, math.floor(lg(delta) - lg(iteration_floor(q))))


def inductive_bound(delta: int, q: float, i: int) -> float:
    """Class degree bound after iteration i."""
    L = _lg_clamped(delta)
    return delta / 2 ** i + delta * i / (2 ** i * q * L)


def vertex_split_p_bound(delta: float, q: float) -> float:
    """Tail bound on one vertex collecting threshold many same-color
    neighbors under a uniform two-way split."""
    return math.exp(-delta / (24 * (q * _lg_clamped(delta)) ** 2))


def edge_split_p_bound(delta: float, q: float) -> float:
    return 2 * math.exp(-delta / (38 * (q * _lg_clamped(delta)) ** 2))


# --- result type ------------------------------------------------------------

@dataclass
class DefectiveColoring:
    kind: str
    colors: tuple          # per object (vertex id, or index into edges)
    color_count: int
    x: float
    q: float
    defect_bound: float    # strict upper bound: counts must stay below it
    edges: tuple = ()      # object order for edge kind
    history: tuple = ()    # per-iteration measurements
    classes: tuple = ()    # a halving's final (label, objects, local) classes

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "color_count": self.color_count,
            "x": self.x,
            "q": self.q,
            "defect_bound": self.defect_bound,
            "colors": list(self.colors),
        }
        if self.kind == EDGE:
            out["edges"] = [list(e) for e in self.edges]
        return out


def defect_violations(g: Graph, coloring: DefectiveColoring) -> list:
    """Objects whose same-color load reaches the defect bound."""
    bad = []
    if coloring.kind == VERTEX:
        for v in range(g.node_count):
            same = sum(
                1 for w in g.neighbors(v)
                if coloring.colors[w] == coloring.colors[v]
            )
            if same >= coloring.defect_bound:
                bad.append({"vertex": v, "count": same})
    else:
        # Each vertex's incident edge count per label, recounted from the
        # labels alone in a flat list indexed v * stride + label, so in
        # (vertex, label) order; it holds n * stride entries.
        labels = coloring.colors
        if labels and min(labels) < 0:
            raise InputError("edge labels must be non-negative integers")
        stride = max(labels, default=0) + 1
        loads = [0] * (g.node_count * stride)
        for (u, v), label in zip(coloring.edges, labels):
            loads[u * stride + label] += 1
            loads[v * stride + label] += 1
        for key, count in enumerate(loads):
            if count >= coloring.defect_bound:
                v, c = divmod(key, stride)
                bad.append({"vertex": v, "color": c, "count": count})
    return bad


# --- deterministic balanced splits -----------------------------------------

def balanced_vertex_split(adjacency, seed: int):
    """Two-color vertices so every vertex has at most floor(deg/2) neighbors
    of its own color: start uniformly, then flip any vertex with a same-color
    majority (each flip grows the bichromatic cut, so this terminates)."""
    n = len(adjacency)
    rng = rng_for(seed, "vsplit")
    bits = [rng.randrange(2) for _ in range(n)]
    same = [
        sum(1 for w in adjacency[v] if bits[w] == bits[v])
        for v in range(n)
    ]
    pending = deque(v for v in range(n) if 2 * same[v] > len(adjacency[v]))
    queued = set(pending)
    while pending:
        v = pending.popleft()
        queued.discard(v)
        deg = len(adjacency[v])
        if 2 * same[v] <= deg:
            continue
        bits[v] ^= 1
        same[v] = deg - same[v]
        for w in adjacency[v]:
            if bits[w] == bits[v]:
                same[w] += 1
                if 2 * same[w] > len(adjacency[w]) and w not in queued:
                    pending.append(w)
                    queued.add(w)
            else:
                same[w] -= 1
    return bits


def balanced_edge_split(n: int, edges, degree):
    """Two-color edges so every vertex has at most ceil(deg/2) incident
    edges per color, except in a component whose degrees are all even and
    whose edge count is odd. No such component has a split within the cap;
    there the walk's start, a minimum-degree vertex, has deg/2 + 1 edges of
    color 0. ``degree`` holds each vertex's degree in ``edges``.

    Odd-degree vertices are tied to a virtual hub n, so every component
    has an Euler circuit. One iterative Hierholzer loop walks them over
    edge ids: a vertex's edges come from one iterator in id order (its hub
    edge last), and the far endpoint of edge ``eid`` from ``v`` is
    ``xor[eid] ^ v``. Walks start at the hub, so odd components wrap their
    seam there, then at the vertices with an edge by (degree, id), so an
    even component's seam lands on a minimum-degree vertex. Each circuit,
    in the order Hierholzer emits its edges, alternates colors 0, 1, 0, ...,
    so each pass through a vertex uses one edge of each color, and the
    returned ``(colors, ones)`` has ``ones[v] = degree[v] >> 1``, plus one
    if v's hub edge got color 0, minus one if v starts an odd circuit with
    no hub edge (its first and last edges both get color 0)."""
    m = len(edges)
    odd = [v for v in range(n) if degree[v] & 1]
    hub = n
    adjacency = [[] for _ in range(n + 1)]
    for eid, (u, v) in enumerate(edges):
        adjacency[u].append(eid)
        adjacency[v].append(eid)
    xor = [u ^ v for u, v in edges]
    for eid, v in enumerate(odd, m):
        adjacency[v].append(eid)
        adjacency[hub].append(eid)
        xor.append(hub ^ v)

    unused = [iter(incident) for incident in adjacency]
    used = [False] * len(xor)
    bits = [0] * len(xor)
    order = sorted((v for v in range(n) if degree[v]), key=degree.__getitem__)
    if odd:
        order.insert(0, hub)
    entered = []  # the open path of the current walk, as edge ids
    seams = []  # starts of odd circuits with no hub edge
    for start in order:
        parity = 0  # the color of the next edge Hierholzer emits
        v = start
        while True:
            for eid in unused[v]:
                if not used[eid]:
                    used[eid] = True
                    entered.append(eid)
                    v ^= xor[eid]
                    break
            else:
                if not entered:
                    break
                eid = entered.pop()
                bits[eid] = parity
                parity ^= 1
                v ^= xor[eid]
        if parity and start != hub:
            seams.append(start)

    ones = [d >> 1 for d in degree]
    for v in seams:
        ones[v] -= 1
    for eid, v in enumerate(odd, m):
        ones[v] += bits[eid] ^ 1
    return bits[:m], ones


# --- the two-coloring instance ---------------------------------------------

def build_split_instance(g: Graph, kind: str, q: float):
    """The instance whose valid assignments are admissible two-way splits.

    One fair bit per object, allocated to the object's own event; the bad
    event fires when some endpoint collects threshold many same-color
    objects. q below 1 is rejected; the asymptotic admissibility window is
    checked by split_precondition_ok and enforced only on strict paths,
    since it excludes every degree reachable in tests.
    """
    _check_kind(kind)
    if q < 1:
        raise InputError("q must be at least 1")
    delta = g.max_degree
    if delta < 2:
        raise InputError("degree below 2: splitting is vacuous")
    threshold = split_threshold(delta, q)
    # Per object, the groups of objects its event counts and its threshold.
    if kind == VERTEX:
        # An isolated vertex counts itself, under a threshold it cannot reach.
        objects = [((tuple(g.neighbors(v)),), threshold) if g.degree(v)
                   else (((v,),), g.node_count + 1) for v in range(g.node_count)]
    else:
        edges = g.edges()
        incident = [[] for _ in range(g.node_count)]
        for i, (u, v) in enumerate(edges):
            incident[u].append(i)
            incident[v].append(i)
        objects = [((tuple(incident[u]), tuple(incident[v])), threshold)
                   for u, v in edges]
    events = [EventSpec(i, tuple(sorted({i}.union(*groups))),
                        CountThreshold(groups=groups, threshold=thr, ref_var=i))
              for i, (groups, thr) in enumerate(objects)]
    return build_instance([VariableSpec.fair_bit()] * len(objects),
                          events, {i: i for i in range(len(objects))})


# --- splitting dispatch -----------------------------------------------------

def _check_kind(kind: str):
    if kind not in (VERTEX, EDGE):
        raise InputError(f"kind must be vertex or edge, got {kind!r}")


def _check_method(method: str):
    if method not in ("balanced", "lll"):
        raise InputError(f"method must be balanced or lll, got {method!r}")


def _lll_split(g: Graph, kind: str, q: float, cfg: ThresholdConfig, seed: int):
    """The general driver's bits on the split instance of ``g``, listed by
    variable id; the part count comes from the instance's exact p."""
    inst = build_split_instance(g, kind, q)
    bits = general.solve_general(inst, None, cfg, seed, mode="relaxed").assignment
    return [bits[i] for i in range(len(bits))]


def _split_vertex_class(adjacency, q, cfg, seed, method):
    if method == "balanced" or max(map(len, adjacency), default=0) <= 1:
        return balanced_vertex_split(adjacency, seed), "balanced"
    edges = [(v, w) for v, nbrs in enumerate(adjacency) for w in nbrs if v < w]
    return _lll_split(Graph(len(adjacency), edges), VERTEX, q, cfg, seed), "lll"


def _split_edge_class(n, edges, degree, q, cfg, seed, method):
    if method == "balanced" or max(degree, default=0) <= 1:
        return balanced_edge_split(n, edges, degree), "balanced"
    bits = _lll_split(Graph(n, edges), EDGE, q, cfg, seed)
    ones = Counter(v for e, bit in zip(edges, bits) if bit for v in e)
    return (bits, [ones[v] for v in range(n)]), "lll"


def split_once(g: Graph, kind: str, q: float, cfg: ThresholdConfig, seed: int,
               method: str = "balanced") -> DefectiveColoring:
    """One two-way split of the whole graph; every object's same-color load
    stays below delta/2 + delta/(4*q*lg(delta)) whenever some split of
    ``g`` achieves that bound. ``method`` is "balanced" or "lll"."""
    _check_kind(kind)
    _check_method(method)
    delta = g.max_degree
    if delta < 1:
        kind_len = g.node_count if kind == VERTEX else 0
        return DefectiveColoring(kind, tuple([0] * kind_len), 2, 0.5, q, 1.0,
                                 edges=g.edges())
    threshold = split_threshold(max(delta, 2), q)
    if kind == VERTEX:
        bits, used = _split_vertex_class(
            list(g.adjacency), q, cfg, derive_seed(seed, "vertex_split"), method)
        edges = ()
    else:
        edges = g.edges()
        (bits, _), used = _split_edge_class(
            g.node_count, edges, [len(a) for a in g.adjacency], q, cfg,
            derive_seed(seed, "edge_split"), method)
    coloring = DefectiveColoring(
        kind=kind,
        colors=tuple(bits),
        color_count=2,
        x=delta / 2,
        q=2 * q * _lg_clamped(delta),
        defect_bound=threshold,
        edges=edges,
        history=(({"method": used, "delta": delta}),),
    )
    achievable = threshold > (delta // 2 if kind == VERTEX else (delta + 1) // 2)
    if kind == EDGE and delta % 2 == 0 and threshold <= delta // 2 + 1:
        achievable = not _odd_regular_component(g)
    violations = defect_violations(g, coloring)
    if violations and achievable:
        raise ContractViolation(
            f"two-way split exceeded its load bound: {violations[:3]}"
        )
    return coloring


def _odd_regular_component(g: Graph) -> bool:
    """Whether some component of ``g`` has all degrees equal to
    ``g.max_degree`` and an odd edge count; if that degree is even, every
    edge split gives one of its vertices max_degree/2 + 1 of one color."""
    delta, uf = g.max_degree, _UnionFind(range(g.node_count))
    for u, v in g.edges():
        uf.union(u, v)
    sizes = Counter(map(uf.find, range(g.node_count)))
    irregular = {uf.find(v) for v in range(g.node_count) if g.degree(v) < delta}
    return any(delta * size // 2 % 2 for root, size in sizes.items()
               if root not in irregular)


def iterate_halving(g: Graph, kind: str, q: float, cfg: ThresholdConfig,
                    seed: int, method: str = "balanced") -> DefectiveColoring:
    """Repeatedly split every color class in two, asserting the inductive
    class-degree bound after each iteration; classes within an iteration are
    disjoint and solved independently under class-keyed seeds. A class is
    (label, ascending objects, local), with ``local`` each vertex's class
    degree (edge kind) or each member's class neighbors by member index
    (vertex kind); its nonempty halves become labels 2L and 2L + 1.
    ``method`` is "balanced" or "lll", as in ``split_once``."""
    _check_kind(kind)
    _check_method(method)
    if q < 1:
        raise InputError("q must be at least 1")
    delta = g.max_degree
    n = g.node_count
    edges = g.edges() if kind == EDGE else ()
    n_objects = n if kind == VERTEX else len(edges)
    local = list(g.adjacency) if kind == VERTEX else [len(a) for a in g.adjacency]
    classes = [(0, list(range(n_objects)), local)]
    k = halving_iterations(delta, q)
    if cfg.guarantee_grade and not split_precondition_ok(delta, q):
        raise InputError(
            f"q = {q} outside the admissible window for degree {delta} on the "
            "strict path"
        )
    if k < 1:
        return DefectiveColoring(kind, tuple([0] * n_objects), 1, float(max(delta, 1)),
                                 q, float(delta + 2), edges=edges, classes=tuple(classes))
    floor_val = iteration_floor(q)
    for i in range(1, k + 1):
        if inductive_bound(delta, q, i - 1) < 2 * floor_val:  # entering iteration i
            raise ContractViolation(
                f"iteration arithmetic broke at i={i}: class degree bound "
                f"{inductive_bound(delta, q, i - 1):.2f} below {2 * floor_val:.2f}"
            )

    history = []
    for i in range(1, k + 1):
        halves = []
        methods_used = set()
        for label, objs, local in classes:
            class_seed = derive_seed(seed, "halve", i, label)
            if kind == VERTEX:
                bits, used = _split_vertex_class(local, q, cfg, class_seed, method)
                split = _vertex_halves(objs, local, bits)
            else:
                (bits, ones), used = _split_edge_class(
                    n, [edges[e] for e in objs], local, q, cfg, class_seed, method)
                split = _edge_halves(objs, local, bits, ones)
            methods_used.add(used)
            halves += [(2 * label + bit, members, half_local)
                       for bit, (members, half_local) in enumerate(split) if members]
        if sum(len(members) for _, members, _ in halves) != n_objects:
            raise ContractViolation("classes must partition the objects")
        measured = max(max(map(len, local)) if kind == VERTEX else max(local)
                       for _, _, local in halves)
        bound = inductive_bound(delta, q, i)
        if measured > bound:
            if (i == 1 and kind == EDGE and delta % 2 == 0
                    and _odd_regular_component(g)):
                raise InputError(
                    f"iteration 1: measured class degree {measured} exceeds inductive "
                    f"bound {bound:.3f} on a graph with a {delta}-regular component "
                    "of odd edge count, which no edge split keeps within ceil(deg/2) "
                    "(the split contract's one exception)"
                )
            raise ContractViolation(
                f"iteration {i}: measured class degree {measured} exceeds "
                f"inductive bound {bound:.3f}"
            )
        history.append({
            "iteration": i,
            "classes": len(classes),
            "max_class_degree": measured,
            "bound": bound,
            "methods": sorted(methods_used),
        })
        classes = halves

    labels = [0] * n_objects
    for label, objs, _ in classes:
        for obj in objs:
            labels[obj] = label
    x = delta / 2 ** k
    L = _lg_clamped(delta)
    q_out = q * L / k
    return DefectiveColoring(
        kind=kind,
        colors=tuple(labels),
        color_count=2 ** k,
        x=x,
        q=q_out,
        defect_bound=x + x / q_out,
        edges=edges,
        history=tuple(history),
        classes=tuple(classes),
    )


def _vertex_halves(objs, adjacency, bits):
    """The (members, adjacency) halves of a vertex class: each member keeps
    its same-bit neighbors, in order, numbered by their index in the half."""
    halves = (([], []), ([], []))
    index = []
    for obj, bit in zip(objs, bits):
        index.append(len(halves[bit][0]))
        halves[bit][0].append(obj)
    for nbrs, bit in zip(adjacency, bits):
        halves[bit][1].append([index[w] for w in nbrs if bits[w] == bit])
    return halves


def _edge_halves(objs, degree, bits, ones):
    """The (members, degree) halves of an edge class: half 1's degrees are
    the split's ``ones``, and half 0's are the rest."""
    members = ([], [])
    for obj, bit in zip(objs, bits):
        members[bit].append(obj)
    return (members[0], [d - one for d, one in zip(degree, ones)]), (members[1], ones)
