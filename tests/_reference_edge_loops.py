"""Reference copies of the edge-split walk and its repair pass, the
fan-rotation colorer, the halving loop and the split-instance builder.

These are the earlier implementations of ``defective.balanced_edge_split``
(closure walk over ``(edge id, endpoint)`` adjacency, a walk from every
vertex, with its unread ``seed`` parameter, followed by the repair pass
that the library's split no longer has),
``misra_gries.misra_gries_edge_coloring`` (dict of colors per vertex, one
helper call per step), ``defective.iterate_halving`` (labels regrouped into
a class dict and every load recounted each iteration, each class's degrees
counted again by its split), the bucketed branch of
``edge_coloring.color_edges`` (labels regrouped into buckets, each bucket's
degrees counted again) and ``defective.build_split_instance`` (one loop
per kind), kept verbatim so that the differential tests can require the
library's loops to give the same bits, labels, history, colors and
instances, edge for edge. The copied loops call the library's edge split,
imported as ``library_edge_split`` since this module keeps the older walk
under its own name. The halving loop has three later changes. On its
failure path, a first-iteration overshoot on a graph with an
odd-edge-count regular component of even degree, the split contract's
stated exception, raises the library's ``InputError`` rather than a
``ContractViolation``. Its bound check reads the library's
``inductive_bound`` at ``i - 1``, the value of the deleted
``inductive_degree`` at ``i``. After the last iteration, a class degree
that reaches the strict defect bound raises ``ContractViolation`` rather
than returning a coloring that breaks its own bound.
"""

from resilient_lll import general
from resilient_lll.config import ThresholdConfig
from resilient_lll.defective import (
    EDGE,
    VERTEX,
    DefectiveColoring,
    _lg_clamped,
    _odd_regular_component,
    _check_kind,
    _split_vertex_class,
    balanced_edge_split as library_edge_split,
    halving_iterations,
    inductive_bound,
    iteration_floor,
    split_precondition_ok,
    split_threshold,
)
from resilient_lll.errors import ContractViolation, InputError, ReductionViolation
from resilient_lll.graph import Graph
from resilient_lll.model import CountThreshold, EventSpec, VariableSpec, build_instance
from resilient_lll.seeds import derive_seed

REPAIR_PASSES = 4  # sweeps of the edge-split repair before giving up


def balanced_edge_split(n: int, edges, seed: int):
    """Two-color edges so every vertex has at most ceil(deg/2) incident
    edges per color.

    Walk each component along an alternating-color trail: odd-degree
    vertices are tied to a virtual hub so every real vertex is balanced by
    the in/out pairing, and the odd-trail seam lands on the hub whenever one
    exists (otherwise a repair pass shifts the stray unit to a neighbor with
    slack)."""
    m = len(edges)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    odd = [v for v in range(n) if degree[v] % 2 == 1]
    hub = n
    all_edges = list(edges) + [(hub, v) for v in odd]
    adjacency = [[] for _ in range(n + 1)]
    for idx, (u, v) in enumerate(all_edges):
        adjacency[u].append((idx, v))
        adjacency[v].append((idx, u))

    used = [False] * len(all_edges)
    pointer = [0] * (n + 1)
    bits = [0] * len(all_edges)

    def walk(start):
        """Hierholzer circuit from start; returns edge ids in circuit order
        (reversed traversal, which preserves consecutive adjacency)."""
        stack = [(start, None)]
        trail = []
        while stack:
            v, entry = stack[-1]
            advanced = False
            while pointer[v] < len(adjacency[v]):
                eid, w = adjacency[v][pointer[v]]
                pointer[v] += 1
                if not used[eid]:
                    used[eid] = True
                    stack.append((w, eid))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if entry is not None:
                    trail.append(entry)
        return trail

    # The hub first, so odd components wrap their seam there; even-degree
    # components start at a minimum-degree vertex, which absorbs any seam
    # with the least damage.
    order = ([hub] if odd else []) + sorted(
        range(n), key=lambda v: (degree[v], v)
    )
    for start in order:
        trail = walk(start)
        for pos, eid in enumerate(trail):
            bits[eid] = pos % 2

    colors = bits[:m]
    _repair_edge_split(n, edges, degree, colors)
    return colors


def _repair_edge_split(n, edges, degree, colors):
    counts = ([0] * n, [0] * n)  # counts[c][v]: v's incident edges of color c
    for (u, v), c in zip(edges, colors):
        of_color = counts[c]
        of_color[u] += 1
        of_color[v] += 1
    cap = [(d + 1) // 2 for d in degree]
    incident = [[] for _ in range(n)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        incident[v].append(idx)

    for _ in range(REPAIR_PASSES):
        dirty = False
        for v in range(n):
            for c in (0, 1):
                here, there = counts[c], counts[1 - c]
                while here[v] > cap[v]:
                    moved = False
                    for idx in incident[v]:
                        if colors[idx] != c:
                            continue
                        u, w = edges[idx]
                        other = w if u == v else u
                        if there[other] + 1 <= cap[other]:
                            colors[idx] = 1 - c
                            here[v] -= 1
                            there[v] += 1
                            here[other] -= 1
                            there[other] += 1
                            moved = True
                            dirty = True
                            break
                    if not moved:
                        break
        if not dirty:
            break
    return counts[1]  # each vertex's color-1 count


def misra_gries_edge_coloring(n: int, edges, palette_size=None):
    """Color ``edges`` (pairs over 0..n-1) properly with colors
    0..palette_size-1; palette defaults to max degree + 1."""
    degree = [0] * n
    for u, v in edges:
        if u == v:
            raise InputError("self-loops cannot be edge colored")
        degree[u] += 1
        degree[v] += 1
    delta = max(degree, default=0)
    palette = palette_size if palette_size is not None else delta + 1
    if palette < delta + 1:
        raise InputError(f"palette {palette} below max degree + 1 = {delta + 1}")

    color = [None] * len(edges)
    used = [dict() for _ in range(n)]  # vertex -> {color: edge index}

    def other(eidx, v):
        a, b = edges[eidx]
        return b if a == v else a

    def is_free(v, c):
        return c not in used[v]

    def free_color(v):
        for c in range(palette):
            if c not in used[v]:
                return c
        raise ContractViolation(f"no free color at vertex {v}")

    def set_color(eidx, c):
        a, b = edges[eidx]
        old = color[eidx]
        if old is not None:
            del used[a][old]
            del used[b][old]
        color[eidx] = c
        if c is not None:
            if c in used[a] or c in used[b]:
                raise ContractViolation("transient color clash")
            used[a][c] = eidx
            used[b][c] = eidx

    def maximal_fan(u, v0, e0):
        """Vertices v0.. and their u-edges; each next edge's color is free
        at the previous fan vertex."""
        fan = [v0]
        fan_edges = [e0]
        members = {v0}
        while True:
            tail = fan[-1]
            nxt = None
            for c in range(palette):
                if c in used[tail]:
                    continue
                eidx = used[u].get(c)
                if eidx is None:
                    continue
                w = other(eidx, u)
                if w in members:
                    continue
                nxt = (w, eidx)
                break
            if nxt is None:
                return fan, fan_edges
            fan.append(nxt[0])
            fan_edges.append(nxt[1])
            members.add(nxt[0])

    def invert_path(u, c, d):
        """Flip colors along the maximal c/d-alternating path leaving u
        through its d-edge."""
        path = []
        cur, col = u, d
        while True:
            eidx = used[cur].get(col)
            if eidx is None:
                break
            path.append(eidx)
            cur = other(eidx, cur)
            col = c if col == d else d
        flips = [(eidx, c if color[eidx] == d else d) for eidx in path]
        for eidx, _ in flips:
            set_color(eidx, None)
        for eidx, new in flips:
            set_color(eidx, new)

    def prefix_is_fan(u, fan, fan_edges, end):
        for j in range(end):
            nxt_color = color[fan_edges[j + 1]]
            if nxt_color is None or not is_free(fan[j], nxt_color):
                return False
        return True

    for e0 in range(len(edges)):
        u, v = edges[e0]
        if degree[v] > degree[u]:
            u, v = v, u  # anchor the fan at the busier endpoint
        fan, fan_edges = maximal_fan(u, v, e0)
        c = free_color(u)
        d = free_color(fan[-1])
        if is_free(u, d):
            w_idx = len(fan) - 1
        else:
            invert_path(u, c, d)
            if not is_free(u, d):
                raise ContractViolation("path inversion failed to free color")
            w_idx = None
            for i in range(len(fan)):
                if is_free(fan[i], d) and prefix_is_fan(u, fan, fan_edges, i):
                    w_idx = i
                    break
            if w_idx is None:
                raise ContractViolation("no rotatable fan prefix after inversion")
        targets = [color[fan_edges[i + 1]] for i in range(w_idx)]
        for i in range(w_idx + 1):
            set_color(fan_edges[i], None)
        for i, target in enumerate(targets):
            set_color(fan_edges[i], target)
        set_color(fan_edges[w_idx], d)

    return color


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
    if kind == VERTEX:
        variables = [VariableSpec.fair_bit()] * g.node_count
        events = []
        allocation = {}
        for v in range(g.node_count):
            deps = tuple(sorted({v, *g.neighbors(v)}))
            groups = (tuple(g.neighbors(v)),) if g.degree(v) else ((v,),)
            thr = threshold if g.degree(v) else g.node_count + 1
            events.append(
                EventSpec(v, deps, CountThreshold(groups=groups, threshold=thr,
                                                  ref_var=v))
            )
            allocation[v] = v
        return build_instance(variables, events, allocation)

    edges = g.edges()
    incident = [[] for _ in range(g.node_count)]
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    variables = [VariableSpec.fair_bit()] * len(edges)
    events = []
    allocation = {}
    for i, (u, v) in enumerate(edges):
        deps = tuple(sorted(set(incident[u]) | set(incident[v])))
        groups = (tuple(incident[u]), tuple(incident[v]))
        events.append(
            EventSpec(i, deps, CountThreshold(groups=groups, threshold=threshold,
                                              ref_var=i))
        )
        allocation[i] = i
    return build_instance(variables, events, allocation)


def _split_edge_class(n, edges, q, cfg, seed, method):
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    delta = max(degree, default=0)
    if method == "balanced" or delta <= 1:
        return library_edge_split(n, edges, degree)[0], "balanced"
    sub = Graph(n, edges)
    inst = build_split_instance(sub, EDGE, q)
    order = {e: i for i, e in enumerate(sub.edges())}
    res = general.solve_general(inst, None, cfg, seed, mode="relaxed")
    return [res.assignment[order[e]] for e in edges], "lll"


def iterate_halving(g: Graph, kind: str, q: float, cfg: ThresholdConfig,
                    seed: int, method: str = "balanced") -> DefectiveColoring:
    """Repeatedly split every color class in two, asserting the inductive
    class-degree bound after each iteration; classes within an iteration are
    disjoint and solved independently under class-keyed seeds."""
    if kind not in (VERTEX, EDGE):
        raise InputError(f"kind must be vertex or edge, got {kind!r}")
    if q < 1:
        raise InputError("q must be at least 1")
    delta = g.max_degree
    edges = tuple(g.edges()) if kind == EDGE else ()
    n_objects = g.node_count if kind == VERTEX else len(edges)
    k = halving_iterations(delta, q)
    if cfg.guarantee_grade and not split_precondition_ok(delta, q):
        raise InputError(
            f"q = {q} outside the admissible window for degree {delta} on the "
            "strict path"
        )
    if k < 1:
        bound = float(delta + 1)
        return DefectiveColoring(kind, tuple([0] * n_objects), 1,
                                 float(max(delta, 1)), q, bound + 1, edges=edges)
    floor_val = iteration_floor(q)
    for i in range(1, k + 1):
        if inductive_bound(delta, q, i - 1) < 2 * floor_val:
            raise ContractViolation(
                f"iteration arithmetic broke at i={i}: class degree bound "
                f"{inductive_bound(delta, q, i - 1):.2f} below {2 * floor_val:.2f}"
            )

    labels = [0] * n_objects
    history = []
    for i in range(1, k + 1):
        classes = {}
        for obj, label in enumerate(labels):
            classes.setdefault(label, []).append(obj)
        seen = sum(len(v) for v in classes.values())
        if seen != n_objects:
            raise ContractViolation("classes must partition the objects")
        methods_used = set()
        for label in sorted(classes):
            objs = classes[label]
            class_seed = derive_seed(seed, "halve", i, label)
            if kind == VERTEX:
                local = {v: li for li, v in enumerate(objs)}
                adjacency = [
                    [local[w] for w in g.neighbors(v) if w in local]
                    for v in objs
                ]
                bits, used = _split_vertex_class(adjacency, q, cfg, class_seed,
                                                 method)
            else:
                class_edges = [edges[e] for e in objs]
                bits, used = _split_edge_class(g.node_count, class_edges, q,
                                               cfg, class_seed, method)
            methods_used.add(used)
            for obj, bit in zip(objs, bits):
                labels[obj] = labels[obj] * 2 + bit
        measured = _max_class_degree(g, kind, labels, edges)
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
        x = delta / 2 ** k
        q_out = q * _lg_clamped(delta) / k
        if i == k and measured >= x + x / q_out:
            raise ContractViolation(
                f"iteration {i}: measured class degree {measured} reaches the strict "
                f"defect bound {x + x / q_out:.3f}"
            )
        history.append({
            "iteration": i,
            "classes": len(classes),
            "max_class_degree": measured,
            "bound": bound,
            "methods": sorted(methods_used),
        })

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
    )


def _edge_label_loads(n: int, edges, labels):
    """Each vertex's incident edge count per label, recounted from the
    labels alone: a flat list indexed ``v * stride + label`` (so in
    (vertex, label) order), with stride the largest label plus one.

    Linear in the edge count; the list holds n * stride entries."""
    if labels and min(labels) < 0:
        raise InputError("edge labels must be non-negative integers")
    stride = max(labels, default=0) + 1
    loads = [0] * (n * stride)
    for (u, v), label in zip(edges, labels):
        loads[u * stride + label] += 1
        loads[v * stride + label] += 1
    return loads, stride


def _max_class_degree(g: Graph, kind: str, labels, edges) -> int:
    if kind == VERTEX:
        worst = 0
        for v in range(g.node_count):
            same = sum(1 for w in g.neighbors(v) if labels[w] == labels[v])
            worst = max(worst, same)
        return worst
    loads, _ = _edge_label_loads(g.node_count, edges, labels)
    return max(loads, default=0)


def color_edges_bucketed(g: Graph, plan, cfg: ThresholdConfig, seed: int):
    """The bucketed branch of ``color_edges``: per-edge colors in
    ``g.edges()`` order and the bucket degrees."""
    edges = tuple(g.edges())
    colors = [None] * len(edges)
    bucket_degrees = []
    defective = iterate_halving(g, EDGE, plan.q, cfg, derive_seed(seed, "buckets"))
    if defective.color_count != plan.palette.bucket_count:
        raise ReductionViolation(
            f"halving produced {defective.color_count} buckets, plan "
            f"expected {plan.palette.bucket_count}"
        )
    buckets = {}
    for idx, label in enumerate(defective.colors):
        buckets.setdefault(label, []).append(idx)
    for label in range(plan.palette.bucket_count):
        members = buckets.get(label, [])
        start, end = plan.palette.range(label)
        bucket_edges = [edges[i] for i in members]
        degree = [0] * g.node_count
        for u, v in bucket_edges:
            degree[u] += 1
            degree[v] += 1
        delta_b = max(degree)
        bucket_degrees.append(delta_b)
        if delta_b >= plan.delta_prime:
            raise ReductionViolation(
                f"bucket {label} degree {delta_b} reached the bound "
                f"{plan.delta_prime}"
            )
        if delta_b + 1 > end - start:
            raise ReductionViolation(
                f"bucket {label} needs {delta_b + 1} colors but its range "
                f"holds {end - start}"
            )
        raw = misra_gries_edge_coloring(g.node_count, bucket_edges)
        for i, c in zip(members, raw):
            colors[i] = start + c
    return colors, bucket_degrees
