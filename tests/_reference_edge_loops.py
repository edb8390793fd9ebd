"""Reference copies of the edge-split walk and the fan-rotation colorer.

These are the earlier implementations of ``defective.balanced_edge_split``
(closure walk over ``(edge id, endpoint)`` adjacency, a walk from every
vertex, with its unread ``seed`` parameter) and
``misra_gries.misra_gries_edge_coloring`` (dict of colors per vertex, one
helper call per step), kept verbatim so that the differential tests can
require the library's loops to give the same bits and colors, edge for edge.
"""

from resilient_lll.defective import _repair_edge_split
from resilient_lll.errors import ContractViolation, InputError


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
