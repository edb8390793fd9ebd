"""Proper edge coloring with max_degree + 1 colors.

Classic centralized fan-rotation method: color edges one at a time; when no
color is free at both endpoints, build a maximal fan at one endpoint,
invert a two-color alternating path to free a shared color, then rotate a
fan prefix. Deterministic: ties always break toward the smallest color or
vertex id.
"""

from __future__ import annotations

from .errors import ContractViolation, InputError


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


def proper_coloring_violations(n: int, edges, colors):
    """Pairs of incident edges sharing a color, as (vertex, e1, e2) edge
    indexes, ordered by vertex and then by edge index (uncolored edges
    never clash).

    Independent of the colorer and linear in the edge count: a set of
    each vertex's colors finds the vertices with a repeated color, and
    only those get the pairwise listing."""
    present = [[] for _ in range(n)]
    for (u, v), c in zip(edges, colors):
        if c is not None:
            present[u].append(c)
            present[v].append(c)
    clashing = [v for v in range(n) if len(set(present[v])) < len(present[v])]
    if not clashing:
        return []
    by_vertex = {v: [] for v in clashing}
    for idx, (u, v) in enumerate(edges):
        for end in (u, v):
            if end in by_vertex:
                by_vertex[end].append(idx)
    bad = []
    for v in clashing:
        incident = by_vertex[v]
        for i, e1 in enumerate(incident):
            for e2 in incident[i + 1:]:
                if colors[e1] is not None and colors[e1] == colors[e2]:
                    bad.append((v, e1, e2))
    return bad
