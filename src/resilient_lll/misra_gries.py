"""Proper edge coloring with max_degree + 1 colors.

Classic centralized fan-rotation method: color edges one at a time; build
a maximal fan at the busier endpoint, invert a two-color alternating path
when the last fan vertex's smallest free color is taken at that endpoint,
then rotate a fan prefix. Deterministic: ties always break toward the smallest color or
vertex id. Each vertex keeps a row indexed by color that holds the edge of
that color there, so a vertex's smallest free color is the first empty slot
of its row.
"""

from __future__ import annotations

from .errors import ContractViolation, InputError


def misra_gries_edge_coloring(n: int, edges, degree, palette_size=None):
    """Color ``edges`` (pairs over 0..n-1) properly with colors
    0..palette_size-1; ``degree`` holds each vertex's degree in ``edges``,
    and the palette defaults to max degree + 1."""
    xor = [u ^ v for u, v in edges]  # the far endpoint of e from v is xor[e] ^ v
    if 0 in xor:
        raise InputError("self-loops cannot be edge colored")
    delta = max(degree, default=0)
    palette = palette_size if palette_size is not None else delta + 1
    if palette < delta + 1:
        raise InputError(f"palette {palette} below max degree + 1 = {delta + 1}")

    color = [None] * len(edges)
    # at[v][c]: the edge of color c at vertex v, or None if c is free at v
    at = [[None] * palette for _ in range(n)]

    def recolor(eids, new_colors):
        """Give edge eids[i] the color new_colors[i]: uncolor them all
        first, so that a clash found while coloring is a real one."""
        for eidx in eids:
            old = color[eidx]
            if old is not None:
                a, b = edges[eidx]
                at[a][old] = None
                at[b][old] = None
                color[eidx] = None
        for eidx, c in zip(eids, new_colors):
            a, b = edges[eidx]
            row_a, row_b = at[a], at[b]
            if row_a[c] is not None or row_b[c] is not None:
                raise ContractViolation("transient color clash")
            row_a[c] = eidx
            row_b[c] = eidx
            color[eidx] = c

    def invert_path(u, c, d):
        """Flip colors along the maximal c/d-alternating path leaving u
        through its d-edge."""
        path = []
        cur, col = u, d
        while True:
            eidx = at[cur][col]
            if eidx is None:
                break
            path.append(eidx)
            cur ^= xor[eidx]
            col = c if col == d else d
        recolor(path, [c if color[eidx] == d else d for eidx in path])

    for e0, (u, v) in enumerate(edges):
        if degree[v] > degree[u]:
            u, v = v, u  # anchor the fan at the busier endpoint
        u_at = at[u]
        # The maximal fan v = fan[0], fan[1], ... at u: each next u-edge
        # has the smallest color free at the previous fan vertex whose far
        # end is not in the fan yet.
        fan = [v]
        fan_edges = [e0]
        tail_at = at[v]
        while True:
            for c, eidx in enumerate(u_at):
                if eidx is not None and tail_at[c] is None:
                    w = xor[eidx] ^ u
                    if w not in fan:
                        break
            else:
                break
            fan.append(w)
            fan_edges.append(eidx)
            tail_at = at[w]
        try:
            c = u_at.index(None)  # the smallest color free at u
            d = tail_at.index(None)  # and at the last fan vertex
        except ValueError:
            stuck = u if None not in u_at else fan[-1]
            raise ContractViolation(f"no free color at vertex {stuck}") from None
        if u_at[d] is None:
            w_idx = len(fan) - 1
        else:
            invert_path(u, c, d)
            if u_at[d] is not None:
                raise ContractViolation("path inversion failed to free color")
            # The first fan vertex with d free whose prefix is still a fan.
            w_idx = None
            for i, x in enumerate(fan):
                if at[x][d] is not None:
                    continue
                for j in range(i):
                    nxt_color = color[fan_edges[j + 1]]
                    if nxt_color is None or at[fan[j]][nxt_color] is not None:
                        break
                else:
                    w_idx = i
                    break
            if w_idx is None:
                raise ContractViolation("no rotatable fan prefix after inversion")
        # Rotate: each fan edge up to w takes its successor's color, and
        # the edge to w takes d.
        recolor(fan_edges[:w_idx + 1],
                [color[e] for e in fan_edges[1:w_idx + 1]] + [d])

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
