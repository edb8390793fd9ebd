"""Proper edge coloring with max_degree + 1 colors.

Classic centralized fan-rotation method (Misra and Gries): color edges one
at a time. Build a maximal fan at the busier endpoint u and take d, the
smallest color free at the last fan vertex. If d is free at u, w is
that last vertex. Otherwise invert the two-color path leaving u through
its d-edge, alternating d with u's smallest free color, and let w be the
first fan vertex with d free, whose fan prefix the inversion leaves a
fan. Then rotate the prefix up to w in one backward pass from w: the
edge to w takes d and every earlier fan edge its successor's old color.
When w is the first fan vertex, the new edge takes d directly.
Deterministic: ties always break toward the smallest color or vertex id.
Each vertex keeps a row indexed by color that holds the edge of that
color there, so a vertex's smallest free color is the first empty slot
of its row.

The palette is always 0..Δ, Δ the largest given degree: a vertex's
smallest free color is never above Δ, so a wider palette would color
alike. An endpoint outside 0..n-1, a degree list of another length, a
self-loop, parallel edges that block a rotation and a degree list that
leaves a vertex no free color are InputErrors; parallel edges and wrong
degrees are looked for only on those failures.
"""

from __future__ import annotations

from itertools import chain

from .errors import ContractViolation, InputError


def misra_gries_edge_coloring(n: int, edges, degree):
    """Color ``edges`` (pairs over 0..n-1) properly with colors 0..Δ, Δ the
    largest entry of ``degree``, which holds each vertex's degree in
    ``edges``."""
    if len(degree) != n:
        raise InputError(f"degree has {len(degree)} entries for {n} vertices")
    if not set(range(n)).issuperset(chain.from_iterable(edges)):
        bad = next(e for e in edges if not (0 <= min(e) and max(e) < n))
        raise InputError(f"edge {bad} has an endpoint outside 0..{n - 1}")
    xor = [u ^ v for u, v in edges]  # the far endpoint of e from v is xor[e] ^ v
    if 0 in xor:
        raise InputError("self-loops cannot be edge colored")
    palette = max(degree, default=0) + 1

    color = [None] * len(edges)
    # at[v][c]: the edge of color c at vertex v, or None if c is free at v
    at = [[None] * palette for _ in range(n)]

    for e0, (u, v) in enumerate(edges):
        if degree[v] > degree[u]:
            u, v = v, u  # anchor the fan at the busier endpoint
        u_at = at[u]
        # The maximal fan v = fan[0], fan[1], ... at u: each next u-edge
        # has the smallest color free at the previous fan vertex whose far
        # end is not in the fan yet.
        fan, fan_edges, tail_at = [v], [e0], at[v]
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
            d = tail_at.index(None)  # the smallest color free at the last fan vertex
        except ValueError:
            stuck = u if None not in u_at else fan[-1]
            raise _no_free_color(n, edges, degree, stuck) from None
        if u_at[d] is None:
            w_idx = len(fan) - 1
        elif None not in u_at:
            raise _no_free_color(n, edges, degree, u)
        else:
            # Invert the maximal c/d-alternating path leaving u through its
            # d-edge, c the smallest color free at u: uncolor it all first,
            # so that a clash found while recoloring is a real one.
            flip = u_at.index(None) ^ d  # c ^ d turns either color into the other
            path = []
            cur, col = u, d
            while (eidx := at[cur][col]) is not None:
                path.append(eidx)
                cur ^= xor[eidx]
                col ^= flip
            for eidx in path:
                a, b = edges[eidx]
                at[a][color[eidx]] = at[b][color[eidx]] = None
            for eidx in path:
                a, b = edges[eidx]
                new = color[eidx] ^ flip
                if at[a][new] is not None or at[b][new] is not None:
                    raise ContractViolation("transient color clash")
                at[a][new] = at[b][new] = eidx
                color[eidx] = new
            if u_at[d] is not None:
                raise ContractViolation("path inversion failed to free color")
            # The first fan vertex with d free; its prefix is still a fan. No
            # u-edge has color c, so the inversion recolors one fan edge at
            # most: u's d-edge, to some j whose predecessor had d free. Of the
            # fan, only the path's far end changes which of c and d it has
            # free; if that is j - 1, it frees c and link j holds, else j - 1
            # keeps d free and ends the scan first. No other link uses c or d.
            w_idx = None
            for i, x in enumerate(fan):
                if at[x][d] is None:
                    w_idx = i
                    break
            if w_idx is None:
                if (pair := _parallel_pair(edges)) is not None:
                    raise InputError(f"parallel edges join {pair}: fan rotation "
                                     "needs a simple graph")
                raise ContractViolation("no rotatable fan prefix after inversion")
        if not w_idx:  # w is v: e0 takes d, free at both of its ends
            u_at[d] = at[v][d] = e0
            color[e0] = d
            continue
        # Rotate in one backward pass from w: the edge to w takes d, each
        # earlier fan edge its successor's old color. Only the fan vertex's
        # old slot is cleared: u's new slot is free or held by the edge that
        # just gave that color up, and the next step rewrites u's old one.
        nxt, gave = d, None
        for i in range(w_idx, -1, -1):
            eidx = fan_edges[i]
            x_at = at[fan[i]]
            old = color[eidx]
            if old is not None:
                x_at[old] = None
            if u_at[nxt] not in (None, gave) or x_at[nxt] is not None:
                raise ContractViolation("transient color clash")
            u_at[nxt] = x_at[nxt] = eidx
            color[eidx] = nxt
            nxt, gave = old, eidx

    return color


def _no_free_color(n, edges, degree, vertex):
    """The error for a vertex left with no free color: an InputError naming
    the first vertex whose given degree differs from its edge count, which
    shrinks the palette, or else a ContractViolation."""
    counted = [0] * n
    for u, v in edges:
        counted[u] += 1
        counted[v] += 1
    for x, (given, count) in enumerate(zip(degree, counted)):
        if given != count:
            return InputError(f"degree[{x}] = {given}, but vertex {x} has {count} edges")
    return ContractViolation(f"no free color at vertex {vertex}")


def _parallel_pair(edges):
    """The first repeated vertex pair (smaller id first) in ``edges``, or
    None if the edges are simple."""
    seen = set()
    for u, v in edges:
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            return pair
        seen.add(pair)
    return None


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
