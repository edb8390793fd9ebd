"""Undirected graph and partition primitives used by every pipeline stage.

Graphs are immutable after construction: adjacency is stored as sorted
tuples so iteration order is deterministic, which the seeded solvers rely
on for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import lt

from .errors import InputError


class Graph:
    """Simple undirected graph over dense node ids 0..n-1."""

    __slots__ = ("node_count", "adjacency", "max_degree", "_edges")

    def __init__(self, node_count: int, edges):
        if node_count < 0:
            raise InputError("node_count must be nonnegative")
        # The edges' shapes and endpoint types, each in one C-level pass.
        edges = list(edges)
        if not ({*map(type, edges)} <= {tuple, list} and {*map(len, edges)} <= {2}
                and {*map(type, chain.from_iterable(edges))} <= {int}):
            bad = next(e for e in edges if type(e) not in (tuple, list) or len(e) != 2
                       or not {*map(type, e)} <= {int})
            raise InputError(f"edge {bad!r} is not a pair of ints")
        adj = [[] for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InputError(f"edge ({u}, {v}) out of range for {node_count} nodes")
            if u == v:
                raise InputError(f"self-loop at node {u}")
            adj[u].append(v)
            adj[v].append(u)
        # A repeated pair shows up as two equal neighbours once sorted.
        for u, nbrs in enumerate(adj):
            nbrs.sort()
            if not all(map(lt, nbrs, islice(nbrs, 1, None))):
                v = next(v for v, w in zip(nbrs, nbrs[1:]) if v == w)
                raise InputError(f"duplicate edge ({u}, {v})")
        self.node_count, self.adjacency, self._edges = node_count, tuple(map(tuple, adj)), None
        self.max_degree = max(map(len, adj), default=0)

    @classmethod
    def from_adjacency(cls, adjacency: tuple) -> "Graph":
        """The graph whose node v has the sorted neighbours ``adjacency[v]``,
        which the caller built symmetric, in range and loop-free: unlike
        ``Graph(n, edges)``, it checks nothing."""
        g = cls.__new__(cls)
        g.node_count, g.adjacency, g._edges = len(adjacency), adjacency, None
        g.max_degree = max(map(len, adjacency), default=0)
        return g

    @classmethod
    def empty(cls, node_count: int) -> "Graph":
        return cls(node_count, [])

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int):
        return self.adjacency[v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def edges(self) -> tuple:
        """The edges as sorted (u, v) pairs with u < v, built once."""
        if self._edges is None:
            self._edges = tuple((u, v) for u, nbrs in enumerate(self.adjacency)
                                for v in nbrs if u < v)
        return self._edges

    def __repr__(self):
        return f"Graph(n={self.node_count}, m={self.edge_count()}, max_degree={self.max_degree})"


def neighbors_within(g: Graph, v: int, k: int) -> set:
    """Nodes at graph distance <= k from v, excluding v itself.

    k = 0 returns the empty set. Computed by truncated BFS, one level at a
    time.
    """
    if not 0 <= v < g.node_count:
        raise InputError(f"node {v} out of range")
    if k < 0:
        raise InputError("hop count must be nonnegative")
    found = {v}
    frontier = (v,)
    for _ in range(k):
        reached = set()
        for u in frontier:
            reached.update(g.adjacency[u])
        frontier = reached - found
        found |= frontier
    found.discard(v)
    return found


@dataclass(frozen=True)
class Partition:
    """Ordered partition of 0..n-1 into parts 0..part_count-1.

    Used both as the event partition driving the staged solver and as a
    node partition of a plain graph; part order is meaningful (parts are
    processed in index order).
    """

    part_count: int
    assignment: tuple

    def __post_init__(self):
        if type(self.part_count) is not int:
            raise InputError(f"part count {self.part_count!r} is not an int")
        if self.part_count < 1:
            raise InputError("partition needs at least one part")
        if not {*map(type, self.assignment)} <= {int}:
            i, p = next((i, p) for i, p in enumerate(self.assignment) if type(p) is not int)
            raise InputError(f"item {i} assigned to part {p!r}, which is not an int")
        for i, p in enumerate(self.assignment):
            if not 0 <= p < self.part_count:
                raise InputError(f"item {i} assigned to invalid part {p}")

    @property
    def size(self) -> int:
        return len(self.assignment)

    def part_of(self, i: int) -> int:
        return self.assignment[i]

    def parts(self):
        """Members of each part, in ascending id order."""
        out = [[] for _ in range(self.part_count)]
        for i, p in enumerate(self.assignment):
            out[p].append(i)
        return out

    @classmethod
    def singleton(cls, n: int) -> "Partition":
        return cls(1, tuple([0] * n))

    @classmethod
    def round_robin(cls, n: int, r: int) -> "Partition":
        return cls(r, tuple(i % r for i in range(n)))

    @classmethod
    def contiguous(cls, n: int, r: int) -> "Partition":
        """Split 0..n-1 into r contiguous blocks with sizes differing by <= 1."""
        if r < 1 or r > max(n, 1):
            raise InputError(f"cannot split {n} items into {r} parts")
        base, extra = divmod(n, r)
        assignment = []
        for p in range(r):
            assignment.extend([p] * (base + (1 if p < extra else 0)))
        return cls(r, tuple(assignment))


def per_part_neighbor_counts(g: Graph, part: Partition, v: int) -> list:
    """Count of v's neighbors landing in each part; entries sum to deg(v)."""
    if part.size != g.node_count:
        raise InputError(
            f"partition covers {part.size} nodes but graph has {g.node_count}"
        )
    if not 0 <= v < g.node_count:
        raise InputError(f"node {v} out of range")
    counts = [0] * part.part_count
    for w in g.adjacency[v]:
        counts[part.assignment[w]] += 1
    return counts


def load_graph(path) -> Graph:
    """Read an edge-list file: one ``u v`` pair per line, '#' comments.

    The first non-comment line must be ``n <node_count>``. Duplicates and
    self-loops are rejected.
    """
    edges = []
    node_count = None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: UnicodeDecodeError: {exc}") from None
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if node_count is None:
                if fields[0] != "n" or len(fields) != 2:
                    raise InputError(f"{path}:{lineno}: expected header 'n <count>'")
                fields = fields[1:]
            elif len(fields) != 2:
                raise InputError(f"{path}:{lineno}: expected 'u v'")
            try:
                numbers = tuple(int(f) for f in fields)
            except ValueError:
                raise InputError(
                    f"{path}:{lineno}: non-integer token in {line!r}") from None
            if node_count is None:
                node_count = numbers[0]
            else:
                edges.append(numbers)
    if node_count is None:
        raise InputError(f"{path}: missing 'n <count>' header")
    return Graph(node_count, edges)


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.node_count}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")
