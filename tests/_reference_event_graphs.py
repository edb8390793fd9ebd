"""Reference builders of an instance's two event graphs.

``pair_set_graphs`` is the per-variable pair-set builder of the first
instance model: every pair of events sharing a variable, and every
(owner, dependent) pair of a variable, put in sets. ``edge_list_graphs``
is the builder that came after it: each event's neighbour set flattened to
the pairs (a, b) with a < b, which ``Graph(n, edges)`` re-buckets, sorts
and checks. The tests require ``LllInstance.dep_graph`` and
``alloc_graph``, which take each sorted neighbour set as an adjacency, to
equal both.
"""

from itertools import repeat

from resilient_lll.graph import Graph


def pair_set_graphs(inst):
    """(dependents, dep graph, alloc graph) from the variable incidence."""
    dependents = [[] for _ in inst.variables]
    for ev in inst.events:
        for v in ev.dependent_vars:
            dependents[v].append(ev.event_id)
    dep_edges = set()
    for evs in dependents:
        for i, a in enumerate(evs):
            for b in evs[i + 1:]:
                dep_edges.add((a, b) if a < b else (b, a))
    alloc_edges = set()
    for v in range(len(inst.variables)):
        own = inst.owner[v]
        for b in dependents[v]:
            if b != own:
                alloc_edges.add((own, b) if own < b else (b, own))
    n = len(inst.events)
    return dependents, Graph(n, dep_edges), Graph(n, alloc_edges)


def edge_list_graphs(inst):
    """(dep graph, alloc graph) through ``Graph(n, pairs)`` of each event's
    neighbour set."""
    owner, dependents = inst.owner, inst.dependents

    def event_graph(neighbour_sets):
        edges = []
        for a, nbrs in enumerate(neighbour_sets):
            edges.extend(zip(repeat(a), filter(a.__lt__, nbrs)))
        return Graph(len(inst.events), edges)

    dep = event_graph(set().union(*(dependents[v] for v in ev.dependent_vars))
                      for ev in inst.events)
    alloc = event_graph(
        {owner[v] for v in ev.dependent_vars}.union(*(dependents[v] for v in owned))
        for ev, owned in zip(inst.events, inst.allocated))
    return dep, alloc
