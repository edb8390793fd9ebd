"""The constraint-instance data model.

An instance is a set of independent finite random variables plus a family
of bad events over them, each event owning (via the allocation) the
variables it is responsible for sampling. Two derived graphs drive the
solver: the dependency graph (events sharing any variable) and the
allocation graph (events linked through an owned variable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import CapacityError, ContractViolation, InputError
from .graph import Graph

WEIGHT_TOL = 1e-12
TRUTH_TABLE_MAX_ARITY = 20
BRUTE_FORCE_CAP = 1 << 24


@dataclass(frozen=True)
class VariableSpec:
    """A finite random variable: values 0..domain_size-1 with given weights."""

    var_id: int
    domain_size: int
    weights: tuple
    is_uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain_size < 1:
            raise InputError(f"variable {self.var_id}: empty domain")
        if len(self.weights) != self.domain_size:
            raise InputError(f"variable {self.var_id}: weight count != domain size")
        if any(w < 0 for w in self.weights):
            raise InputError(f"variable {self.var_id}: negative weight")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise InputError(f"variable {self.var_id}: weights sum to {sum(self.weights)}")
        w0 = self.weights[0]
        object.__setattr__(
            self, "is_uniform", all(abs(w - w0) <= WEIGHT_TOL for w in self.weights)
        )

    @classmethod
    def uniform(cls, var_id: int, domain_size: int) -> "VariableSpec":
        return cls(var_id, domain_size, tuple([1.0 / domain_size] * domain_size))

    @classmethod
    def fair_bit(cls, var_id: int) -> "VariableSpec":
        return cls.uniform(var_id, 2)

    def sample(self, rng) -> int:
        if self.is_uniform:
            return rng.randrange(self.domain_size)
        x = rng.random()
        acc = 0.0
        for value, w in enumerate(self.weights):
            acc += w
            if x < acc:
                return value
        return self.domain_size - 1


@dataclass(frozen=True)
class TruthTable:
    """Explicit satisfying assignments, as value tuples in dependency order."""

    rows: frozenset

    kind = "truth_table"

    def referenced(self, dependent_vars):
        return set(dependent_vars)

    def evaluate(self, values, dependent_vars) -> bool:
        return tuple(values[v] for v in dependent_vars) in self.rows

    def structurally_false(self, dependent_vars) -> bool:
        return not self.rows


@dataclass(frozen=True)
class CountThreshold:
    """Satisfied when, in some group, at least ``threshold`` of the listed
    variables equal the reference value (a designated variable's value, or a
    constant).

    Multiple groups cover per-endpoint counting: the event fires if any one
    group reaches the threshold.
    """

    groups: tuple          # tuple of tuples of var ids
    threshold: float
    ref_var: Optional[int] = None
    ref_value: Optional[int] = None

    kind = "count_threshold"

    def __post_init__(self):
        if (self.ref_var is None) == (self.ref_value is None):
            raise InputError("exactly one of ref_var/ref_value must be set")
        if not self.groups or any(len(g) == 0 for g in self.groups):
            raise InputError("count groups must be nonempty")

    def referenced(self, dependent_vars):
        refs = set()
        for g in self.groups:
            refs.update(g)
        if self.ref_var is not None:
            refs.add(self.ref_var)
        return refs

    def evaluate(self, values, dependent_vars) -> bool:
        ref = values[self.ref_var] if self.ref_var is not None else self.ref_value
        for group in self.groups:
            count = 0
            for v in group:
                if values[v] == ref:
                    count += 1
            if count >= self.threshold:
                return True
        return False

    def structurally_false(self, dependent_vars) -> bool:
        # Phrased so that a NaN threshold, which no count reaches, is false too.
        return not any(len(g) >= self.threshold for g in self.groups)


@dataclass(frozen=True)
class MaxPartLoad:
    """Satisfied when some single value appears at least ``threshold`` times
    among the listed variables."""

    counted: tuple
    threshold: float

    kind = "max_part_load"

    def referenced(self, dependent_vars):
        return set(self.counted)

    def evaluate(self, values, dependent_vars) -> bool:
        counts = {}
        for v in self.counted:
            val = values[v]
            c = counts.get(val, 0) + 1
            if c >= self.threshold:
                return True
            counts[val] = c
        return False

    def structurally_false(self, dependent_vars) -> bool:
        return len(self.counted) < self.threshold


PREDICATE_KINDS = {
    "truth_table": TruthTable,
    "count_threshold": CountThreshold,
    "max_part_load": MaxPartLoad,
}


@dataclass(frozen=True)
class EventSpec:
    """A bad event: a predicate over an ordered list of dependent variables."""

    event_id: int
    dependent_vars: tuple
    predicate: object

    def __post_init__(self):
        if len(set(self.dependent_vars)) != len(self.dependent_vars):
            raise InputError(f"event {self.event_id}: duplicate dependent vars")
        refs = self.predicate.referenced(self.dependent_vars)
        if not refs <= set(self.dependent_vars):
            missing = sorted(refs - set(self.dependent_vars))
            raise InputError(
                f"event {self.event_id}: predicate references vars {missing} "
                "outside its dependency list"
            )
        if isinstance(self.predicate, TruthTable):
            if len(self.dependent_vars) > TRUTH_TABLE_MAX_ARITY:
                raise InputError(
                    f"event {self.event_id}: truth tables limited to arity "
                    f"{TRUTH_TABLE_MAX_ARITY}"
                )

    def evaluate(self, values) -> bool:
        """values: mapping var id -> value covering all dependent vars."""
        return self.predicate.evaluate(values, self.dependent_vars)

    def structurally_false(self) -> bool:
        """True when no assignment can satisfy the predicate (cheap check)."""
        return self.predicate.structurally_false(self.dependent_vars)


class LllInstance:
    """Variables, events, allocation and the two derived graphs.

    Immutable after construction; safe to share across concurrent runs.
    """

    def __init__(self, variables, events, owner):
        self.variables = tuple(variables)
        self.events = tuple(events)
        self.owner = tuple(owner)  # var id -> owning event id
        allocated = [[] for _ in self.events]
        for v, a in enumerate(self.owner):
            # Unknown owners are reported by _validate.
            if isinstance(a, int) and 0 <= a < len(allocated):
                allocated[a].append(v)
        self.allocated = tuple(tuple(vs) for vs in allocated)
        self.dep_graph = self._build_dep_graph()
        self.alloc_graph = self._build_alloc_graph()
        self.d = self.dep_graph.max_degree
        self.d_vars = self.alloc_graph.max_degree
        # Events whose owned variables intersect an event's dependency set;
        # exactly these can perturb it by re-drawing their owned values.
        self.swap_neighbors = self._build_swap_neighbors()
        self._validate()

    @property
    def var_count(self) -> int:
        return len(self.variables)

    @property
    def event_count(self) -> int:
        return len(self.events)

    def _build_dep_graph(self) -> Graph:
        dependents = [[] for _ in self.variables]
        for ev in self.events:
            for v in ev.dependent_vars:
                dependents[v].append(ev.event_id)
        edges = set()
        for evs in dependents:
            for i, a in enumerate(evs):
                for b in evs[i + 1:]:
                    edges.add((a, b) if a < b else (b, a))
        return Graph(len(self.events), edges)

    def _build_alloc_graph(self) -> Graph:
        dependents = [[] for _ in self.variables]
        for ev in self.events:
            for v in ev.dependent_vars:
                dependents[v].append(ev.event_id)
        edges = set()
        for v in range(len(self.variables)):
            own = self.owner[v]
            for b in dependents[v]:
                if b != own:
                    edges.add((own, b) if own < b else (b, own))
        return Graph(len(self.events), edges)

    def _build_swap_neighbors(self):
        out = []
        for ev in self.events:
            deps = set(ev.dependent_vars)
            nbrs = sorted({self.owner[v] for v in deps})
            out.append(tuple(nbrs))
        return tuple(out)

    def _validate(self):
        for v, a in enumerate(self.owner):
            if not 0 <= a < len(self.events):
                raise InputError(f"variable {v} allocated to unknown event {a}")
            if v not in self.events[a].dependent_vars:
                raise InputError(
                    f"variable {v} allocated to event {a} which does not depend on it"
                )
        if self.d_vars > self.d:
            raise ContractViolation(f"allocation degree {self.d_vars} exceeds {self.d}")
        if self.d > 0 and not self.d < 2 * self.d_vars * self.d_vars:
            raise ContractViolation(
                f"dependency degree {self.d} vs allocation degree {self.d_vars}: "
                "expected d < 2*d_vars^2"
            )

    def support(self, var_ids) -> int:
        """Product of domain sizes, saturating above BRUTE_FORCE_CAP."""
        total = 1
        for v in var_ids:
            total *= self.variables[v].domain_size
            if total > BRUTE_FORCE_CAP:
                return total
        return total


def build_instance(variables, events, allocation=None) -> LllInstance:
    """Assemble an instance, deriving graphs and degree caches.

    When ``allocation`` (a var id -> event id mapping) is omitted, each
    variable goes to its lowest-id dependent event.
    """
    variables = sorted(variables, key=lambda v: v.var_id)
    events = sorted(events, key=lambda e: e.event_id)
    if [v.var_id for v in variables] != list(range(len(variables))):
        raise InputError("variable ids must be dense 0..n-1")
    if [e.event_id for e in events] != list(range(len(events))):
        raise InputError("event ids must be dense 0..n-1")
    n_vars = len(variables)
    for ev in events:
        for v in ev.dependent_vars:
            if not 0 <= v < n_vars:
                raise InputError(f"event {ev.event_id} references unknown variable {v}")
        if not ev.dependent_vars and not ev.structurally_false():
            raise InputError(
                f"event {ev.event_id} has no dependencies but can be satisfied"
            )
    if allocation is None:
        owner = [None] * n_vars
        for ev in events:
            for v in ev.dependent_vars:
                if owner[v] is None:
                    owner[v] = ev.event_id
        dangling = [v for v, a in enumerate(owner) if a is None]
        if dangling:
            raise InputError(f"variables {dangling} belong to no event")
    else:
        if isinstance(allocation, dict):
            owner = [allocation.get(v) for v in range(n_vars)]
        else:
            owner = list(allocation)
        if len(owner) != n_vars or any(a is None for a in owner):
            raise InputError("allocation must cover every variable")
    return LllInstance(variables, events, owner)


@dataclass
class ViolationReport:
    violated_events: list

    @property
    def valid(self) -> bool:
        return not self.violated_events


def check_assignment(inst: LllInstance, assignment) -> ViolationReport:
    """Evaluate every event; an empty violation list means a valid solution."""
    missing = [v for v in range(inst.var_count) if v not in assignment]
    if missing:
        raise InputError(f"assignment missing variables {missing[:10]}")
    violated = [ev.event_id for ev in inst.events if ev.evaluate(assignment)]
    return ViolationReport(violated)


def brute_force_solve(inst: LllInstance):
    """Exhaustively search for an assignment avoiding every event.

    Returns an assignment dict, or None when the instance is unsatisfiable.
    Ground-truth oracle only: refuses instances with more than 2^24 total
    assignments.
    """
    if inst.support(range(inst.var_count)) > BRUTE_FORCE_CAP:
        raise CapacityError("instance too large for exhaustive search")
    # Depth-first over variables, pruning events as soon as all their
    # dependencies are decided.
    events_by_last_var = [[] for _ in range(inst.var_count)]
    constant_events = []
    for ev in inst.events:
        if ev.dependent_vars:
            events_by_last_var[max(ev.dependent_vars)].append(ev)
        else:
            constant_events.append(ev)
    if any(ev.evaluate({}) for ev in constant_events):
        return None
    assignment = {}

    def descend(v):
        if v == inst.var_count:
            return True
        for value in range(inst.variables[v].domain_size):
            assignment[v] = value
            if not any(ev.evaluate(assignment) for ev in events_by_last_var[v]):
                if descend(v + 1):
                    return True
        del assignment[v]
        return False

    if descend(0):
        return dict(assignment)
    return None


# ---------------------------------------------------------------------------
# Serialization: structured-text instance files.

def _predicate_to_dict(ev: EventSpec) -> dict:
    p = ev.predicate
    if isinstance(p, TruthTable):
        params = {"rows": sorted(list(r) for r in p.rows)}
    elif isinstance(p, CountThreshold):
        params = {
            "groups": [list(g) for g in p.groups],
            "threshold": p.threshold,
            "ref_var": p.ref_var,
            "ref_value": p.ref_value,
        }
    elif isinstance(p, MaxPartLoad):
        params = {"counted": list(p.counted), "threshold": p.threshold}
    else:
        raise InputError(f"unserializable predicate {type(p).__name__}")
    return {"kind": p.kind, "params": params}


def _predicate_from_dict(data: dict):
    kind = data.get("kind")
    params = data.get("params", {})
    if kind == "truth_table":
        return TruthTable(frozenset(tuple(r) for r in params["rows"]))
    if kind == "count_threshold":
        return CountThreshold(
            groups=tuple(tuple(g) for g in params["groups"]),
            threshold=params["threshold"],
            ref_var=params.get("ref_var"),
            ref_value=params.get("ref_value"),
        )
    if kind == "max_part_load":
        return MaxPartLoad(tuple(params["counted"]), params["threshold"])
    raise InputError(f"unknown predicate kind {kind!r}")


def instance_to_dict(inst: LllInstance) -> dict:
    return {
        "variables": [
            {"id": v.var_id, "domain": v.domain_size, "weights": list(v.weights)}
            for v in inst.variables
        ],
        "events": [
            {
                "id": ev.event_id,
                "vars": list(ev.dependent_vars),
                "predicate": _predicate_to_dict(ev),
            }
            for ev in inst.events
        ],
        "allocation": {str(v): inst.owner[v] for v in range(inst.var_count)},
    }


def instance_from_dict(data: dict) -> LllInstance:
    variables = [
        VariableSpec(d["id"], d["domain"], tuple(float(w) for w in d["weights"]))
        for d in data["variables"]
    ]
    events = [
        EventSpec(d["id"], tuple(d["vars"]), _predicate_from_dict(d["predicate"]))
        for d in data["events"]
    ]
    allocation = None
    if data.get("allocation"):
        allocation = {int(k): v for k, v in data["allocation"].items()}
    return build_instance(variables, events, allocation)


def save_instance(inst: LllInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)


def load_instance(path) -> LllInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_assignment(assignment: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in sorted(assignment.items())}, fh, indent=0)


def load_assignment(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return {int(k): v for k, v in json.load(fh).items()}
