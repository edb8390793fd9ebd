"""The constraint-instance data model.

An instance is a set of independent finite random variables plus a family
of bad events over them, each event owning (via the allocation) the
variables it is responsible for sampling. A variable's id is its position
in the instance's variable list, and variables of one distribution share
one ``VariableSpec`` record. Two derived graphs drive the
solver: the dependency graph (events sharing any variable) and the
allocation graph (events linked through an owned variable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Optional

from .errors import ContractViolation, InputError, read_json
from .graph import Graph

WEIGHT_TOL = 1e-12
_INT = {int}
_domain_size = attrgetter("domain_size")
TRUTH_TABLE_MAX_ARITY = 20
BRUTE_FORCE_CAP = 1 << 24


@dataclass(frozen=True)
class VariableSpec:
    """A distribution over values 0..domain_size-1 with given weights. A
    variable is the spec at its position in ``LllInstance.variables``, its
    id; variables of one distribution may share one spec."""

    domain_size: int
    weights: tuple
    is_uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain_size < 1:
            raise InputError("empty domain")
        if len(self.weights) != self.domain_size:
            raise InputError("weight count != domain size")
        if any(w < 0 for w in self.weights):
            raise InputError("negative weight")
        if not abs(sum(self.weights) - 1.0) <= WEIGHT_TOL:  # NaN fails too
            raise InputError(f"weights sum to {sum(self.weights)}")
        w0 = self.weights[0]
        object.__setattr__(self, "is_uniform",
                           all(abs(w - w0) <= WEIGHT_TOL for w in self.weights))

    @classmethod
    def uniform(cls, domain_size: int) -> "VariableSpec":
        return cls(domain_size, tuple([1.0 / domain_size] * domain_size))

    @classmethod
    def fair_bit(cls) -> "VariableSpec":
        return cls.uniform(2)

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
    group reaches the threshold. The groups count each variable once: only
    ``ref_var`` may occur more than once across them, so the groups are
    independent given the reference value.
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
        counted = [v for g in self.groups for v in g if v != self.ref_var]
        if len(set(counted)) != len(counted):
            repeated = next(v for v in counted if counted.count(v) > 1)
            raise InputError(f"count groups repeat variable {repeated}: only the "
                             "reference variable may occur more than once")

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


@dataclass(frozen=True)
class EventSpec:
    """A bad event: a predicate over an ordered list of dependent variables."""

    event_id: int
    dependent_vars: tuple
    predicate: object
    unsatisfiable: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        deps = set(self.dependent_vars)
        if len(deps) != len(self.dependent_vars):
            raise InputError(f"event {self.event_id}: duplicate dependent vars")
        refs = self.predicate.referenced(self.dependent_vars)
        if not refs <= deps:
            raise InputError(
                f"event {self.event_id}: predicate references vars {sorted(refs - deps)} "
                "outside its dependency list"
            )
        if isinstance(self.predicate, TruthTable):
            if len(self.dependent_vars) > TRUTH_TABLE_MAX_ARITY:
                raise InputError(
                    f"event {self.event_id}: truth tables limited to arity "
                    f"{TRUTH_TABLE_MAX_ARITY}"
                )
        object.__setattr__(self, "unsatisfiable",
                           self.predicate.structurally_false(self.dependent_vars))

    def evaluate(self, values) -> bool:
        """values: mapping var id -> value covering all dependent vars."""
        return self.predicate.evaluate(values, self.dependent_vars)

    def structurally_false(self) -> bool:
        """True when no assignment can satisfy the predicate (cheap check,
        made once at construction)."""
        return self.unsatisfiable


@dataclass(frozen=True)
class EventShape:
    """A ``CountThreshold`` event over uniform variables as the probability
    layers see it, through each variable's class (domain size, occurrences
    per group, whether it is the reference). Per dependency position:
    ``classes``, the class id (one small int per class of the instance),
    and ``sizes``, its domain size."""

    classes: tuple
    estimate_key: tuple  # (threshold, reference value, sorted class ids)
    stride: int  # above every domain size: id * stride + value is one int
    sizes: tuple


def event_shapes(variables, events):
    """Each event's ``EventShape``, or None if it has none. Events with the
    same threshold, reference value and classes share one record."""
    sizes = list(map(_domain_size, variables))
    uniform = list(map(attrgetter("is_uniform"), variables))
    stride = 1 + max(sizes, default=0)
    ids, made, shapes = {}, {}, []
    for ev in events:
        pred, deps = ev.predicate, ev.dependent_vars
        if not isinstance(pred, CountThreshold) or not all(map(uniform.__getitem__, deps)):
            shapes.append(None)
            continue
        # Each group counts its members in a dict in dependency order;
        # zipping the counts gives each variable's occurrences per group.
        counts = [dict.fromkeys(deps, 0) for _ in pred.groups]
        for count, group in zip(counts, pred.groups):
            for v in group:
                count[v] += 1
        classes = tuple([(sizes[v], occ, v == pred.ref_var)
                         for v, occ in zip(deps, zip(*[c.values() for c in counts]))])
        shape = made.get((pred.threshold, pred.ref_value, classes))
        if shape is None:
            class_ids = tuple([ids.setdefault(cls, len(ids)) for cls in classes])
            shape = made[pred.threshold, pred.ref_value, classes] = EventShape(
                class_ids, (pred.threshold, pred.ref_value, tuple(sorted(class_ids))),
                stride, tuple([size for size, _, _ in classes]))
        shapes.append(shape)
    return tuple(shapes)


class LllInstance:
    """Variables, events, allocation and the two derived graphs.

    Immutable after construction; safe to share across concurrent runs.
    """

    def __init__(self, variables, events, owner):
        self.variables = tuple(variables)
        # var id -> domain size, for checks that read every variable's.
        self.domain_sizes = tuple(map(_domain_size, self.variables))
        self.events = tuple(events)
        self.owner = owner = tuple(owner)  # var id -> owning event id
        self._validate_owners()
        allocated = [[] for _ in self.events]
        for v, a in enumerate(self.owner):
            allocated[a].append(v)
        self.allocated = tuple(tuple(vs) for vs in allocated)
        dependents = [[] for _ in self.variables]
        for ev in self.events:
            for v in ev.dependent_vars:
                dependents[v].append(ev.event_id)
        # var id -> ascending ids of the events that depend on it; the one
        # answer to which events see a variable.
        self.dependents = dependents = tuple(tuple(evs) for evs in dependents)
        # Events sharing a variable: the union of its variables' dependents.
        self.dep_graph = self._event_graph(
            set().union(*(dependents[v] for v in ev.dependent_vars)) for ev in self.events)
        # Events linked through an owned variable: the owners of its
        # variables and the dependents of the variables it owns.
        self.alloc_graph = self._event_graph(
            {owner[v] for v in ev.dependent_vars}.union(*(dependents[v] for v in owned))
            for ev, owned in zip(self.events, self.allocated))
        self.d = self.dep_graph.max_degree
        self.d_vars = self.alloc_graph.max_degree
        self._validate_degrees()

    @cached_property
    def shapes(self):
        """``event_shapes`` of the events, built on the first read."""
        return event_shapes(self.variables, self.events)

    @property
    def var_count(self) -> int:
        return len(self.variables)

    @property
    def event_count(self) -> int:
        return len(self.events)

    def _event_graph(self, neighbour_sets) -> Graph:
        """The graph joining each event a to the events in the a-th of
        ``neighbour_sets`` other than a. The sets are symmetric and in range
        by construction, so each one, sorted, is a's adjacency as it is."""
        adjacency = []
        for a, nbrs in enumerate(neighbour_sets):
            nbrs.discard(a)
            adjacency.append(tuple(sorted(nbrs)))
        return Graph.from_adjacency(tuple(adjacency))

    def _validate_owners(self):
        for v, a in enumerate(self.owner):
            if type(a) is not int or not 0 <= a < len(self.events):
                raise InputError(f"variable {v} allocated to unknown event {a!r}")
            if v not in self.events[a].dependent_vars:
                raise InputError(
                    f"variable {v} allocated to event {a} which does not depend on it"
                )

    def _validate_degrees(self):
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
    """Assemble an instance, deriving graphs and degree caches. Variable v
    is ``variables[v]``.

    When ``allocation`` (a var id -> event id mapping) is omitted, each
    variable goes to its lowest-id dependent event.
    """
    _require_ints([e.event_id for e in events], "event id", _NonIntEventId)
    _require_ints([v for e in events for v in e.dependent_vars], "dependency",
                  _NonIntEventId)
    events = sorted(events, key=lambda e: e.event_id)
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
    """Evaluate every event; an empty violation list means a valid solution.
    A value missing or not an int in its variable's domain is an InputError."""
    get = assignment.get
    bad = [v for v, size in enumerate(inst.domain_sizes)
           if type(x := get(v)) is not int or not 0 <= x < size]
    if bad:
        raise InputError(f"variables {bad[:10]} have no value in their domain")
    violated = [ev.event_id for ev in inst.events if ev.evaluate(assignment)]
    return ViolationReport(violated)


# ---------------------------------------------------------------------------
# Serialization: structured-text instance files.

def _predicate_to_dict(ev: EventSpec) -> dict:
    p = ev.predicate
    if isinstance(p, TruthTable):
        params = {"rows": sorted(list(r) for r in p.rows)}
    elif isinstance(p, CountThreshold):
        params = {"groups": [list(g) for g in p.groups], "threshold": p.threshold,
                  "ref_var": p.ref_var, "ref_value": p.ref_value}
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
        return CountThreshold(tuple(tuple(g) for g in params["groups"]), params["threshold"],
                              params.get("ref_var"), params.get("ref_value"))
    if kind == "max_part_load":
        return MaxPartLoad(tuple(params["counted"]), params["threshold"])
    raise InputError(f"unknown predicate kind {kind!r}")


def instance_to_dict(inst: LllInstance) -> dict:
    return {
        "variables": [{"id": v, "domain": spec.domain_size, "weights": list(spec.weights)}
                      for v, spec in enumerate(inst.variables)],
        "events": [{"id": ev.event_id, "vars": list(ev.dependent_vars),
                    "predicate": _predicate_to_dict(ev)} for ev in inst.events],
        "allocation": {str(v): a for v, a in enumerate(inst.owner)},
    }


class _NonIntEventId(InputError):
    """An event or dependency id that is not an int: ``build_instance``
    checks them, and ``instance_from_dict`` names the field they came from."""


def _require_ints(values, what, error=InputError):
    """An ``error`` names the first of ``values`` that is not an int (nor a bool)."""
    if not {*map(type, values)} <= _INT:
        raise error(f"{what} {next(x for x in values if type(x) is not int)!r} "
                    "is not an int")


def _weights_key(domain, weights):
    """A dict key for an entry's domain and weights. -0.0 == 0.0, so a zero
    weight adds the weights' repr, which keeps the sign."""
    return domain, weights, 0 in weights and repr(weights)


def instance_from_dict(data: dict) -> LllInstance:
    """Inverse of instance_to_dict; bad input is an InputError naming its
    field. Each distinct variable entry is converted to floats once, and
    each distinct distribution built and checked once; its variables share
    the record."""
    field = "variables"
    try:
        entries = data["variables"]
        ids = [d["id"] for d in entries]
        _require_ints(ids, "variable id")
        _require_ints([d["domain"] for d in entries], "domain")
        if sorted(ids) != list(range(len(ids))):
            raise InputError("variable ids must be dense 0..n-1")
        variables, converted, specs = [None] * len(ids), {}, {}
        for v, d in zip(ids, entries):
            raw = tuple(d["weights"])
            key = _weights_key(d["domain"], raw)
            spec = converted.get(key)
            if spec is None:
                weights = tuple(map(float, raw))
                spec_key = _weights_key(d["domain"], weights)
                spec = specs.get(spec_key)
                if spec is None:
                    try:
                        spec = specs[spec_key] = VariableSpec(d["domain"], weights)
                    except InputError as exc:
                        raise InputError(f"variable {v}: {exc}") from None
                converted[key] = spec
            variables[v] = spec
        field = "events"
        events = [
            EventSpec(d["id"], tuple(d["vars"]), _predicate_from_dict(d["predicate"]))
            for d in data["events"]
        ]
        field = "allocation"
        allocation = {int(k): v for k, v in (data.get("allocation") or {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"instance {field}: {type(exc).__name__}: {exc}") from None
    try:
        return build_instance(variables, events, allocation or None)
    except _NonIntEventId as exc:
        raise InputError(f"instance events: InputError: {exc}") from None


def save_instance(inst: LllInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1)


def load_instance(path) -> LllInstance:
    return instance_from_dict(read_json(path))


def save_assignment(assignment: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in sorted(assignment.items())}, fh, indent=0)


def load_assignment(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return {int(k): v for k, v in json.load(fh).items()}
        except (AttributeError, ValueError) as exc:  # JSON, a key or the shape
            raise InputError(f"assignment {path}: {exc}") from None
