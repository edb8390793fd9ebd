"""The staged randomized first phase plus end-to-end solve.

Parts of the event partition are processed in order. In iteration i the
not-yet-deferred events of part i draw first-row values for their owned
variables; any event whose vulnerability (conditioned on all currently
committed values) crosses the danger threshold forces the just-sampled
events within one hop to revert all their owned values, and everything
within two hops in later parts to sit the rest of the phase out. A danger
verdict reads only the event's projection of the committed values (and,
when sampled, the oracle's seed stream), and a revert only the verdicts
one hop away. Whatever is left unfixed afterwards is handed to the
component solver: the residual
keeps only the fixed events' values, a variable is free when it holds none,
and a component is its ascending event ids.

Round accounting uses a fixed five-round schedule per iteration (sample;
share values one hop; danger flags one hop; revert flags one hop; defer
flags two hops counted as two) plus a two-round tail to publish final
values and assemble residual components. Any constant-round schedule
realizing the same information flow would do; this one is pinned so round
counts are comparable across runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .config import ThresholdConfig
from .errors import ContractViolation
from .graph import Partition, neighbors_within
from .model import LllInstance, check_assignment
from .probability import VulnerabilityOracle
from .seeds import derive_seed, first_row_sampler
from . import shattering

ROUNDS_PER_ITERATION = 5
ROUNDS_TAIL = 2

FIXED = "fixed"
REVERTED = "reverted"
DEFERRED = "deferred"


@dataclass
class RunState:
    """What one staged run leaves behind: each event's one fate, the
    first-row values drawn, and the fixed events' values among them."""

    fate: dict              # event id -> (status, iteration index of the decision)
    sampled_row1: dict      # var id -> first-row value, fixed and reverted owners
    fixed_values: dict      # var id -> first-row value, fixed owners only
    components: list        # events grouped over reverted and deferred events' variables


@dataclass
class StageReport:
    rounds_used: int
    dangerous_events: tuple
    residual_events: tuple
    residual_component_sizes: tuple
    per_event_fate: dict    # event id -> (status, iteration index)
    fixed_count: int
    reverted_count: int
    deferred_count: int
    residual_variable_count: int
    danger_estimate_modes: dict = field(default_factory=dict)
    indicator_memo: dict = field(default_factory=dict)  # {"hits", "misses", "shortcuts"}

    def to_dict(self) -> dict:
        return {
            "rounds_used": self.rounds_used,
            "dangerous_events": list(self.dangerous_events),
            "residual_events": list(self.residual_events),
            "residual_component_sizes": list(self.residual_component_sizes),
            "per_event_fate": {str(k): list(v) for k, v in self.per_event_fate.items()},
            "fixed": self.fixed_count,
            "reverted": self.reverted_count,
            "deferred": self.deferred_count,
            "residual_variables": self.residual_variable_count,
            "danger_estimate_modes": dict(self.danger_estimate_modes),
            "indicator_memo": dict(self.indicator_memo),
        }


def run_first_stage(inst: LllInstance, part: Partition, cfg: ThresholdConfig,
                    seed: int):
    """Execute the staged phase; deterministic given (inst, part, cfg, seed).

    Returns (RunState, StageReport). A CapacityError from the vulnerability
    oracle aborts the run, naming the offending event and iteration.
    """
    n = inst.event_count
    draw = first_row_sampler(derive_seed(seed, "table"))
    oracle = VulnerabilityOracle(inst, part, cfg, seed=derive_seed(seed, "danger"))
    danger_thr = cfg.danger_threshold(inst.d)
    dep = inst.dep_graph

    sampled = {}
    # Conditioning: values of fixed events plus the active part's fresh
    # samples. A reverted event's values stay in ``sampled`` but leave
    # ``committed`` once its iteration is decided, so after the last
    # iteration ``committed`` holds exactly the fixed events' values.
    committed = {}
    # The one record of each event's status: an event is undecided, and
    # active in its part's iteration, until it has a fate.
    fate = {}  # event id -> (status, iteration index of the decision)
    dangerous = set()  # events whose latest verdict is dangerous
    ever_dangerous = set()
    estimate_modes = {"exact": 0, "sampled": 0}
    # Events to re-query: every event once, then the dependents of the
    # variables that entered or left ``committed``.
    touched = set(range(n))

    parts = part.parts()
    for i, members in enumerate(parts):
        active = [a for a in members if a not in fate]
        for a in active:
            for v in inst.allocated[a]:
                committed[v] = sampled[v] = draw(v, inst.variables[v])
                if i:  # iteration 0 already queues every event
                    touched.update(inst.dependents[v])

        for a in sorted(touched):
            deps = inst.events[a].dependent_vars
            projection = {v: committed[v] for v in deps if v in committed}
            try:
                est = oracle.probability(a, projection)
            except Exception as exc:
                exc.args = (
                    f"danger test failed for event {a} in iteration {i}: "
                    + (str(exc.args[0]) if exc.args else ""),
                )
                raise
            # One-sided conservative: sampled estimates get a 2-sigma
            # bump before the comparison, so noise errs toward danger.
            if est.upper(2.0) >= danger_thr:
                dangerous.add(a)
                ever_dangerous.add(a)
            else:
                dangerous.discard(a)
            estimate_modes["exact" if est.exact else "sampled"] += 1

        newly_reverted = []
        for a in active:
            if a in dangerous or not dangerous.isdisjoint(dep.neighbors(a)):
                newly_reverted.append(a)
                fate[a] = (REVERTED, i)
            else:
                fate[a] = (FIXED, i)
        if i + 1 < part.part_count:  # the last part has no later one to defer
            for a in newly_reverted:
                for b in neighbors_within(dep, a, 2):
                    if part.part_of(b) > i and b not in fate:
                        fate[b] = (DEFERRED, i)
        touched = set()
        for a in newly_reverted:
            for v in inst.allocated[a]:
                del committed[v]
                touched.update(inst.dependents[v])

    free_vars = frozenset(v for a, (status, _) in fate.items() if status != FIXED
                          for v in inst.allocated[a])
    components = shattering.group_by_free_vars(inst, free_vars)
    state = RunState(
        fate=fate,
        sampled_row1=sampled,
        fixed_values=committed,
        components=components,
    )
    _validate_state(inst, state)
    counts = Counter(status for status, _ in fate.values())

    residual_events = tuple(sorted(a for c in components for a in c))
    report = StageReport(
        rounds_used=ROUNDS_PER_ITERATION * part.part_count + ROUNDS_TAIL,
        dangerous_events=tuple(sorted(ever_dangerous)),
        residual_events=residual_events,
        residual_component_sizes=tuple(sorted(map(len, components), reverse=True)),
        per_event_fate={a: fate[a] for a in range(n)},
        fixed_count=counts[FIXED],
        reverted_count=counts[REVERTED],
        deferred_count=counts[DEFERRED],
        residual_variable_count=len(free_vars),
        danger_estimate_modes=estimate_modes,
        indicator_memo=dict(oracle.memo_counts),
    )
    return state, report


def _validate_state(inst, state):
    fate = state.fate
    if len(fate) != inst.event_count:
        raise ContractViolation("some event has no terminal fate")
    fixed_vars, drawn_vars = set(), set()
    for a, (status, _) in fate.items():
        if status == FIXED:
            fixed_vars.update(inst.allocated[a])
        if status != DEFERRED:
            drawn_vars.update(inst.allocated[a])
    if drawn_vars != state.sampled_row1.keys():
        raise ContractViolation(
            "materialized first-row values do not match fixed+reverted owners"
        )
    if fixed_vars != state.fixed_values.keys():
        raise ContractViolation("fixed values do not match the fixed owners")


@dataclass(frozen=True)
class Residual:
    """The conditioned sub-instance left for the component solver."""

    instance: LllInstance
    fixed_values: dict      # the fixed events' variables; the rest are free
    components: list        # ascending event ids connected through free variables
    satisfied_fixed: tuple


def residual_instance(inst: LllInstance, state: RunState) -> Residual:
    """Restrict to unfixed variables, conditioning events on the run's
    fixed values.

    The live events are the run's components; fully-decided events that are
    unsatisfied are dropped, and satisfied ones, which break the stage's
    guarantee, are recorded in ``satisfied_fixed``.
    """
    fixed_values = state.fixed_values
    live = {a for c in state.components for a in c}
    satisfied_fixed = [ev.event_id for ev in inst.events
                       if ev.event_id not in live and ev.evaluate(fixed_values)]
    return Residual(
        instance=inst,
        fixed_values=fixed_values,
        components=state.components,
        satisfied_fixed=tuple(satisfied_fixed),
    )


@dataclass
class SolveResult:
    assignment: dict
    stage: StageReport
    components: list
    rounds_used: int
    post_resamplings: int

    def to_dict(self) -> dict:
        return {
            "assignment": {str(k): v for k, v in sorted(self.assignment.items())},
            "stage": self.stage.to_dict(),
            "components": self.components,
            "rounds_used": self.rounds_used,
            "post_resamplings": self.post_resamplings,
        }


def solve(inst: LllInstance, part: Partition, cfg: ThresholdConfig,
          seed: int) -> SolveResult:
    """Staged phase, then component solve on the residual.

    The returned assignment always passes check_assignment; failures raise
    (component cap exhausted, or a stage guarantee broke) rather than ever
    returning an invalid assignment.
    """
    state, report = run_first_stage(inst, part, cfg, seed)
    residual = residual_instance(inst, state)
    if residual.satisfied_fixed:
        raise ContractViolation(
            f"run failed: events {list(residual.satisfied_fixed)} were "
            "committed in a satisfied state"
        )
    try:
        free_assignment, comp_stats = shattering.solve_residual(
            residual, derive_seed(seed, "post")
        )
    except Exception as exc:
        exc.args = (
            (str(exc.args[0]) if exc.args else "")
            + f" [stage: rounds={report.rounds_used}, "
            f"residual_components={list(report.residual_component_sizes)}, "
            f"reverted={report.reverted_count}, deferred={report.deferred_count}]",
        )
        raise
    assignment = dict(residual.fixed_values)
    assignment.update(free_assignment)
    verdict = check_assignment(inst, assignment)
    if not verdict.valid:
        raise ContractViolation(
            f"solver produced an invalid assignment; violated events "
            f"{verdict.violated_events}"
        )
    return SolveResult(
        assignment=assignment,
        stage=report,
        components=comp_stats,
        rounds_used=report.rounds_used,
        post_resamplings=sum(s.get("resamplings", 0) for s in comp_stats),
    )
