"""Probability oracles over instances and their two-row value tables.

``CountThreshold`` event probabilities are exact at any support: the
engine conditions on the reference value and on the free variables that
occur in more than one group position, then counts each group's matches
with a Poisson-binomial DP. It falls back to seeded Monte Carlo only when
that conditioning would enumerate more than 2^20 cases. The other
predicate kinds (``TruthTable``, ``MaxPartLoad``) are exact by full
weighted enumeration while the free support is at most 2^20 assignments,
and fall back to Monte Carlo above that. Sampled estimates are flagged as
approximate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .config import ThresholdConfig
from .errors import CapacityError, InputError
from .graph import Partition
from .model import CountThreshold, LllInstance
from .seeds import rng_for

EXACT_ENUM_CAP = 1 << 20


@dataclass(frozen=True)
class ProbabilityEstimate:
    value: float
    exact: bool
    samples: int = 0

    @property
    def stderr(self) -> float:
        if self.exact or self.samples <= 0:
            return 0.0
        return math.sqrt(self.value * (1.0 - self.value) / self.samples)

    def upper(self, sigmas: float = 3.0) -> float:
        """Conservative upper value; zero-hit estimates widen to sigmas/n."""
        if self.exact:
            return self.value
        slack = self.stderr * sigmas
        if self.value in (0.0, 1.0):
            slack = max(slack, sigmas / self.samples)
        return self.value + slack

    def __float__(self):
        return self.value


def _validate_fixed(inst, fixed):
    for v, val in fixed.items():
        if not 0 <= v < inst.var_count:
            raise InputError(f"fixed value for unknown variable {v}")
        if not 0 <= val < inst.variables[v].domain_size:
            raise InputError(f"value {val} out of domain for variable {v}")


def _probability_over(inst, event, fixed, free_vars, mc_samples, rng):
    """Probability the event holds when ``free_vars`` are drawn fresh and the
    rest take the values in ``fixed`` (which must cover them)."""
    if event.structurally_false():
        return ProbabilityEstimate(0.0, exact=True)
    if not free_vars:
        return ProbabilityEstimate(1.0 if event.evaluate(fixed) else 0.0, exact=True)
    counting = isinstance(event.predicate, CountThreshold)
    if counting:
        value = _count_threshold_probability(inst, event.predicate, fixed, free_vars)
        if value is not None:
            return ProbabilityEstimate(value, exact=True)
    specs = [inst.variables[v] for v in free_vars]
    values = dict(fixed)
    support = inst.support(free_vars)
    if not counting and support <= EXACT_ENUM_CAP:
        uniform = all(s.is_uniform for s in specs)
        total = 0.0
        hits = 0
        for combo in itertools.product(*(range(s.domain_size) for s in specs)):
            for v, val in zip(free_vars, combo):
                values[v] = val
            if event.evaluate(values):
                if uniform:
                    hits += 1
                else:
                    w = 1.0
                    for s, val in zip(specs, combo):
                        w *= s.weights[val]
                    total += w
        if uniform:
            return ProbabilityEstimate(hits / support, exact=True)
        return ProbabilityEstimate(total, exact=True)
    hits = 0
    for _ in range(mc_samples):
        for v, s in zip(free_vars, specs):
            values[v] = s.sample(rng)
        if event.evaluate(values):
            hits += 1
    return ProbabilityEstimate(hits / mc_samples, exact=False, samples=mc_samples)


def _count_threshold_probability(inst, pred, fixed, free_vars):
    """Exact probability that some group of ``pred`` reaches its threshold,
    or None when the conditioning below would enumerate more than
    EXACT_ENUM_CAP cases.

    Conditions on the reference value, then on the match/no-match outcome
    of each free variable that occurs more than once across the groups.
    Every other free group variable occurs in exactly one group, so the
    groups are then independent, and each group's mass of fewer than
    ceil(threshold) matches comes from a Poisson-binomial DP. With every
    free variable uniform the masses are integer completion counts and the
    result is ``hits / support``, the same float full enumeration gives;
    otherwise they are probabilities.
    """
    variables = inst.variables
    free = set(free_vars)
    uniform = all(variables[v].is_uniform for v in free)

    def total(v):
        return variables[v].domain_size if uniform else 1.0

    def split(v, ref):
        """(mass of v == ref, mass of v != ref)."""
        spec = variables[v]
        m = 0
        if ref in range(spec.domain_size):
            m = 1 if uniform else spec.weights[ref]
        return m, total(v) - m

    ref_var = pred.ref_var
    if ref_var is None:
        refs = [pred.ref_value]
    elif ref_var in free:
        refs = range(variables[ref_var].domain_size)
    else:
        refs = [fixed[ref_var]]
    occurrences = {}
    for group in pred.groups:
        for v in group:
            if v in free and v != ref_var:
                occurrences[v] = occurrences.get(v, 0) + 1
    shared = [v for v, n in occurrences.items() if n > 1]
    if len(refs) << len(shared) > EXACT_ENUM_CAP:
        return None
    slot = {v: i for i, v in enumerate(shared)}
    # Mass of the free variables left unconditioned, and of those in no group.
    rest = irrelevant = 1
    for v in free:
        if v != ref_var and v not in slot:
            rest *= total(v)
            if v not in occurrences:
                irrelevant *= total(v)

    # Counts are integers, so reaching the threshold means reaching its ceiling.
    need = math.ceil(max(pred.threshold, 0))
    hits = 0
    for ref in refs:
        ref_mass = split(ref_var, ref)[0] if ref_var in free else 1
        if not ref_mass:
            continue
        # Per group: how far conditioned matches fall short of ``need``,
        # occurrences of each shared variable, and miss[t], the mass of
        # fewer than t matches among its once-occurring free variables.
        groups = []
        for group in pred.groups:
            short = need
            counts = [0] * len(shared)
            dist = [1] + [0] * (need - 1)
            top = 0
            for v in group:
                if v == ref_var:
                    short -= 1
                elif v not in free:
                    short -= fixed[v] == ref
                elif v in slot:
                    counts[slot[v]] += 1
                else:
                    m, u = split(v, ref)
                    top = min(top + 1, need - 1)
                    for k in range(top, 0, -1):
                        dist[k] = dist[k] * u + dist[k - 1] * m
                    dist[0] *= u
            miss = [0]
            for x in dist:
                miss.append(miss[-1] + x)
            groups.append((short, counts, miss))
        outcomes = [split(v, ref) for v in shared]
        for pattern in itertools.product((True, False), repeat=len(shared)):
            weight = ref_mass
            for (m, u), hit in zip(outcomes, pattern):
                weight *= m if hit else u
            if not weight:
                continue
            missed = irrelevant
            for short, counts, miss in groups:
                short -= sum(c for c, hit in zip(counts, pattern) if hit)
                missed *= miss[max(short, 0)]
            hits += weight * (rest - missed)
    if not uniform:
        return float(hits)
    support = 1
    for v in free:
        support *= variables[v].domain_size
    return hits / support


def event_probability(inst: LllInstance, event_id: int, *, mc_samples: int = 10_000,
                      seed: int = 0) -> ProbabilityEstimate:
    """Probability the event is satisfied under fresh draws of its variables."""
    ev = inst.events[event_id]
    rng = rng_for(seed, "event_p", event_id)
    return _probability_over(inst, ev, {}, list(ev.dependent_vars), mc_samples, rng)


def conditional_event_probability(
    inst: LllInstance,
    event_id: int,
    swap_events=(),
    row1_fixed=None,
    row2_fixed=None,
    *,
    mc_samples: int = 10_000,
    seed: int = 0,
) -> ProbabilityEstimate:
    """Probability of the swap event: the event is re-evaluated with the
    owned variables of ``swap_events`` taking second-row values and all other
    dependencies taking first-row values.

    ``row1_fixed`` pins already-revealed first-row values; ``row2_fixed``
    optionally pins materialized second-row cells. Unpinned cells are drawn
    fresh from their distributions.
    """
    ev = inst.events[event_id]
    row1_fixed = row1_fixed or {}
    row2_fixed = row2_fixed or {}
    _validate_fixed(inst, row1_fixed)
    _validate_fixed(inst, row2_fixed)
    swap_vars = set()
    for b in swap_events:
        swap_vars.update(inst.allocated[b])
    fixed = {}
    free = []
    for v in ev.dependent_vars:
        source = row2_fixed if v in swap_vars else row1_fixed
        if v in source:
            fixed[v] = source[v]
        else:
            free.append(v)
    rng = rng_for(seed, "cond_p", event_id, len(fixed))
    return _probability_over(inst, ev, fixed, free, mc_samples, rng)


class VulnerabilityOracle:
    """Evaluates, per event, whether some same-part subset of its swap
    neighbors re-drawing their owned values would push the event's
    conditional probability past the inner threshold — and how likely that
    is over the not-yet-revealed first-row values.

    Indicator results are memoized per (event, revealed-values) key, so the
    staged solver can re-query cheaply as conditioning grows.
    """

    def __init__(self, inst: LllInstance, part: Partition, cfg: ThresholdConfig,
                 seed: int = 0):
        if part.size != inst.event_count:
            raise InputError("partition must cover all events")
        self.inst = inst
        self.part = part
        self.cfg = cfg
        self.inner_thr = cfg.inner_threshold(inst.d)
        self._rng = rng_for(seed, "vulnerability")
        self._groups = {}
        self._indicator_memo = {}
        self._inner_mc_events = set()

    def swap_groups(self, a: int):
        """Per part, the swap neighbors of event ``a`` with the owned
        variables through which they can perturb it."""
        cached = self._groups.get(a)
        if cached is not None:
            return cached
        deps = set(self.inst.events[a].dependent_vars)
        by_part = {}
        for b in self.inst.swap_neighbors[a]:
            sv = tuple(v for v in self.inst.allocated[b] if v in deps)
            if sv:
                by_part.setdefault(self.part.part_of(b), []).append((b, sv))
        groups = []
        for part_idx in sorted(by_part):
            members = sorted(by_part[part_idx])
            if len(members) > self.cfg.subset_cap:
                raise CapacityError(
                    f"event {a}: {len(members)} swap neighbors in part {part_idx} "
                    f"exceed subset cap {self.cfg.subset_cap}"
                )
            groups.append((part_idx, tuple(members)))
        groups = tuple(groups)
        self._groups[a] = groups
        return groups

    def _swap_probability(self, event, base_values, swap_vars):
        fixed = {v: val for v, val in base_values.items() if v not in swap_vars}
        est = _probability_over(
            self.inst, event, fixed, sorted(swap_vars), self.cfg.mc_samples, self._rng
        )
        if not est.exact:
            self._inner_mc_events.add(event.event_id)
        return est.value

    def indicator(self, a: int, key: tuple) -> bool:
        """Whether, under the given full first-row values of the event's
        dependencies, any single-part swap subset reaches the threshold."""
        memo_key = (a, key)
        cached = self._indicator_memo.get(memo_key)
        if cached is not None:
            return cached
        ev = self.inst.events[a]
        values = dict(zip(ev.dependent_vars, key))
        result = False
        if not ev.structurally_false():
            # The empty swap set degenerates to the event itself.
            if ev.evaluate(values) and 1.0 >= self.inner_thr:
                result = True
            else:
                result = self._any_subset_over(ev, values)
        self._indicator_memo[memo_key] = result
        return result

    def _any_subset_over(self, ev, values) -> bool:
        for _, members in self.swap_groups(ev.event_id):
            k = len(members)
            for mask in range(1, 1 << k):
                swap_vars = set()
                for i in range(k):
                    if mask >> i & 1:
                        swap_vars.update(members[i][1])
                if self._swap_probability(ev, values, swap_vars) >= self.inner_thr:
                    return True
        return False

    def probability(self, a: int, fixed=None, *, mc_samples=None,
                    force_mc: bool = False) -> ProbabilityEstimate:
        """Probability, over unrevealed first-row values of the event's
        dependencies, that some same-part swap pushes it over the threshold."""
        fixed = fixed or {}
        _validate_fixed(self.inst, fixed)
        ev = self.inst.events[a]
        if ev.structurally_false():
            return ProbabilityEstimate(0.0, exact=True)
        deps = ev.dependent_vars
        free = [v for v in deps if v not in fixed]
        samples = mc_samples or self.cfg.mc_samples

        def finish(value, exact, n=0):
            exact = exact and a not in self._inner_mc_events
            return ProbabilityEstimate(value, exact=exact, samples=n)

        if not free:
            key = tuple(fixed[v] for v in deps)
            return finish(1.0 if self.indicator(a, key) else 0.0, True)
        support = self.inst.support(free)
        specs = [self.inst.variables[v] for v in free]
        if not force_mc and support <= self.cfg.exact_outer_cap:
            uniform = all(s.is_uniform for s in specs)
            total = 0.0
            hits = 0
            values = dict(fixed)
            for combo in itertools.product(*(range(s.domain_size) for s in specs)):
                for v, val in zip(free, combo):
                    values[v] = val
                if self.indicator(a, tuple(values[v] for v in deps)):
                    if uniform:
                        hits += 1
                    else:
                        w = 1.0
                        for s, val in zip(specs, combo):
                            w *= s.weights[val]
                        total += w
            return finish(hits / support if uniform else total, True)
        hits = 0
        values = dict(fixed)
        for _ in range(samples):
            for v, s in zip(free, specs):
                values[v] = s.sample(self._rng)
            if self.indicator(a, tuple(values[v] for v in deps)):
                hits += 1
        return finish(hits / samples, False, samples)


def vulnerability_probability(
    inst: LllInstance,
    event_id: int,
    part: Partition,
    fixed=None,
    cfg: ThresholdConfig | None = None,
    *,
    seed: int = 0,
    mc_samples=None,
    force_mc: bool = False,
) -> ProbabilityEstimate:
    """One-shot wrapper around VulnerabilityOracle for a single event.

    Raises CapacityError when some part holds more swap neighbors of the
    event than the subset cap; callers should then rely on the union-bound
    certificate instead.
    """
    cfg = cfg or ThresholdConfig()
    oracle = VulnerabilityOracle(inst, part, cfg, seed=seed)
    return oracle.probability(event_id, fixed, mc_samples=mc_samples, force_mc=force_mc)
