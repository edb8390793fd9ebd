"""Probability oracles over instances and their first-row values.

``CountThreshold`` event probabilities are exact at any support: the
engine conditions on the reference value and on the free variables that
occur in more than one group position, then counts each group's matches
with a Poisson-binomial DP. It falls back to seeded Monte Carlo only when
that conditioning would enumerate more than 2^20 cases. ``TruthTable``
probabilities are exact at any support too, counted from the rows that
agree with the fixed values. ``MaxPartLoad`` probabilities are exact by
full weighted enumeration while the free support is at most 2^20
assignments, and fall back to Monte Carlo above that; one enumerator
serves these and the vulnerability oracle's outer probability. Sampled
estimates are flagged as approximate.

Over uniform variables a ``CountThreshold`` probability is an integer
count of completions over the support, so it depends on the variables
only through their classes and on the fixed values only through how they
compare with the reference. One ``EventShape`` per event holds them
(``LllInstance.shapes``), and events of the same shape share one
result: exact event estimates in ``general.event_estimates``,
vulnerability indicators, under keys of packed ints, in the oracle's memo,
and exact vulnerability estimates under partial reveals, under the same
keys with a free class for each unrevealed position, in its outer memo.
A shaped event's swap probability likewise depends only on how many of
each (class, value class) are swapped and fixed, so the oracle searches
swap subsets as reachable count vectors, one engine call per distinct
vector, shared by the events of one shape. Every other event takes one
class per dependency position, so each of its swap subsets is a vector of
its own. ``SUBSET_CAP`` bounds the search at 2^SUBSET_CAP - 1 vectors per
part for every event.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, eq, gt

from .config import ThresholdConfig
from .errors import CapacityError, InputError
from .graph import Partition
from .model import CountThreshold, LllInstance, TruthTable
from .seeds import rng_for

EXACT_ENUM_CAP = 1 << 20
EXACT_OUTER_CAP = 4096  # vulnerability: enumerate outer completions up to this support
SUBSET_CAP = 12  # vulnerability: at most 2^cap - 1 swapped count vectors per part
_INT = {int}


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


# The two answers of a fully revealed event, shared: estimates are frozen.
EXACT_ZERO = ProbabilityEstimate(0.0, exact=True)
EXACT_ONE = ProbabilityEstimate(1.0, exact=True)


def _validate_fixed(inst, fixed):
    sizes = inst.domain_sizes
    n = len(sizes)
    for v, val in fixed.items():
        if not 0 <= v < n:
            raise InputError(f"fixed value for unknown variable {v}")
        if type(val) is not int or not 0 <= val < sizes[v]:
            raise InputError(f"value {val!r} out of domain for variable {v}")


def _probability_over(inst, event, fixed, free_vars, mc_samples, make_rng):
    """Probability the event holds when ``free_vars`` are drawn fresh and the
    rest take the values in ``fixed`` (which must cover them)."""
    if event.structurally_false():
        return EXACT_ZERO
    if not free_vars:
        return EXACT_ONE if event.evaluate(fixed) else EXACT_ZERO
    if isinstance(event.predicate, TruthTable):
        return _truth_table_probability(inst, event, fixed, free_vars)
    cap = EXACT_ENUM_CAP
    if isinstance(event.predicate, CountThreshold):
        value = _count_threshold_probability(inst, event.predicate, fixed, free_vars)
        if value is not None:
            return ProbabilityEstimate(value, exact=True)
        cap = 0
    return _mass_over(inst, free_vars, fixed, event.evaluate, cap, mc_samples,
                      make_rng)


def _mass_over(inst, free_vars, base, test, cap, mc_samples, make_rng):
    """Probability that ``test(values)`` holds when ``free_vars`` are drawn
    from their distributions and every other variable keeps its value in
    ``base``.

    Exact by enumeration while the free support is at most ``cap``: a count
    of hits over the support when every free variable is uniform, a sum of
    weights otherwise. Above the cap, a Monte Carlo estimate over
    ``mc_samples`` draws from the rng that ``make_rng()`` returns.
    """
    specs = [inst.variables[v] for v in free_vars]
    values = dict(base)
    support = inst.support(free_vars)
    if support <= cap:
        uniform = all(s.is_uniform for s in specs)
        total = 0.0
        hits = 0
        for combo in itertools.product(*(range(s.domain_size) for s in specs)):
            for v, val in zip(free_vars, combo):
                values[v] = val
            if test(values):
                if uniform:
                    hits += 1
                else:
                    total += _weight(specs, combo)
        return ProbabilityEstimate(hits / support if uniform else total, exact=True)
    rng = make_rng()
    hits = 0
    for _ in range(mc_samples):
        for v, s in zip(free_vars, specs):
            values[v] = s.sample(rng)
        if test(values):
            hits += 1
    return ProbabilityEstimate(hits / mc_samples, exact=False, samples=mc_samples)


def _weight(specs, combo) -> float:
    """The probability that the variables ``specs`` take the values ``combo``."""
    w = 1.0
    for s, val in zip(specs, combo):
        w *= s.weights[val]
    return w


def _truth_table_probability(inst, event, fixed, free_vars):
    """The exact probability of a ``TruthTable`` event, without enumeration.
    Each of its rows that agrees with ``fixed`` and holds a domain value at
    every free position is one satisfying completion: over uniform free
    variables, their count over the support; otherwise their weights, summed
    in enumeration order. Either way, the float ``_mass_over`` gives."""
    deps, specs = event.dependent_vars, [inst.variables[v] for v in free_vars]
    at = list(map(deps.index, free_vars))
    agree = [(i, fixed[v]) for i, v in enumerate(deps) if v not in free_vars]
    completions = []
    for row in event.predicate.rows:
        if len(row) == len(deps) and all(row[i] == val for i, val in agree):
            values = [row[i] for i in at]
            if all(x in range(s.domain_size) for x, s in zip(values, specs)):
                completions.append(tuple(map(int, values)))
    if all(s.is_uniform for s in specs):
        value = len(completions) / math.prod(s.domain_size for s in specs)
    else:
        value = 0.0
        for combo in sorted(completions):
            value += _weight(specs, combo)
    return ProbabilityEstimate(value, exact=True)


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

    conditioning = _conditioning(variables, pred, free)
    if conditioning is None:
        return None
    occurrences, shared = conditioning
    ref_var = pred.ref_var
    if ref_var is None:
        refs = [pred.ref_value]
    elif ref_var in free:
        refs = range(variables[ref_var].domain_size)
    else:
        refs = [fixed[ref_var]]
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
    return hits / math.prod(variables[v].domain_size for v in free)


def _conditioning(variables, pred, free):
    """The occurrences of each free non-reference group variable, and those
    occurring more than once, which ``_count_threshold_probability``
    conditions on. None, and the probability is sampled, when that takes
    more than EXACT_ENUM_CAP cases."""
    occurrences = {}
    for group in pred.groups:
        for v in group:
            if v in free and v != pred.ref_var:
                occurrences[v] = occurrences.get(v, 0) + 1
    shared = [v for v, n in occurrences.items() if n > 1]
    refs = variables[pred.ref_var].domain_size if pred.ref_var in free else 1
    if refs << len(shared) > EXACT_ENUM_CAP:
        return None
    return occurrences, shared


def event_probability(inst: LllInstance, event_id: int, *, mc_samples: int = 10_000,
                      seed: int = 0) -> ProbabilityEstimate:
    """Probability the event is satisfied under fresh draws of its variables."""
    ev = inst.events[event_id]
    return _probability_over(inst, ev, {}, list(ev.dependent_vars), mc_samples,
                             lambda: rng_for(seed, "event_p", event_id))


class _CheckedKey(tuple):
    """Revealed values that ``VulnerabilityOracle.probability`` builds from
    the ``fixed`` values it checked and from values drawn in their domains.
    ``indicator`` skips its key check for this type, which would otherwise
    repeat for every outer completion."""

    __slots__ = ()


def _packed(ref, bases, key):
    """Per dependency position, the int ``class id * stride + value class``
    under the revealed values ``key``: ``bases`` holds ``class id *
    stride``, and the value class is the value, or whether it equals the
    constant reference ``ref`` when that is not None."""
    if ref is not None:
        key = map(eq, key, itertools.repeat(ref))
    return list(map(add, bases, key))


def _grouped(parts, ints):
    """``ints`` (one per dependency position) as the per-member sorted
    tuples of ``parts``, the members of a part sorted and the parts sorted:
    the order-free part of a memo key."""
    get = ints.__getitem__
    return tuple(sorted([
        tuple(sorted([tuple(sorted(map(get, positions))) for _, positions in members]))
        for _, members in parts]))


class VulnerabilityOracle:
    """Evaluates, per event, whether some same-part subset of its swap
    neighbors re-drawing their owned values would push the event's
    conditional probability past the inner threshold — and how likely that
    is over the not-yet-revealed first-row values.

    Each event's layout (``_layout``) gives every dependency position a
    class and a key prefix. A ``CountThreshold`` event over uniform
    variables whose swap probabilities are never sampled takes its shape's
    classes under a prefix that all events of the shape share; any other
    event takes one class per position under its own id. Indicator results
    are memoized under the prefix and the revealed (class, value class)
    ints (see ``_memo_key``), so the staged solver can re-query cheaply as
    conditioning grows, and events of one shape share one result.
    ``memo_counts`` counts the calls the memo answered (hits), those it
    computed and stored (misses), and those decided without it (shortcuts:
    a structurally false event, or one the empty swap already satisfies);
    the three sum to the calls.

    ``probability`` under a partial reveal sums the indicator over the
    completions of the unrevealed values. For an event with a shared
    prefix, it keeps the exact sum in an outer memo under ``_outer_key``:
    the memo key with each unrevealed position packed as a class of its
    own. A query that the outer memo answers calls no indicator, so
    ``memo_counts`` counts only the indicator calls that outer misses and
    fully revealed queries make. Sampled outer estimates (``force_mc``, or
    a support above ``EXACT_OUTER_CAP``) draw from the oracle's rng and are
    never kept.

    A memo miss evaluates one swap probability per reachable swapped count
    vector of each part (``_any_vector_over``), kept under a swap key with
    the same prefix. ``SUBSET_CAP`` bounds that search at 2^SUBSET_CAP - 1
    vectors per part, the mask count of ``SUBSET_CAP`` swap neighbors, for
    every event. ``swap_counts`` counts the swap probabilities the engine
    computed and those the memo reused.
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
        # Above every count of one int in an event: see ``_any_vector_over``.
        self._base = 1 + max((len(ev.dependent_vars) for ev in inst.events), default=0)
        self._layouts = {}
        self._indicator_memo = {}
        self._outer_memo = {}
        self._swap_memo = {}
        self._inner_mc_events = set()
        self.memo_counts = {"hits": 0, "misses": 0, "shortcuts": 0}
        self.swap_counts = {"engine": 0, "reused": 0}

    def _members(self, a: int):
        """Per part, in ascending part order, the swap neighbors of event
        ``a``: the owners of its dependencies, exactly the events that can
        perturb it by re-drawing their owned values. Each comes, in
        ascending event id order, with the positions of the dependencies it
        owns, in ascending variable id order. The members cover every
        position."""
        deps = self.inst.events[a].dependent_vars
        owned, by_part = {}, {}
        for i in sorted(range(len(deps)), key=deps.__getitem__):
            owned.setdefault(self.inst.owner[deps[i]], []).append(i)
        for b in sorted(owned):
            by_part.setdefault(self.part.part_of(b), []).append((b, tuple(owned[b])))
        return tuple(sorted(by_part.items()))

    def _layout(self, a: int):
        """Event ``a``'s key prefix, constant reference (or None), stride,
        ``class id * stride`` per dependency position, ``_members`` and
        the domain size of each dependency, built once.

        A shaped event (see ``EventShape``) whose swap probabilities are
        never sampled takes its shape's classes and stride under the
        prefix (threshold, reference value). Any other event takes class i
        at position i, a stride above its largest domain and its raw
        values, under the prefix ``a``: its predicate reads the values
        themselves, or a sampled swap value is never shared."""
        layout = self._layouts.get(a)
        if layout is None:
            ev = self.inst.events[a]
            shape = self.inst.shapes[a]
            members = self._members(a)
            if shape is not None and not self._samples(ev, shape, members):
                pred = ev.predicate
                prefix, ref = (pred.threshold, pred.ref_value), pred.ref_value
                stride, classes, sizes = shape.stride, shape.classes, shape.sizes
            else:
                sizes = tuple(map(self.inst.domain_sizes.__getitem__, ev.dependent_vars))
                prefix, ref = a, None
                stride, classes = 1 + max(sizes, default=0), range(len(sizes))
            layout = self._layouts[a] = (prefix, ref, stride, [c * stride for c in classes],
                                         members, sizes)
        return layout

    def _samples(self, ev, shape, members) -> bool:
        """``_conditioning``'s sampling rule on each part's full swap set,
        read off the shape: the reference's domain size if it is swapped,
        times two per swapped conditioned variable, above EXACT_ENUM_CAP.
        No part can sample when the whole event stays within the cap."""
        ref_var = ev.predicate.ref_var
        refs = 1 if ref_var is None else self.inst.variables[ref_var].domain_size
        if refs << sum(shape.conditioned) <= EXACT_ENUM_CAP:
            return False
        for _, part_members in members:
            swapped = [i for _, positions in part_members for i in positions]
            refs = (self.inst.variables[ref_var].domain_size
                    if ref_var in [ev.dependent_vars[i] for i in swapped] else 1)
            if refs << sum([shape.conditioned[i] for i in swapped]) > EXACT_ENUM_CAP:
                return True
        return False

    def _memo_key(self, a: int, key: tuple):
        """The indicator memo key of event ``a`` under the revealed values
        ``key`` (in dependency order): its layout's prefix and, per swap
        member, the sorted ints ``class id * stride + value class`` of its
        dependencies, the members of a part sorted and the parts sorted.
        The value class is below the stride, so each int is one (class,
        value class) pair, and the members cover every position, so the key
        determines every swap probability: an integer count for a shaped
        event, and for any other the values themselves."""
        prefix, ref, _, bases, parts, _ = self._layout(a)
        return prefix, _grouped(parts, _packed(ref, bases, key))

    def _outer_key(self, layout, deps, fixed):
        """The outer memo key of a shaped event under the partial reveal
        ``fixed``: as ``_memo_key``, with each unrevealed position packed as
        ``~(class id * stride)``, its class with a value class of its own.
        That int is negative, so no revealed value produces it. Two
        reveals with one key have completions that pair up, class for
        class within each member, with equal indicator memo keys, and the
        same support, so they have one outer probability."""
        prefix, ref, _, bases, parts, _ = layout
        get = fixed.get
        ints = []
        for base, v in zip(bases, deps):
            val = get(v)
            ints.append(~base if val is None
                        else base + (val if ref is None else val == ref))
        return prefix, _grouped(parts, ints)

    def _swap_probability(self, event, values, swap_vars, swap_key):
        """Probability of ``event`` when ``swap_vars`` are drawn fresh and
        its other dependencies keep ``values``, kept in the swap memo under
        ``swap_key`` if exact. A sampled value draws from the oracle's rng
        and is never kept; whether it is sampled depends on the swap set
        alone, so a kept key never skips a draw and the rng stream is the
        one drawn without the memo."""
        value = self._swap_memo.get(swap_key)
        if value is not None:
            self.swap_counts["reused"] += 1
            return value
        fixed = {v: val for v, val in values.items() if v not in swap_vars}
        est = _probability_over(self.inst, event, fixed, sorted(swap_vars),
                                self.cfg.mc_samples, lambda: self._rng)
        self.swap_counts["engine"] += 1
        if est.exact:
            self._swap_memo[swap_key] = est.value
        else:
            self._inner_mc_events.add(event.event_id)
        return est.value

    def indicator(self, a: int, key: tuple) -> bool:
        """Whether, under the given full first-row values ``key`` of the
        event's dependencies, any single-part swap subset reaches the
        threshold. Raises InputError unless ``key`` holds one int in its
        variable's domain per dependency."""
        layout = self._layout(a)
        sizes = layout[5]
        if type(key) is not _CheckedKey and (
                len(key) != len(sizes) or not {*map(type, key)} <= _INT
                or key and min(key) < 0 or not all(map(gt, sizes, key))):
            raise InputError(f"event {a}: key {key!r} is not one int in its variable's "
                             "domain per dependency")
        ev = self.inst.events[a]
        values = dict(zip(ev.dependent_vars, key))
        if ev.structurally_false():
            self.memo_counts["shortcuts"] += 1
            return False
        if ev.evaluate(values):
            # The empty swap set has probability 1, at least d^-c3.
            self.memo_counts["shortcuts"] += 1
            return True
        memo_key = self._memo_key(a, key)
        result = self._indicator_memo.get(memo_key)
        if result is not None:
            self.memo_counts["hits"] += 1
            return result
        result = self._any_vector_over(ev, key, values, layout)
        self._indicator_memo[memo_key] = result
        self.memo_counts["misses"] += 1
        return result

    def _any_vector_over(self, ev, key, values, layout) -> bool:
        """Whether some nonempty same-part subset of the swap members,
        re-drawn, reaches the threshold.

        A swap probability depends only on the swapped count vector over
        the event's ints ``class id * stride + value class``: it gives the
        swapped classes, and subtracted from the event's counts, the fixed
        ints. A count vector is kept as one int, the sum of base^x over its
        ints x, where the oracle's base exceeds every event's dependency
        count, so it is a base-``base`` numeral with one digit per int and
        adding a member is one addition; the swapped classes are kept the
        same way. Per part, a subset-sum DP over the members builds every
        reachable nonempty vector with one witness subset, and each vector
        is evaluated once, under the key (prefix, fixed ints, swapped class
        ids). Under one class per position every subset is its own vector,
        met in mask order. Raises CapacityError, before any evaluation,
        when a part reaches more than 2^SUBSET_CAP - 1 vectors."""
        prefix, ref, stride, bases, parts, _ = layout
        base = self._base
        ints = _packed(ref, bases, key)
        codes = [base ** x for x in ints]
        class_codes = [base ** (x // stride) for x in ints]
        budget = (1 << SUBSET_CAP) - 1
        searches = []
        for part_idx, members in parts:
            reach = {0: ((), 0)}
            for _, positions in members:
                step = sum([codes[i] for i in positions])
                class_step = sum([class_codes[i] for i in positions])
                for vec, (witness, classes) in list(reach.items()):
                    reach.setdefault(vec + step, (witness + positions, classes + class_step))
                if len(reach) - 1 > budget:
                    raise CapacityError(
                        f"event {ev.event_id}: at least {len(reach) - 1} reachable swap "
                        f"vectors in part {part_idx} exceed {budget} "
                        f"(2^subset_cap - 1, subset cap {SUBSET_CAP})")
            del reach[0]
            searches.append(reach)
        total = sum(codes)
        for reach in searches:
            for vec, (witness, classes) in reach.items():
                swap_vars = {ev.dependent_vars[i] for i in witness}
                if self._swap_probability(ev, values, swap_vars,
                                          (prefix, total - vec, classes)) >= self.inner_thr:
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
            return EXACT_ZERO
        deps = ev.dependent_vars
        free = [v for v in deps if v not in fixed]
        if not free:
            est = (EXACT_ONE if self.indicator(a, _CheckedKey(map(fixed.__getitem__, deps)))
                   else EXACT_ZERO)
        else:
            layout = self._layout(a)
            outer_key = None
            if layout[0] != a and not force_mc:
                # A shared prefix: a shaped event whose swaps are never sampled.
                outer_key = self._outer_key(layout, deps, fixed)
                est = self._outer_memo.get(outer_key)
                if est is not None:
                    return est
            est = _mass_over(
                self.inst, free, fixed,
                lambda values: self.indicator(a, _CheckedKey(map(values.__getitem__, deps))),
                0 if force_mc else EXACT_OUTER_CAP,
                mc_samples or self.cfg.mc_samples, lambda: self._rng,
            )
            if outer_key is not None and est.exact:
                self._outer_memo[outer_key] = est
        if a not in self._inner_mc_events:
            return est
        # Some swap probability under the indicator was sampled, so the
        # estimate is not exact even when the outer one is; it carries the
        # inner sample count so that ``upper`` has a defined slack.
        return ProbabilityEstimate(est.value, exact=False,
                                   samples=est.samples or self.cfg.mc_samples)
