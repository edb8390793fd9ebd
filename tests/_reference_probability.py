"""References for the probability tests.

Conditional event probability: the solver never asks for it, since the
vulnerability oracle conditions on revealed values by itself. The tests
use it to check the probability engine against enumeration, and the
residual against its bound.

The vulnerability oracle's memo key as it was built before event shape
records: per-variable class tuples, and nested sorts of (class, value
class) pairs. The tests check that the packed key shares indicators
between exactly the same (event, values) pairs.

The oracle's swap groups with variables in place of positions, and the
mask loop that tried every subset of them before the reachable-vector
search: the tests check the search's answers against it.
"""

import functools
import random

from resilient_lll.model import CountThreshold
from resilient_lll.probability import _conditioning, _probability_over, _validate_fixed
from resilient_lll.seeds import rng_for


def swap_groups(oracle, a):
    """Per part, the swap neighbors of event ``a`` with the dependencies
    they own, as variables: ``oracle._members`` with each position read as
    its variable."""
    deps = oracle.inst.events[a].dependent_vars
    return tuple((part_idx, tuple([(b, tuple([deps[i] for i in positions]))
                                   for b, positions in members]))
                 for part_idx, members in oracle._members(a))


def reference_indicator(oracle, a, key):
    """``VulnerabilityOracle.indicator`` of event ``a`` under the full
    reveal ``key``, without memos or caps."""
    ev = oracle.inst.events[a]
    values = dict(zip(ev.dependent_vars, key))
    if ev.structurally_false():
        return False
    if ev.evaluate(values):
        return True
    return ReferenceSubsets(oracle)._any_subset_over(ev, values)


class ReferenceSubsets:
    """The oracle's mask loop as it was, over the swap groups and the inner
    threshold of a ``VulnerabilityOracle``."""

    def __init__(self, oracle):
        self.inst = oracle.inst
        self.cfg = oracle.cfg
        self.inner_thr = oracle.inner_thr
        self.swap_groups = functools.partial(swap_groups, oracle)
        # A copy of the oracle's rng: a sampled swap draws what the oracle,
        # asked the same query first, would draw.
        self._rng = random.Random()
        self._rng.setstate(oracle._rng.getstate())

    def _swap_probability(self, event, base_values, swap_vars):
        fixed = {v: val for v, val in base_values.items() if v not in swap_vars}
        free = sorted(swap_vars)
        return _probability_over(self.inst, event, fixed, free, self.cfg.mc_samples,
                                 lambda: self._rng).value

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


def conditional_event_probability(inst, event_id, swap_events=(), row1_fixed=None,
                                  *, mc_samples=10_000, seed=0):
    """Probability of the swap event: the event is re-evaluated with the
    owned variables of ``swap_events`` drawn fresh and all other
    dependencies taking first-row values.

    ``row1_fixed`` pins already-revealed first-row values; swap variables
    ignore it. Unpinned values are drawn fresh from their distributions.
    """
    ev = inst.events[event_id]
    row1_fixed = row1_fixed or {}
    _validate_fixed(inst, row1_fixed)
    swap_vars = set()
    for b in swap_events:
        swap_vars.update(inst.allocated[b])
    fixed = {}
    free = []
    for v in ev.dependent_vars:
        if v in row1_fixed and v not in swap_vars:
            fixed[v] = row1_fixed[v]
        else:
            free.append(v)
    return _probability_over(inst, ev, fixed, free, mc_samples,
                             lambda: rng_for(seed, "cond_p", event_id, len(fixed)))


def count_classes(variables, event):
    """Per dependent variable of a ``CountThreshold`` event whose variables
    are all uniform, in dependency order, its class: (domain size,
    occurrences in each group, whether it is the reference variable).
    None for any other event."""
    pred = event.predicate
    deps = event.dependent_vars
    if not isinstance(pred, CountThreshold) or not all(
            variables[v].is_uniform for v in deps):
        return None
    # One pass over the groups: each counts its members in a dict in
    # dependency order, and zipping the dicts' counts gives each variable's
    # occurrences per group.
    counts = [dict.fromkeys(deps, 0) for _ in pred.groups]
    for count, group in zip(counts, pred.groups):
        for v in group:
            count[v] += 1
    return tuple((variables[v].domain_size, occurrences, v == pred.ref_var)
                 for v, occurrences in zip(deps, zip(*[c.values() for c in counts])))


class ReferenceMemoKeys:
    """The memo key of a ``VulnerabilityOracle`` (whose swap groups it
    reads), computed as the oracle once did."""

    def __init__(self, oracle):
        self.inst = oracle.inst
        self.swap_groups = functools.partial(swap_groups, oracle)
        self._layouts = {}

    def _layout(self, a: int):
        """Event ``a``'s variable classes and the dependency positions of
        each swap member per part. Every dependency has an owner and every
        owner is a swap member, so the members cover every position.

        None when the event keeps the per-event memo key: any event but a
        ``CountThreshold`` one over uniform variables, and such an event
        whose swap probabilities could be sampled, since a sampled value
        draws from the oracle's rng and is never shared."""
        if a in self._layouts:
            return self._layouts[a]
        ev = self.inst.events[a]
        classes = count_classes(self.inst.variables, ev)
        layout = None
        # A part's full swap set conditions on the most variables.
        if classes is not None and all(
                _conditioning(self.inst.variables, ev.predicate,
                              {v for _, sv in members for v in sv}) is not None
                for _, members in self.swap_groups(a)):
            position = {v: i for i, v in enumerate(ev.dependent_vars)}
            layout = (ev.predicate, classes,
                      tuple(tuple(tuple(position[v] for v in sv) for _, sv in members)
                            for _, members in self.swap_groups(a)))
        self._layouts[a] = layout
        return layout

    def _memo_key(self, a: int, key: tuple):
        """The indicator memo key of event ``a`` under the revealed values
        ``key`` (in dependency order).

        For a shaped event: the threshold, the reference value, and the
        sorted (class, value class) pairs of each swap member, the members
        of a part sorted and the parts sorted. The value class is whether
        the value equals a constant reference, or the raw value when the
        reference is a variable. Every swap probability is then an integer
        count that the key determines, and the indicator is the same for
        every event sharing it. The key is a 3-tuple, so it never equals a
        per-event (event, values) key."""
        layout = self._layout(a)
        if layout is None:
            return (a, key)
        pred, classes, parts = layout
        if pred.ref_var is None:
            key = [x == pred.ref_value for x in key]

        def stats(positions):
            return tuple(sorted((classes[i], key[i]) for i in positions))

        return (pred.threshold, pred.ref_value,
                tuple(sorted(tuple(sorted(map(stats, members))) for members in parts)))
