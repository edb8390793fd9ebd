"""Conditional event probability, as a reference for the tests.

The solver never asks for it: the vulnerability oracle conditions on
revealed values by itself. The tests use it to check the probability
engine against enumeration, and the residual against its bound.
"""

from resilient_lll.probability import _probability_over, _validate_fixed
from resilient_lll.seeds import rng_for


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
