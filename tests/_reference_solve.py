"""Reference ground truths for the solver: exhaustive search and the
first-row draw.

``brute_force_solve`` decides satisfiability by depth-first search over
every assignment; the tests compare the solver's verdicts with it on small
instances. ``first_row_value`` draws a variable's first-row value from a
fresh str-seeded generator; the tests require the staged phase's
``seeds.first_row_sampler``, which re-seeds one generator per draw, to
give the same value for every variable in any order.
"""

import random

from resilient_lll.errors import CapacityError
from resilient_lll.model import BRUTE_FORCE_CAP


def brute_force_solve(inst):
    """Exhaustively search for an assignment avoiding every event.

    Returns an assignment dict, or None when the instance is unsatisfiable.
    Refuses instances with more than 2^24 total assignments.
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


def first_row_value(seed: int, var_id: int, spec) -> int:
    """The first-row value of variable ``var_id`` under table seed ``seed``,
    from a generator constructed for this one draw."""
    return spec.sample(random.Random(f"{seed}/{var_id}/1"))
