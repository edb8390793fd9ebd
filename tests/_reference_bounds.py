"""Reference Chernoff envelopes of one defective split's bad events.

The tests compare sampled bad-event rates of ``build_split_instance``
instances with these tail bounds.
"""

import math

from resilient_lll.defective import _lg_clamped


def vertex_split_p_bound(delta: float, q: float) -> float:
    """Tail bound on one vertex collecting threshold many same-color
    neighbors under a uniform two-way split."""
    return math.exp(-delta / (24 * (q * _lg_clamped(delta)) ** 2))


def edge_split_p_bound(delta: float, q: float) -> float:
    return 2 * math.exp(-delta / (38 * (q * _lg_clamped(delta)) ** 2))
