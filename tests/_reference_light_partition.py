"""Reference Monte Carlo check of the light partition's witness events.

At half the bad-event threshold, a vertex's witness event says that some
part holds that many of its neighbours. ``verify_resilience_1part``
estimates each witness probability from uniform rows and compares it, plus
3 sigma, with the per-part tail bound parts * e^(3*mu - witness threshold).
"""

import math

from resilient_lll.config import ThresholdConfig
from resilient_lll.errors import InputError
from resilient_lll.model import MaxPartLoad
from resilient_lll.seeds import rng_for


def witness_threshold(bad_threshold: int) -> int:
    """Half the bad-event threshold: seeing this many same-part neighbors in
    one row is the witness that makes row swaps able to cross the bad
    threshold at all."""
    return max(bad_threshold // 2, 1)


def verify_resilience_1part(inst, cfg: ThresholdConfig, trials: int,
                            seed: int = 0) -> dict:
    """Monte Carlo check that the witness event (at half the load threshold)
    is as rare as its per-part tail bound promises, event by event.

    For each event, estimates the probability that some part collects at
    least half the bad threshold among the counted neighbors, and compares
    estimate + 3 sigma against parts * e^(3*mu - witness_threshold).
    """
    parts = inst.variables[0].domain_size
    rng = rng_for(seed, "verify_light")
    witnesses = []
    for ev in inst.events:
        pred = ev.predicate
        if not isinstance(pred, MaxPartLoad):
            raise InputError("verify expects light-partition instances")
        witnesses.append(MaxPartLoad(pred.counted, witness_threshold(int(pred.threshold))))
    hits = [0] * len(witnesses)
    for _ in range(trials):
        row = [rng.randrange(parts) for _ in range(inst.var_count)]
        for idx, witness in enumerate(witnesses):
            hits[idx] += witness.evaluate(row, ())
    per_event = []
    for ev, witness, hit in zip(inst.events, witnesses, hits):
        est = hit / trials
        stderr = math.sqrt(est * (1 - est) / trials)
        bound = parts * math.exp(3 * (len(witness.counted) / parts) - witness.threshold)
        per_event.append({"event": ev.event_id, "estimate": est, "bound": bound,
                          "witness_threshold": witness.threshold,
                          "pass": est + 3 * stderr <= bound})
    return {"trials": trials, "parts": parts,
            "all_pass": all(e["pass"] for e in per_event), "events": per_event}
