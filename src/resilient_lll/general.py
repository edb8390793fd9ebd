"""End-to-end driver for instances meeting the p <= 2^(-c*d_vars/r) criterion.

The pipeline: check the criterion, build a (d_vars/r)-light partition of the
allocation graph (so any event has few allocation neighbors per part),
certify resilience by a per-event union bound, then run the staged solver
over that partition.

The certificate computed here is per-event exact: for each event it sums
2^(same-part allocation neighbors) over parts, times the event probability
over the swap threshold. That is never larger than the uniform expression
parts * 2^(gamma*d_vars/parts) * p * d^c3, and is meaningful at small scale
where the uniform envelope is hopeless.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .config import ThresholdConfig, lg
from .errors import InputError
from .graph import Partition
from .light_partition import compute_light_partition_detailed
from .model import LllInstance
from .probability import event_probability
from .seeds import derive_seed
from . import solver


def max_parts(d_vars: int) -> int:
    """Largest admissible part count: floor(d_vars / lg(d_vars))."""
    if d_vars < 2:
        return 1
    return max(1, math.floor(d_vars / lg(d_vars)))


def preset_parts(d_vars: int, preset: str) -> int:
    """Part-count presets for the two ends of the criterion trade-off."""
    if d_vars < 2:
        return 1
    if preset == "max-parts":      # polynomially-weak criterion endpoint
        return min(max_parts(d_vars), math.ceil(d_vars / lg(d_vars)))
    if preset == "log-parts":      # strong-criterion endpoint
        return min(max_parts(d_vars), math.ceil(lg(d_vars)))
    raise InputError(f"unknown preset {preset!r}")


def choose_parts(d_vars: int, p: float, c: float) -> int:
    """Smallest admissible part count satisfying p <= 2^(-c*d_vars/r)."""
    if p <= 0:
        return 1
    if p >= 1:
        return max_parts(d_vars)
    needed = c * d_vars / math.log2(1.0 / p)
    return min(max(1, math.ceil(needed)), max_parts(d_vars))


@dataclass
class CriterionReport:
    ok: bool
    p: float
    bound: float
    margin: float
    exact: bool
    c: float
    r: int
    worst_event: int | None

    def to_dict(self):
        return asdict(self)


def event_estimates(inst: LllInstance, *, mc_samples: int = 10_000,
                    seed: int = 0) -> list:
    """Probability estimate of every event, indexed by event id. Events
    with one ``EventShape.estimate_key`` share one estimate, which is
    exact; any other event's estimate is its own (a sampled one's seed
    names the event)."""
    shared, estimates = {}, []
    for a, shape in enumerate(inst.shapes):
        key = a if shape is None else shape.estimate_key
        est = shared.get(key)
        if est is None:
            est = shared[key] = event_probability(inst, a, mc_samples=mc_samples, seed=seed)
        estimates.append(est)
    return estimates


def criterion_check(inst: LllInstance, r: int, c: float, *,
                    estimates) -> CriterionReport:
    """Whether max event probability p satisfies p <= 2^(-c*d_vars/r).

    The bound is inclusive. ``estimates`` holds the per-event estimates,
    indexed by event id (see ``event_estimates``)."""
    if not 1 <= r <= max_parts(inst.d_vars):
        raise InputError(
            f"r = {r} outside [1, {max_parts(inst.d_vars)}] for "
            f"d_vars = {inst.d_vars}"
        )
    worst = max(range(len(estimates)), key=lambda a: estimates[a].value,
                default=None)
    p = 0.0 if worst is None else estimates[worst].value
    bound = 2.0 ** (-c * inst.d_vars / r)
    margin = math.inf if p == 0 else bound / p
    return CriterionReport(
        ok=p <= bound, p=p, bound=bound, margin=margin,
        exact=all(est.exact for est in estimates), c=c, r=r, worst_event=worst,
    )


@dataclass
class CertificateReport:
    value: float
    threshold: float
    passes: bool
    uniform_bound: float
    p_used: float
    exact: bool

    def to_dict(self):
        return asdict(self)


def resilience_certificate(inst: LllInstance, part: Partition,
                           cfg: ThresholdConfig, *,
                           estimates) -> CertificateReport:
    """Union bound on the vulnerability probability of any event.

    For each event: count every nonempty same-part subset of its inclusive
    allocation neighborhood once, plus the empty swap once (it is one event,
    not one per part), times the event's probability amplified by d^c3:

        (sum_i (2^(neighbors in part i) - 1) + 1) * p_A * d^c3

    Passing means the maximum over events is at most d^-c2. De-duplicating
    the empty set keeps the bound monotone under partition refinement.
    ``estimates`` is as in ``criterion_check``.

    ``uniform_bound`` is the envelope r * 2^(gamma*d_vars/r) * p * d^c3
    with p the largest estimate. It is infinite once 2^(gamma*d_vars/r) is
    past the float range, unless p is zero."""
    if part.size != inst.event_count:
        raise InputError("partition must cover all events")
    d_eff = max(inst.d, 1)
    amp = d_eff ** cfg.c3
    threshold = cfg.resilience_threshold(inst.d)
    value = 0.0
    for ev in inst.events:
        p_a = estimates[ev.event_id].value
        loads = [0] * part.part_count
        loads[part.part_of(ev.event_id)] += 1
        for b in inst.alloc_graph.neighbors(ev.event_id):
            loads[part.part_of(b)] += 1
        subset_count = sum(2.0 ** load - 1.0 for load in loads) + 1.0
        value = max(value, subset_count * p_a * amp)
    p_max = max((est.value for est in estimates), default=0.0)
    r = part.part_count
    exponent = cfg.gamma * inst.d_vars / r
    if exponent < 1024:  # 2.0 ** 1024 raises OverflowError
        uniform = r * 2.0 ** exponent * p_max * amp
    else:
        uniform = math.inf if p_max else 0.0
    return CertificateReport(
        value=value,
        threshold=threshold,
        passes=value <= threshold,
        uniform_bound=uniform,
        p_used=p_max,
        exact=all(est.exact for est in estimates),
    )


@dataclass
class GeneralResult:
    assignment: dict
    partition: Partition
    criterion: CriterionReport
    certificate: CertificateReport
    stage: solver.StageReport
    components: list
    rounds_used: int
    partition_stage_rounds: int
    post_resamplings: int
    warnings: list

    def to_dict(self):
        return {
            "assignment": {str(k): v for k, v in sorted(self.assignment.items())},
            "criterion": self.criterion.to_dict(),
            "certificate": self.certificate.to_dict(),
            "stage": self.stage.to_dict(),
            "components": self.components,
            "rounds_used": self.rounds_used,
            "partition_stage_rounds": self.partition_stage_rounds,
            "post_resamplings": self.post_resamplings,
            "warnings": self.warnings,
        }


def solve_general(inst: LllInstance, r: int | None, cfg: ThresholdConfig,
                  seed: int, *, mode: str | None = None) -> GeneralResult:
    """Light partition of the allocation graph, certificate, staged solve.

    One exact-or-sampled estimate per event (``event_estimates``, with
    ``cfg.mc_samples`` draws) serves the criterion, at exponent
    ``cfg.criterion_c``, and the certificate. With ``r=None`` the part
    count is ``choose_parts`` of the largest of those estimates: the
    smallest admissible r whose criterion it meets, or the largest
    admissible r.

    In strict mode a failed criterion or certificate is a precondition
    error; in relaxed mode both downgrade to recorded warnings (the
    guarantees are void there anyway, and the output is still validated).
    """
    mode = mode or ("strict" if cfg.guarantee_grade else "relaxed")
    if mode not in ("strict", "relaxed"):
        raise InputError(f"unknown mode {mode!r}")
    c = cfg.criterion_c
    warnings = []

    estimates = event_estimates(inst, mc_samples=cfg.mc_samples,
                                seed=derive_seed(seed, "crit"))
    if r is None:
        r = choose_parts(inst.d_vars,
                         max((est.value for est in estimates), default=0.0), c)
    crit = criterion_check(inst, r, c, estimates=estimates)
    if not crit.ok:
        msg = (f"criterion failed: p = {crit.p:.3g} > 2^(-c*d_vars/r) = "
               f"{crit.bound:.3g}")
        if mode == "strict":
            raise InputError(msg)
        warnings.append(msg)

    if inst.d_vars >= 2:
        x = inst.d_vars / r
    else:
        x = 1.0
    lp = compute_light_partition_detailed(
        inst.alloc_graph, x, cfg, derive_seed(seed, "partition")
    )
    part = lp.partition

    cert = resilience_certificate(inst, part, cfg, estimates=estimates)
    if not cert.passes:
        msg = (f"resilience certificate failed: value {cert.value:.3g} > "
               f"threshold {cert.threshold:.3g}")
        if mode == "strict":
            raise InputError(msg)
        warnings.append(msg)

    result = solver.solve(inst, part, cfg, derive_seed(seed, "solve"))
    return GeneralResult(
        assignment=result.assignment,
        partition=part,
        criterion=crit,
        certificate=cert,
        stage=result.stage,
        components=result.components,
        rounds_used=result.rounds_used,
        partition_stage_rounds=lp.stage_rounds,
        post_resamplings=result.post_resamplings,
        warnings=warnings,
    )
