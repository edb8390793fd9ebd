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
from dataclasses import dataclass, field

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
        return {
            "ok": self.ok, "p": self.p, "bound": self.bound,
            "margin": self.margin, "exact": self.exact,
            "c": self.c, "r": self.r, "worst_event": self.worst_event,
        }


def event_estimates(inst: LllInstance, *, mc_samples: int = 10_000,
                    seed: int = 0) -> list:
    """Probability estimate of every event, indexed by event id."""
    return [event_probability(inst, ev.event_id, mc_samples=mc_samples, seed=seed)
            for ev in inst.events]


def criterion_check(inst: LllInstance, r: int, c: float, *, p_bound=None,
                    estimates=None, mc_samples: int = 10_000,
                    seed: int = 0) -> CriterionReport:
    """Whether max event probability p satisfies p <= 2^(-c*d_vars/r).

    The bound is inclusive. ``p_bound`` substitutes an analytic upper bound
    on p, skipping per-event estimation (useful when events are too wide to
    enumerate). ``estimates`` supplies precomputed per-event estimates (see
    ``event_estimates``) in place of computing them here."""
    if not 1 <= r <= max_parts(inst.d_vars):
        raise InputError(
            f"r = {r} outside [1, {max_parts(inst.d_vars)}] for "
            f"d_vars = {inst.d_vars}"
        )
    if p_bound is not None:
        p, exact, worst = float(p_bound), True, None
    else:
        if estimates is None:
            estimates = event_estimates(inst, mc_samples=mc_samples, seed=seed)
        worst = max(range(len(estimates)), key=lambda a: estimates[a].value,
                    default=None)
        p = 0.0 if worst is None else estimates[worst].value
        exact = all(est.exact for est in estimates)
    bound = 2.0 ** (-c * inst.d_vars / r)
    margin = math.inf if p == 0 else bound / p
    return CriterionReport(
        ok=p <= bound, p=p, bound=bound, margin=margin, exact=exact, c=c, r=r,
        worst_event=worst,
    )


@dataclass
class CertificateReport:
    value: float
    threshold: float
    passes: bool
    uniform_bound: float
    p_used: float
    exact: bool
    per_event: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "value": self.value, "threshold": self.threshold,
            "passes": self.passes, "uniform_bound": self.uniform_bound,
            "p_used": self.p_used, "exact": self.exact,
        }


def resilience_certificate(inst: LllInstance, part: Partition,
                           cfg: ThresholdConfig, *, p_bound=None,
                           estimates=None, mc_samples: int = 10_000, seed: int = 0,
                           keep_per_event: bool = False) -> CertificateReport:
    """Union bound on the vulnerability probability of any event.

    For each event: count every nonempty same-part subset of its inclusive
    allocation neighborhood once, plus the empty swap once (it is one event,
    not one per part), times the event's probability amplified by d^c3:

        (sum_i (2^(neighbors in part i) - 1) + 1) * p_A * d^c3

    Passing means the maximum over events is at most d^-c2. De-duplicating
    the empty set keeps the bound monotone under partition refinement.
    ``p_bound`` and ``estimates`` act as in ``criterion_check``."""
    if part.size != inst.event_count:
        raise InputError("partition must cover all events")
    if p_bound is None and estimates is None:
        estimates = event_estimates(inst, mc_samples=mc_samples, seed=seed)
    d_eff = max(inst.d, 1)
    amp = d_eff ** cfg.c3
    threshold = cfg.resilience_threshold(inst.d)
    value = 0.0
    p_max = 0.0
    exact = True
    per_event = {}
    for ev in inst.events:
        if p_bound is not None:
            p_a = float(p_bound)
        else:
            est = estimates[ev.event_id]
            p_a = est.value
            exact = exact and est.exact
        p_max = max(p_max, p_a)
        loads = [0] * part.part_count
        loads[part.part_of(ev.event_id)] += 1
        for b in inst.alloc_graph.neighbors(ev.event_id):
            loads[part.part_of(b)] += 1
        subset_count = sum(2.0 ** load - 1.0 for load in loads) + 1.0
        total = subset_count * p_a * amp
        if keep_per_event:
            per_event[ev.event_id] = total
        value = max(value, total)
    r = part.part_count
    uniform = r * 2.0 ** (cfg.gamma * inst.d_vars / r) * p_max * amp
    return CertificateReport(
        value=value,
        threshold=threshold,
        passes=value <= threshold,
        uniform_bound=uniform,
        p_used=p_max,
        exact=exact,
        per_event=per_event,
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


def solve_general(inst: LllInstance, r: int, cfg: ThresholdConfig, seed: int,
                  *, c: float | None = None, p_bound=None,
                  mode: str | None = None) -> GeneralResult:
    """Light partition of the allocation graph, certificate, staged solve.

    In strict mode a failed criterion or certificate is a precondition
    error; in relaxed mode both downgrade to recorded warnings (the
    guarantees are void there anyway, and the output is still validated).
    """
    mode = mode or ("strict" if cfg.guarantee_grade else "relaxed")
    if mode not in ("strict", "relaxed"):
        raise InputError(f"unknown mode {mode!r}")
    c = cfg.criterion_c if c is None else c
    warnings = []

    # One estimate per event serves both the criterion and the certificate.
    estimates = None
    if p_bound is None:
        estimates = event_estimates(inst, mc_samples=cfg.mc_samples,
                                    seed=derive_seed(seed, "crit"))
    crit = criterion_check(inst, r, c, p_bound=p_bound, estimates=estimates)
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

    cert = resilience_certificate(inst, part, cfg, p_bound=p_bound,
                                  estimates=estimates)
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
