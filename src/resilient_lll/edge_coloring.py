"""Proper edge coloring with ceil((1+eps)*max_degree) colors.

Two regimes, dispatched by exact-arithmetic feasibility checks:

- bucketed: a defective edge coloring with q = eps^-2 splits the edges into
  buckets of degree at most delta' = x + x*eps^2 (x the final class size of
  the halving); the palette is divided lexicographically into near-equal
  contiguous ranges, one per bucket, and each bucket is colored
  independently inside its range. The palette algebra - each range holds at
  least (1 + eps/2) * delta' colors - is verified in exact rationals on
  every run.
- direct: when the bucket algebra is infeasible at this degree (it needs
  degrees around 10^5 even at eps = 1/4), a single bucket spanning the whole
  palette is used, requiring only ceil((1+eps)*delta) >= delta + 1.

Either way the inner colorer is the centralized fan-rotation method, so the
verifiable guarantees (properness, palette size) are preserved end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .config import ThresholdConfig, lg
from .defective import (
    EDGE,
    halving_iterations,
    iterate_halving,
    iteration_floor,
    split_precondition_ok,
)
from .errors import InputError, ReductionViolation
from .graph import Graph
from .misra_gries import misra_gries_edge_coloring, proper_coloring_violations
from .seeds import derive_seed


@dataclass(frozen=True)
class PaletteSplit:
    """Contiguous half-open color ranges, one per bucket, whose sizes
    differ by at most one, the larger first. A range is computed from
    (total_colors, bucket_count) when it is read, since a plan at high
    degree asks for millions of buckets."""
    total_colors: int
    bucket_count: int

    def range(self, label: int) -> tuple:
        """The half-open (start, end) color range of bucket ``label``."""
        if not 0 <= label < self.bucket_count:
            raise IndexError(
                f"bucket {label} out of range for {self.bucket_count} buckets")
        base, extra = divmod(self.total_colors, self.bucket_count)
        start = label * base + min(label, extra)
        return (start, start + base + (1 if label < extra else 0))


def split_palette(total_colors: int, bucket_count: int) -> PaletteSplit:
    if bucket_count < 1 or total_colors < bucket_count:
        raise InputError(
            f"cannot split {total_colors} colors into {bucket_count} buckets"
        )
    return PaletteSplit(total_colors, bucket_count)


@dataclass
class ReductionPlan:
    mode: str               # "bucketed" | "direct"
    epsilon: float
    q: float
    iterations: int
    x: float                # final class size of the halving (bucket scale)
    delta_prime: float      # bucket degree bound consumed by the algebra
    eps_prime: float
    palette: PaletteSplit
    implied_c: float        # x / (q^2 lg(q)^4), the halving's actual constant
    checks: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "mode": self.mode,
            "epsilon": self.epsilon,
            "q": self.q,
            "iterations": self.iterations,
            "x": self.x,
            "delta_prime": self.delta_prime,
            "eps_prime": self.eps_prime,
            "total_colors": self.palette.total_colors,
            "bucket_count": self.palette.bucket_count,
            "implied_c": self.implied_c,
            "checks": self.checks,
        }


def minimal_epsilon(delta: int) -> Fraction:
    """Canonical smallest slack at this degree: exactly 1/delta, so the
    palette (1 + eps) * delta lands on delta + 1 before any ceiling.
    Returned as an exact rational; the planner accepts it as-is."""
    if delta < 1:
        raise InputError("degree must be positive")
    return Fraction(1, delta)


def hardened_omega_bound(delta: int) -> float:
    """Explicit-constant form of the asymptotic admissibility window for the
    bucketed route."""
    if delta < 2:
        return math.inf
    return 8.0 * lg(delta) ** 2.5 / math.sqrt(delta)


def plan_reduction(delta: int, eps: float) -> ReductionPlan:
    """Derive q, bucket count, bucket degree bound and the palette split;
    every inequality the reduction relies on is checked in exact rationals.

    Raises InputError, listing both sides, when neither regime validates.
    """
    if delta < 1:
        raise InputError("degree must be positive")
    if eps <= 0:
        raise InputError("epsilon must be positive")
    f_eps = eps if isinstance(eps, Fraction) else Fraction(eps)
    eps_f = float(eps)
    total = math.ceil((1 + f_eps) * delta)
    checks = {}

    q = eps_f ** -2
    bucket_gate = (
        delta >= 4
        and eps_f <= 1.0
        and eps_f >= hardened_omega_bound(delta)
        and split_precondition_ok(delta, q)
    )
    k = halving_iterations(delta, q) if bucket_gate else 0
    if bucket_gate and k >= 1:
        f_q = 1 / (f_eps * f_eps)
        x = Fraction(delta, 2 ** k)
        delta_prime = x + x / f_q
        eps_prime = f_eps / 2
        lhs_chain = (1 + f_eps) * x - 1
        rhs_chain = (1 + eps_prime) * delta_prime
        min_range = total // 2 ** k
        checks["palette_chain"] = {
            "lhs": str(lhs_chain), "rhs": str(rhs_chain),
            "holds": lhs_chain >= rhs_chain,
        }
        checks["bucket_range"] = {
            "lhs": str(min_range), "rhs": str(rhs_chain),
            "holds": Fraction(min_range) >= rhs_chain,
        }
        implied_c = float(x / Fraction(iteration_floor(q)).limit_denominator(10 ** 12))
        if checks["palette_chain"]["holds"] and checks["bucket_range"]["holds"]:
            return ReductionPlan(
                mode="bucketed",
                epsilon=eps_f,
                q=q,
                iterations=k,
                x=float(x),
                delta_prime=float(delta_prime),
                eps_prime=float(eps_prime),
                palette=split_palette(total, 2 ** k),
                implied_c=implied_c,
                checks=checks,
            )

    direct_ok = total >= delta + 1
    checks["direct_palette"] = {
        "lhs": str(total), "rhs": str(delta + 1), "holds": bool(direct_ok),
    }
    if direct_ok:
        return ReductionPlan(
            mode="direct",
            epsilon=eps_f,
            q=q,
            iterations=0,
            x=float(delta),
            delta_prime=float(delta),
            eps_prime=eps_f,
            palette=split_palette(total, 1),
            implied_c=1.0,
            checks=checks,
        )
    raise InputError(
        f"no admissible regime: palette {total} vs degree+1 = {delta + 1}; "
        f"eps*delta = {eps_f * delta:.3f}"
    )


@dataclass
class EdgeColoringResult:
    colors: dict            # (u, v) with u < v -> color
    plan: ReductionPlan
    colors_used: int
    bucket_degrees: list
    verification: dict

    def to_dict(self):
        return {
            "colors": {f"{u},{v}": c for (u, v), c in sorted(self.colors.items())},
            "plan": self.plan.to_dict(),
            "colors_used": self.colors_used,
            "bucket_degrees": self.bucket_degrees,
            "verification": self.verification,
        }


def color_edges(g: Graph, eps: float, cfg: ThresholdConfig, seed: int,
                plan: ReductionPlan | None = None) -> EdgeColoringResult:
    """Properly color E(g) with at most ceil((1+eps)*max_degree) colors.

    ``plan`` overrides the derived reduction plan (for decoupling the
    bucket count from eps); the per-bucket degree and range assertions
    still apply, so an inadmissible plan fails loudly rather than
    miscoloring."""
    edges = g.edges()
    delta = g.max_degree
    if not edges:
        plan = ReductionPlan("direct", eps, 0.0, 0, 0.0, 0.0, eps,
                             split_palette(1, 1), 1.0)
        return EdgeColoringResult({}, plan, 0, [], {"proper": True, "violations": []})
    if plan is None:
        plan = plan_reduction(delta, eps)

    colors = [None] * len(edges)
    bucket_degrees = []
    if plan.mode == "direct":
        colors = misra_gries_edge_coloring(g.node_count, edges,
                                           [len(a) for a in g.adjacency])
        bucket_degrees = [delta]
    else:
        defective = iterate_halving(g, EDGE, plan.q, cfg, derive_seed(seed, "buckets"))
        if defective.color_count != plan.palette.bucket_count:
            raise ReductionViolation(
                f"halving produced {defective.color_count} buckets, plan "
                f"expected {plan.palette.bucket_count}"
            )
        buckets = {label: rest for label, *rest in defective.classes}
        for label in range(plan.palette.bucket_count):
            members, degree = buckets.get(label, ((), [0] * g.node_count))
            start, end = plan.palette.range(label)
            delta_b = max(degree)
            bucket_degrees.append(delta_b)
            if delta_b >= plan.delta_prime:
                raise ReductionViolation(
                    f"bucket {label} degree {delta_b} reached the bound "
                    f"{plan.delta_prime}"
                )
            if delta_b + 1 > end - start:
                raise ReductionViolation(
                    f"bucket {label} needs {delta_b + 1} colors but its range "
                    f"holds {end - start}"
                )
            raw = misra_gries_edge_coloring(
                g.node_count, [edges[i] for i in members], degree)
            for i, c in zip(members, raw):
                colors[i] = start + c

    coloring = {e: c for e, c in zip(edges, colors)}
    verification = verify_edge_coloring(g, coloring, plan.palette.total_colors)
    if not verification["proper"] or not verification["within_palette"]:
        raise ReductionViolation(f"output failed verification: {verification}")
    return EdgeColoringResult(
        colors=coloring,
        plan=plan,
        colors_used=len(set(colors)),
        bucket_degrees=bucket_degrees,
        verification=verification,
    )


def verify_edge_coloring(g: Graph, coloring: dict, palette_bound: int) -> dict:
    """Properness violations (a linear per-vertex color check, listing the
    clashing pairs) plus palette usage. An edge that is absent or colored
    None is uncolored and raises InputError, as does a color that is not
    an int (True, 1.0)."""
    edges = g.edges()
    colors = [coloring.get(e) for e in edges]
    if not set(map(type, colors)) <= {int}:
        missing = [e for e, c in zip(edges, colors) if c is None]
        if missing:
            raise InputError(f"coloring missing edges, e.g. {missing[:5]}")
        e, c = next((e, c) for e, c in zip(edges, colors) if type(c) is not int)
        raise InputError(f"edge {e} has color {c!r}, not an int")
    used = set(colors)
    violations = proper_coloring_violations(g.node_count, edges, colors)
    return {
        "proper": not violations,
        "violations": [
            {"vertex": v, "edges": [list(edges[a]), list(edges[b])]}
            for v, a, b in violations
        ],
        "colors_used": len(used),
        "within_palette": all(0 <= c < palette_bound for c in used),
        "palette_bound": palette_bound,
    }
