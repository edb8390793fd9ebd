"""Command-line interface: generators, solvers, colorings, experiments."""

from __future__ import annotations

import argparse
import json
import sys

from .config import lg, resolve_config
from .edge_coloring import color_edges, minimal_epsilon
from .errors import (CapacityError, ComponentFailure, ContractViolation,
                     InputError, ReductionViolation, read_json)
from .experiment import ExperimentSpec, run_experiment
from .defective import defect_violations, iterate_halving
from .general import solve_general
from .graph import Partition, load_graph, save_graph
from .light_partition import compute_light_partition_detailed
from .model import (
    check_assignment,
    load_assignment,
    load_instance,
    save_assignment,
    save_instance,
)
from . import generators
from . import solver


def _parse_params(text):
    """k=v comma list with numeric coercion: 'n=100,d=8,p=0.1'."""
    params = {}
    if not text:
        return params
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"bad parameter {item!r}; expected k=v")
        key, value = item.split("=", 1)
        try:
            params[key] = int(value)
        except ValueError:
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return params


def _write_json(data, path):
    if path in (None, "-"):
        json.dump(data, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)


def _add_common(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--constants", default="relaxed",
                   help="strict | relaxed | file:PATH")
    p.add_argument("--mc-samples", type=int, default=None,
                   help="override Monte Carlo sample count")


def _config(args):
    cfg = resolve_config(args.constants)
    if getattr(args, "mc_samples", None) is not None:
        cfg = cfg.replace(mc_samples=args.mc_samples)
    return cfg


def cmd_gen(args):
    params = _parse_params(args.params)
    subject = generators.generate(args.kind, args.family, params, args.seed)
    if args.kind == "graph":
        save_graph(subject, args.out)
    else:
        save_instance(subject, args.out)
    print(f"wrote {args.kind} ({args.family}) to {args.out}")
    return 0


def cmd_solve_resilient(args):
    inst = load_instance(args.instance)
    cfg = _config(args)
    if args.partition_file:
        data = read_json(args.partition_file)
        try:
            part = Partition(data["part_count"],
                             tuple(data["assignment"][str(a)]
                                   for a in range(inst.event_count)))
        except (AttributeError, KeyError, TypeError) as exc:
            raise InputError(f"partition file: {type(exc).__name__}: {exc}") from None
    else:
        part = Partition.round_robin(inst.event_count, args.parts)
    result = solver.solve(inst, part, cfg, args.seed)
    save_assignment(result.assignment, f"{args.out_prefix}.assignment.json")
    _write_json(result.stage.to_dict(), f"{args.out_prefix}.report.json")
    print(f"solved: rounds={result.rounds_used} "
          f"post_resamplings={result.post_resamplings}")
    return 0


def cmd_solve_general(args):
    inst = load_instance(args.instance)
    cfg = _config(args)
    res = solve_general(inst, args.r, cfg, args.seed, mode=args.mode)
    save_assignment(res.assignment, f"{args.out_prefix}.assignment.json")
    report = res.to_dict()
    report.pop("assignment")
    _write_json(report, f"{args.out_prefix}.report.json")
    status = "with warnings" if res.warnings else "clean"
    print(f"solved ({status}): rounds={res.rounds_used} "
          f"certificate={res.certificate.value:.3g}")
    return 0


def cmd_partition(args):
    g = load_graph(args.graph)
    cfg = _config(args)
    rep = compute_light_partition_detailed(g, args.x, cfg, args.seed)
    _write_json(
        {
            "part_count": rep.partition.part_count,
            "assignment": {str(v): rep.partition.part_of(v)
                           for v in range(g.node_count)},
            "per_part_bound": rep.per_part_bound,
            "max_observed_load": rep.max_observed_load,
            "stage_rounds": rep.stage_rounds,
        },
        args.out,
    )
    print(f"partitioned into {rep.partition.part_count} parts; "
          f"max load {rep.max_observed_load} <= {rep.per_part_bound}")
    return 0


def cmd_defective(args):
    g = load_graph(args.graph)
    cfg = _config(args)
    coloring = iterate_halving(g, args.kind, args.q, cfg, args.seed)
    violations = defect_violations(g, coloring)
    out = coloring.to_dict()
    out["verification"] = {
        "violations": violations,
        "ok": not violations,
    }
    out["history"] = list(coloring.history)
    _write_json(out, args.out)
    print(f"{coloring.color_count} classes, defect bound "
          f"{coloring.defect_bound:.2f}, violations: {len(violations)}")
    return 0 if not violations else 1


def cmd_edgecolor(args):
    g = load_graph(args.graph)
    cfg = _config(args)
    if args.preset == "delta-o-delta":
        eps = minimal_epsilon(max(g.max_degree, 1))
        loglog = lg(max(lg(max(g.node_count, 4)), 2.0))
        if float(eps) > 1.0 / loglog:
            raise InputError(
                f"preset needs eps = {float(eps):.4f} <= 1/lg(lg(n)) = "
                f"{1.0 / loglog:.4f}; graph too small for the preset claim"
            )
    elif args.epsilon is None:
        raise InputError("provide --epsilon or --preset")
    else:
        eps = args.epsilon
    res = color_edges(g, eps, cfg, args.seed)
    _write_json(res.to_dict(), args.out)
    print(f"{res.colors_used} colors of "
          f"{res.plan.palette.total_colors} ({res.plan.mode} mode); "
          f"proper: {res.verification['proper']}")
    return 0


def cmd_check(args):
    inst = load_instance(args.instance)
    assignment = load_assignment(args.assignment)
    report = check_assignment(inst, assignment)
    _write_json({"violated_events": report.violated_events,
                 "valid": report.valid}, args.out)
    print("valid" if report.valid else
          f"INVALID: {len(report.violated_events)} events violated")
    return 0 if report.valid else 1


def cmd_experiment(args):
    spec = ExperimentSpec.from_dict(read_json(args.spec))
    if args.out:
        spec.output_path = args.out
    records, summary = run_experiment(spec, workers=args.workers,
                                      fmt=args.format)
    print(json.dumps(summary, indent=1))
    return 0 if summary["successes"] == summary["runs"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rlll",
        description="Staged constraint-avoidance solver and graph colorings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph or instance")
    p.add_argument("--kind", choices=("graph", "instance"), required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="", help="k=v,k=v parameter list")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve-resilient", help="staged solve under a given partition")
    p.add_argument("--instance", required=True)
    p.add_argument("--parts", type=int, default=1,
                   help="round-robin event partition size")
    p.add_argument("--partition-file", default=None)
    p.add_argument("--out-prefix", default="run")
    _add_common(p)
    p.set_defaults(func=cmd_solve_resilient)

    p = sub.add_parser("solve-general", help="criterion check, partition, solve")
    p.add_argument("--instance", required=True)
    p.add_argument("--r", type=int, default=None)  # omitted: the driver chooses
    p.add_argument("--mode", choices=("strict", "relaxed"), default=None)
    p.add_argument("--out-prefix", default="run")
    _add_common(p)
    p.set_defaults(func=cmd_solve_general)

    p = sub.add_parser("partition", help="compute a light partition of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("defective", help="defective vertex/edge coloring")
    p.add_argument("--kind", choices=("vertex", "edge"), required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=cmd_defective)

    p = sub.add_parser("edgecolor", help="proper edge coloring")
    p.add_argument("--graph", required=True)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--preset", choices=("delta-o-delta",), default=None)
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=cmd_edgecolor)

    p = sub.add_parser("check", help="validate an assignment against an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--assignment", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("experiment", help="seed sweep from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an input file that cannot be opened
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, ComponentFailure, ContractViolation,
            ReductionViolation) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
