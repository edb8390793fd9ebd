"""Benchmark of the resilient-lll pipeline, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` of
the same checkout. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones. Each run
also writes its op seeds, output hashes and (traced) spans to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def report_lines(result, metrics, units):
    ops = result["ops"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  "
        f"trace {int('per_layer' in result)}",
        f"op seeds: {[op['seed'] for op in ops]}",
        f"ops: {len(ops)} attempted, {result['failed']} failed "
        f"(failed_frac {result['failed'] / len(ops):.4f})",
        f"op seconds: {[round(op['seconds'], 4) for op in ops]}",
        f"solve_s (median) {result['solve_s']:.4f} over {len(ops)} ops, "
        f"slowest {result['slowest_s']:.4f}, "
        f"throughput_ops_s {result['throughput_ops_s']:.4f}",
        f"set-up wall seconds {result['setup_wall_s']:.4f}",
    ]
    if result["tail"] is not None:
        lines.append("p{:.0f} op seconds {:.4f} (ten ops above it)".format(*result["tail"]))
    for op in ops:
        if op["error"] is not None:
            lines.append(f"  op {op['index']} (seed {op['seed']}) failed: {op['error']}")
    golden = result["golden"]
    lines.append(f"golden outputs: {golden['checked']} checked, "
                 f"{golden['mismatched']} mismatched, {golden['unknown']} unknown")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        lines.append(f"  {name:<{width}}  {value:.6g} {units[name]}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resilient_lll" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(REPO)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       started=STARTED)
    if args.trace:
        metrics = result["per_layer"]
        units = {name: bench.layer_unit(name) for name in metrics}
    else:
        metrics = result["end_to_end"]
        units = bench.END_TO_END_UNITS

    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(result, fh)

    print("\n".join(report_lines(result, metrics, units)))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": len(result["ops"]),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
