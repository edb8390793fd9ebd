"""One benchmark run: set-up, then a closed loop of ops with one client.

Each op starts only after the previous one has finished and been checked,
and each uses a distinct input derived from the run seed with
``derive_seed(seed, workload, index)``. Ops are timed from their serialized
input to the library call's return; input generation, checks and hashing
happen outside the timer. Just before each op, and outside its timer, a
fixed reference computation is timed; the gated solve metric is the op's
time in units of it (see ``host_reference``).
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from pathlib import Path

from resilient_lll.seeds import derive_seed

from .tracing import NoTrace, Tracer, op_layers
from .workloads import WORKLOADS, CheckFailed

GOLDEN = Path(__file__).resolve().parent / "golden.json"
SETUP_REPEATS = 11
# The host reference's median time on the 2-vCPU VM the baseline was taken
# on. ``setup_s`` is set-up time rescaled to a host running at that speed.
REFERENCE_S = 0.007

END_TO_END_UNITS = {
    "solve_ref": "ref",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RATIOS = ("probability.indicator_reuse", "solver.fixed_share",
          "shattering.exhaustive_share")


def layer_unit(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def host_reference() -> float:
    """Seconds taken by a fixed pure-Python computation that never calls the
    library: dict inserts, a keyed sort and a set intersection, the kinds of
    work the ops do. Timed just before each op, it gives the speed at which
    the host runs the interpreter at that moment. A shared host's speed
    drifts by tens of percent within minutes, and an op's time divided by
    it does not."""
    t0 = time.perf_counter()
    table = {}
    for i in range(30000):
        table[(i * 7919) % 30011] = i
    values = sorted(table.values(), key=lambda v: -v)
    len(set(values[::3]) & set(values[::5]))
    return time.perf_counter() - t0


def tail_percentile(times):
    """(percentile, seconds) of the slowest op time that still has ten
    op times above it, or None for a run of ten ops or fewer."""
    if len(times) <= 10:
        return None
    return 100 * (len(times) - 10) / len(times), sorted(times)[-11]


def load_golden() -> dict:
    if not GOLDEN.is_file():
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def _one_op(wl, data, reference, op_seed, size, tracer):
    """Run, time and check one op; never raises for a library error."""
    error = digest = None
    t0 = time.perf_counter()
    try:
        with tracer.span("op"):
            output = wl.run(data, op_seed, size, tracer)
    except Exception as exc:  # recorded per op; the loop goes on
        seconds = time.perf_counter() - t0
        return seconds, f"{type(exc).__name__}: {exc}"[:300], None
    seconds = time.perf_counter() - t0
    try:
        wl.check(reference, output, size)
        digest = wl.canonical(output)
    except CheckFailed as exc:
        error = f"CheckFailed: {exc}"[:300]
    except Exception as exc:  # a verifier that raises is a failed check
        error = f"{type(exc).__name__}: {exc}"[:300]
    return seconds, error, digest


def set_up(wl, seed, size):
    """Generate the first op's input and warm up on a tiny op of the same
    workload. The warm-up input is the same for every seed, so that set-up
    time does not vary with the seed. Returns (first input, seconds, seconds
    in generators)."""
    t0 = time.perf_counter()
    first = wl.make_input(derive_seed(seed, wl.name, 0), size)
    generators_s = time.perf_counter() - t0
    tiny = wl.sizes["tiny"]
    warm_seed = derive_seed(0, wl.name, "warm-up")
    data, reference = wl.make_input(warm_seed, tiny)
    _, error, _ = _one_op(wl, data, reference, warm_seed, tiny, NoTrace())
    if error is not None:
        raise RuntimeError(f"warm-up op failed: {error}")
    return first, time.perf_counter() - t0, generators_s


def run(workload: str, seed: int, seconds: float, trace: bool,
        size_name: str = "full", started: float | None = None) -> dict:
    """One run of ``workload``. Set-up time is counted from ``started``, a
    ``time.perf_counter()`` reading taken before the library was imported."""
    wl = WORKLOADS[workload]
    size = wl.sizes[size_name]
    setup_begin = time.perf_counter()
    started = setup_begin if started is None else started
    timings = []
    for _ in range(SETUP_REPEATS):
        ref_s = host_reference()
        first, setup_rep_s, generators_rep_s = set_up(wl, seed, size)
        timings.append((setup_rep_s, generators_rep_s, ref_s))
    setup_wall_s = (setup_begin - started) + statistics.median(t[0] for t in timings)
    setup_s = setup_wall_s * REFERENCE_S / statistics.median(t[2] for t in timings)
    generators_s = statistics.median(t[1] for t in timings)

    tracer = Tracer() if trace else NoTrace()
    if trace:
        tracer.install()
    ops = []
    try:
        loop_begin = time.perf_counter()
        index = 0
        while True:
            op_seed = derive_seed(seed, wl.name, index)
            data, reference = first if index == 0 else wl.make_input(op_seed, size)
            gc.collect()  # no op pays for collecting the garbage of the last
            ref_s = host_reference()
            with tracer.op_scope(index):
                op_s, error, digest = _one_op(wl, data, reference, op_seed, size,
                                              tracer)
            ops.append({"index": index, "seed": op_seed, "seconds": op_s,
                        "ref_seconds": ref_s, "error": error, "sha256": digest})
            index += 1
            if time.perf_counter() - loop_begin >= seconds:
                break
    finally:
        if trace:
            tracer.restore()

    times = [op["seconds"] for op in ops]
    passed = [op for op in ops if op["error"] is None]
    result = {
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "ops": ops,
        "failed": len(ops) - len(passed),
        "slowest_s": max(times),
        "tail": tail_percentile(times),
        "solve_s": statistics.median(times),
        "setup_wall_s": setup_wall_s,
        "throughput_ops_s": len(passed) / sum(times),
        "end_to_end": {
            "solve_ref": statistics.median(op["seconds"] / op["ref_seconds"]
                                           for op in ops),
            "ok_frac": len(passed) / len(ops),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if size_name == "full":
        result["golden"] = compare_golden(workload, ops, load_golden())
    if trace:
        result["per_layer"] = per_layer(tracer, ops, generators_s)
        result["spans"] = tracer.to_json()
    return result


def compare_golden(workload, ops, golden) -> dict:
    known = golden.get(workload, {})
    checked = mismatched = 0
    for op in ops:
        expected = known.get(str(op["seed"]))
        if expected is None or op["sha256"] is None:
            continue
        checked += 1
        mismatched += expected != op["sha256"]
    return {"checked": checked, "mismatched": mismatched,
            "unknown": len(ops) - checked}


def per_layer(tracer, ops, generators_s) -> dict:
    """Median over ops of each op's layer figures; ratios over the totals."""
    spans_by_op = {}
    for s in tracer.spans:
        spans_by_op.setdefault(s[5], []).append(s)
    rows = [op_layers(spans_by_op.get(op["index"], []), tracer.tallies[op["index"]],
                      op["seconds"])
            for op in ops]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    totals = {name: sum(row[name] for row in rows) for name in rows[0]}

    def share(num, den):
        return totals[num] / totals[den] if totals[den] else 0.0

    calls = totals["probability.indicator_calls"]
    out["probability.indicator_reuse"] = (
        1.0 - share("probability.indicator_distinct", "probability.indicator_calls")
        if calls else 0.0)
    out["solver.fixed_share"] = share("solver.fixed", "solver.events")
    out["shattering.exhaustive_share"] = share("shattering.exhaustive",
                                               "shattering.components")
    out["generators.s"] = generators_s
    return out
