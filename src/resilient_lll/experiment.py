"""Seed-sweep experiment runner with crash-safe record persistence.

Records are appended to a line-delimited JSON log as each run finishes, in
completion order, so a crash loses at most the runs in flight; aggregates
are recomputed from the records alone. Reruns of (spec, seed) reproduce a
record exactly, minus wall time.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field

from .config import config_from_dict, resolve_config, ThresholdConfig
from .errors import (CapacityError, ComponentFailure, ContractViolation, InputError,
                     ReductionViolation)
from .graph import Partition
from . import defective as defective_mod
from . import edge_coloring as ec_mod
from . import general as general_mod
from . import generators
from . import light_partition as lp_mod
from . import solver as solver_mod

CSV_COLUMNS = (
    "seed", "rounds", "valid", "max_component", "dangerous", "reverted",
    "deferred", "wall_ms",
)

ALGORITHMS = ("solve-general", "solve-resilient", "partition", "defective",
              "edgecolor")

# Error class of a record, by the exception name that starts its error text;
# any other exception counts as "other".
ERROR_CLASSES = {
    ContractViolation.__name__: "contract",
    CapacityError.__name__: "capacity",
    ComponentFailure.__name__: "component",
    InputError.__name__: "input",
    ReductionViolation.__name__: "reduction",
}


@dataclass
class ExperimentSpec:
    generator: dict           # {"kind": ..., "family": ..., "params": {...}}
    algorithm: str
    seeds: list
    constants: str = "relaxed"
    algorithm_params: dict = field(default_factory=dict)
    output_path: str | None = None

    def __post_init__(self):
        if not self.seeds:
            raise InputError("seed list must be nonempty")
        if self.algorithm not in ALGORITHMS:
            raise InputError(f"unknown algorithm {self.algorithm!r}")
        for key in ("kind", "family", "params"):
            if key not in self.generator:
                raise InputError(f"generator spec missing {key!r}")

    def canonical(self) -> dict:
        return {
            "generator": self.generator,
            "algorithm": self.algorithm,
            "algorithm_params": self.algorithm_params,
            "constants": self.constants,
        }

    def spec_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        for key in ("generator", "algorithm", "seeds"):
            if key not in data:
                raise InputError(f"experiment spec missing {key!r}")
        return cls(
            generator=data["generator"],
            algorithm=data["algorithm"],
            seeds=list(data["seeds"]),
            constants=data.get("constants", "relaxed"),
            algorithm_params=data.get("algorithm_params", {}),
            output_path=data.get("output_path"),
        )


@dataclass
class RunRecord:
    spec_hash: str
    seed: int
    rounds: int
    valid: bool
    max_component: int
    dangerous: int
    reverted: int
    deferred: int
    wall_ms: float
    residual_histogram: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    error: str | None = None

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    def to_csv_row(self) -> str:
        return ",".join(
            str(getattr(self, col)) for col in CSV_COLUMNS
        )


def _config(spec: ExperimentSpec) -> ThresholdConfig:
    if isinstance(spec.constants, dict):
        return config_from_dict(spec.constants, "spec constants")
    return resolve_config(spec.constants)


def run_one(spec: ExperimentSpec, seed: int) -> RunRecord:
    """Execute one seeded run; failures are captured, never raised."""
    gen = spec.generator
    params = spec.algorithm_params
    start = time.perf_counter()
    record = RunRecord(
        spec_hash=spec.spec_hash(), seed=seed, rounds=0, valid=False,
        max_component=0, dangerous=0, reverted=0, deferred=0, wall_ms=0.0,
    )
    try:
        cfg = _config(spec)
        subject = generators.generate(gen["kind"], gen["family"], gen["params"], seed)
        if spec.algorithm == "solve-general":
            r = params.get("r", 1)  # null: solve_general chooses the part count
            res = general_mod.solve_general(subject, r if r is None else int(r), cfg, seed)
            stage = res.stage
            record.valid = True
            record.rounds = res.rounds_used
            record.extra = {
                "parts": res.partition.part_count,
                "post_resamplings": res.post_resamplings,
                "warnings": res.warnings,
                "certificate": res.certificate.value,
            }
        elif spec.algorithm == "solve-resilient":
            r = int(params.get("parts", 1))
            part = Partition.round_robin(subject.event_count, r)
            res = solver_mod.solve(subject, part, cfg, seed)
            stage = res.stage
            record.valid = True
            record.rounds = res.rounds_used
            record.extra = {"post_resamplings": res.post_resamplings}
        elif spec.algorithm == "partition":
            # No x: the library's lg(max degree), as for ``rlll partition``.
            rep = lp_mod.compute_light_partition_detailed(subject, params.get("x"), cfg, seed)
            record.valid = rep.max_observed_load <= rep.per_part_bound
            record.rounds = rep.stage_rounds
            record.extra = {
                "parts": rep.partition.part_count,
                "max_load": rep.max_observed_load,
                "bound": rep.per_part_bound,
            }
            stage = None
        elif spec.algorithm == "defective":
            coloring = defective_mod.iterate_halving(
                subject, params.get("kind", "vertex"), float(params.get("q", 2)),
                cfg, seed,
            )
            bad = defective_mod.defect_violations(subject, coloring)
            record.valid = not bad
            record.extra = {
                "colors": coloring.color_count,
                "defect_bound": coloring.defect_bound,
                "violations": len(bad),
            }
            stage = None
        elif spec.algorithm == "edgecolor":
            eps = params.get("epsilon")
            eps = ec_mod.minimal_epsilon(subject.max_degree) if eps is None else float(eps)
            res = ec_mod.color_edges(subject, eps, cfg, seed)
            record.valid = res.verification["proper"] and res.verification["within_palette"]
            record.extra = {
                "colors_used": res.colors_used,
                "palette": res.plan.palette.total_colors,
                "mode": res.plan.mode,
            }
            stage = None
        else:  # pragma: no cover - guarded by ExperimentSpec validation
            raise InputError(spec.algorithm)
        if stage is not None:
            record.max_component = max(stage.residual_component_sizes, default=0)
            record.dangerous = len(stage.dangerous_events)
            record.reverted = stage.reverted_count
            record.deferred = stage.deferred_count
            record.residual_histogram = list(stage.residual_component_sizes)
    except Exception as exc:  # recorded, not fatal: sweeps keep going
        record.valid = False
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_ms = (time.perf_counter() - start) * 1000.0
    return record


def aggregate(records) -> dict:
    """Pure summary of a record set.

    ``error_classes`` counts the failed runs by the class of their error, so
    that a broken guarantee (``contract``) stands apart from a run that hit
    a budget (``capacity``), an unsolved component (``component``), a
    broken bucket guarantee (``reduction``) or bad input (``input``)."""
    total = len(records)
    ok = [r for r in records if r.valid]
    rounds = [r.rounds for r in records]
    error_classes = dict.fromkeys([*ERROR_CLASSES.values(), "other"], 0)
    for r in records:
        if r.error:
            error_classes[ERROR_CLASSES.get(r.error.split(":", 1)[0], "other")] += 1
    return {
        "runs": total,
        "successes": len(ok),
        "success_rate": len(ok) / total if total else 0.0,
        "mean_rounds": sum(rounds) / total if total else 0.0,
        "max_rounds": max(rounds, default=0),
        "max_component": max((r.max_component for r in records), default=0),
        "errors": sorted({r.error for r in records if r.error}),
        "error_classes": error_classes,
    }


def run_experiment(spec: ExperimentSpec, workers: int = 1, fmt: str = "json"):
    """Run every seed, appending records to the output log as they finish.

    Returns (records, summary). The log is in completion order; the
    returned records are in seed order regardless of worker scheduling.
    """
    sink = None
    if spec.output_path:
        sink = open(spec.output_path, "a", encoding="utf-8")
        if fmt == "csv" and sink.tell() == 0:
            sink.write(",".join(CSV_COLUMNS) + "\n")

    def emit(record):
        if sink:
            line = record.to_json_line() if fmt == "json" else record.to_csv_row()
            sink.write(line + "\n")
            sink.flush()

    records = []
    try:
        if workers <= 1:
            for seed in spec.seeds:
                record = run_one(spec, seed)
                records.append(record)
                emit(record)
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(run_one, spec, s) for s in spec.seeds]
                # Single writer: each record is logged as soon as its run ends.
                for fut in concurrent.futures.as_completed(futures):
                    emit(fut.result())
                records = [fut.result() for fut in futures]
    finally:
        if sink:
            sink.close()
    return records, aggregate(records)
