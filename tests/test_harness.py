import dataclasses
import inspect
import json
import math

import pytest

from _families import hub_instance
from resilient_lll import experiment
from resilient_lll.cli import main as cli_main
from resilient_lll import defective, edge_coloring, general, misra_gries, shattering, solver
from resilient_lll.config import (
    ThresholdConfig,
    config_from_file,
    relaxed_config,
    strict_config,
)
from resilient_lll.defective import build_split_instance
from resilient_lll.errors import InputError
from resilient_lll.experiment import (
    CSV_COLUMNS,
    ExperimentSpec,
    RunRecord,
    aggregate,
    run_experiment,
    run_one,
)
from resilient_lll.generators import (
    circulant_graph,
    gnp_graph,
    random_regular_graph,
    ring_family,
    window_family,
)
from resilient_lll.general import solve_general
from resilient_lll.model import instance_to_dict, load_instance, save_instance
from resilient_lll.probability import VulnerabilityOracle, event_probability


# --- generators -------------------------------------------------------------


def test_regular_generator_exact_degrees():
    g = random_regular_graph(10, 3, seed=0)
    assert all(g.degree(v) == 3 for v in range(10))


def test_regular_generator_rejects_infeasible():
    with pytest.raises(InputError):
        random_regular_graph(5, 3, seed=0)  # odd n*d
    with pytest.raises(InputError):
        random_regular_graph(4, 5, seed=0)  # d >= n


def test_gnp_edge_cases():
    assert gnp_graph(100, 0.0, seed=1).edge_count() == 0
    assert gnp_graph(20, 1.0, seed=1).edge_count() == 190


def test_gnp_deterministic():
    assert gnp_graph(30, 0.3, seed=9).adjacency == gnp_graph(30, 0.3, seed=9).adjacency


def test_circulant_structure():
    g = circulant_graph(10, 4)
    assert all(g.degree(v) == 4 for v in range(10))
    assert 1 in g.neighbors(0) and 2 in g.neighbors(0)


def test_ring_family_probability_matches_request():
    # target p = 2^-8 via shared_degree 2 + 5 private bits
    inst = ring_family(20, shared_degree=2, private_bits=5, seed=3)
    target = 2.0 ** -8
    measured = max(
        event_probability(inst, a).value for a in range(inst.event_count)
    )
    assert target / 2 <= measured <= target * 2
    assert inst.d_vars == 2 and inst.d <= 6


# --- experiment runner ------------------------------------------------------


def make_spec(tmp_path, seeds, algorithm="solve-general", **extra):
    return ExperimentSpec(
        generator={
            "kind": "instance", "family": "ring",
            "params": {"n": 24, "shared_degree": 2, "private_bits": 5},
        },
        algorithm=algorithm,
        seeds=list(seeds),
        constants="relaxed",
        algorithm_params=extra or {"r": 1},
        output_path=str(tmp_path / "records.jsonl"),
    )


def test_empty_seed_list_rejected(tmp_path):
    with pytest.raises(InputError):
        make_spec(tmp_path, [])


def test_sweep_produces_consistent_summary(tmp_path):
    spec = make_spec(tmp_path, range(10))
    records, summary = run_experiment(spec)
    assert len(records) == 10
    assert summary == aggregate(records)
    assert summary["successes"] == 10
    # the log is append-complete and parseable
    lines = open(spec.output_path).read().splitlines()
    assert len(lines) == 10
    assert json.loads(lines[0])["seed"] == 0


def test_solve_general_spec_accepts_a_null_r(monkeypatch):
    # ``"r": null`` hands the choice of the part count to solve_general,
    # and the record keeps the part count it chose.
    spec = ExperimentSpec.from_dict(json.loads("""{
        "generator": {"kind": "instance", "family": "ring",
                      "params": {"n": 40, "shared_degree": 4, "private_bits": 5}},
        "algorithm": "solve-general", "seeds": [0],
        "algorithm_params": {"r": null}}"""))
    calls = []
    solve_general = experiment.general_mod.solve_general

    def spy(inst, r, cfg, seed):
        calls.append((r, solve_general(inst, r, cfg, seed)))
        return calls[-1][1]

    monkeypatch.setattr(experiment.general_mod, "solve_general", spy)
    record = run_one(spec, 0)
    assert record.error is None and record.valid
    [(r, res)] = calls
    assert r is None
    assert record.extra["parts"] == res.partition.part_count == res.criterion.r


@pytest.mark.parametrize("r", [1, 2])
def test_solve_general_records_its_part_count(r):
    spec = ExperimentSpec(
        generator={"kind": "instance", "family": "ring",
                   "params": {"n": 40, "shared_degree": 4, "private_bits": 5}},
        algorithm="solve-general", seeds=[0], algorithm_params={"r": r})
    record = run_one(spec, 0)
    assert record.valid and record.extra["parts"] == r


def test_records_reproducible_minus_wall_time(tmp_path):
    spec = make_spec(tmp_path, [5])
    a = run_one(spec, 5)
    b = run_one(spec, 5)
    assert a.stable_key() == b.stable_key()


def test_run_failure_recorded_not_fatal(tmp_path):
    spec = ExperimentSpec(
        generator={"kind": "graph", "family": "regular",
                   "params": {"n": 5, "d": 3}},  # infeasible: odd n*d
        algorithm="partition",
        seeds=[1, 2],
        output_path=None,
    )
    records, summary = run_experiment(spec)
    assert summary["successes"] == 0
    assert all(r.error for r in records)


def test_partition_and_defective_and_edgecolor_algorithms(tmp_path):
    graph_gen = {"kind": "graph", "family": "regular",
                 "params": {"n": 60, "d": 16}}
    for algorithm, params in (
        ("partition", {"x": 4.0}),
        ("defective", {"kind": "vertex", "q": 2}),
        ("edgecolor", {}),
    ):
        spec = ExperimentSpec(
            generator=graph_gen, algorithm=algorithm, seeds=[0, 1],
            algorithm_params=params,
        )
        records, summary = run_experiment(spec)
        assert summary["successes"] == 2, (algorithm, records[0].error)


def test_partition_spec_without_x_takes_the_cli_default(tmp_path):
    # Both take x = lg(max degree): 4 parts of regular(60, 16), not 1.
    generator = {"kind": "graph", "family": "regular", "params": {"n": 60, "d": 16}}
    spec = ExperimentSpec(generator=generator, algorithm="partition", seeds=[3])
    record = run_one(spec, 3)
    graph_path = tmp_path / "g.edges"
    cli_main(["gen", "--kind", "graph", "--family", "regular",
              "--params", "n=60,d=16", "--seed", "3", "--out", str(graph_path)])
    rc = cli_main(["partition", "--graph", str(graph_path), "--seed", "3",
                   "--out", str(tmp_path / "part.json")])
    assert rc == 0 and record.valid
    part = json.loads((tmp_path / "part.json").read_text())
    assert record.extra["parts"] == part["part_count"] == 4
    assert record.extra["bound"] == part["per_part_bound"]


def test_rounds_scale_linearly_across_partition_sizes(tmp_path):
    for parts in (1, 2, 4, 8):
        spec = make_spec(tmp_path, [3], algorithm="solve-resilient",
                         parts=parts)
        records, _ = run_experiment(spec)
        assert records[0].rounds == 5 * parts + 2


def test_parallel_sweep_logs_every_seed_once(tmp_path):
    seeds = [4, 0, 3, 1, 2]
    spec = make_spec(tmp_path, seeds)
    parallel, summary = run_experiment(spec, workers=2)
    spec.output_path = None
    serial, _ = run_experiment(spec, workers=1)
    assert [r.stable_key() for r in parallel] == [r.stable_key() for r in serial]
    assert [r.seed for r in parallel] == seeds
    assert summary == aggregate(parallel)
    logged = [json.loads(line)["seed"]
              for line in open(tmp_path / "records.jsonl")]
    assert sorted(logged) == sorted(seeds)


def test_aggregate_counts_errors_by_class():
    def record(seed, error=None):
        return RunRecord(spec_hash="x", seed=seed, rounds=7, valid=error is None,
                         max_component=0, dangerous=0, reverted=0, deferred=0,
                         wall_ms=1.0, error=error)

    records = [
        record(0),
        record(1, "ContractViolation: run failed: events [3] were committed"),
        record(2, "ContractViolation: solver produced an invalid assignment"),
        record(3, "CapacityError: event 0: 15 swap neighbors in part 0 exceed"),
        record(4, "ComponentFailure: component of 4 events unsolved"),
        record(5, "InputError: unknown graph family 'x'"),
        record(6, "ZeroDivisionError: float division by zero"),
        record(7, "ReductionViolation: bucket 2 has degree 9 above 8"),
    ]
    summary = aggregate(records)
    assert summary["successes"] == 1
    assert summary["error_classes"] == {"contract": 2, "capacity": 1, "component": 1,
                                        "input": 1, "reduction": 1, "other": 1}
    assert aggregate(records[:1])["error_classes"] == dict.fromkeys(
        ("contract", "capacity", "component", "input", "reduction", "other"), 0)


def test_csv_format(tmp_path):
    out = tmp_path / "records.csv"
    spec = make_spec(tmp_path, [0, 1])
    spec.output_path = str(out)
    run_experiment(spec, fmt="csv")
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3


# --- CLI --------------------------------------------------------------------


def test_cli_end_to_end(tmp_path):
    inst_path = tmp_path / "inst.json"
    rc = cli_main([
        "gen", "--kind", "instance", "--family", "ring",
        "--params", "n=16,shared_degree=2,private_bits=4",
        "--seed", "3", "--out", str(inst_path),
    ])
    assert rc == 0 and inst_path.exists()

    prefix = str(tmp_path / "run")
    rc = cli_main([
        "solve-general", "--instance", str(inst_path), "--r", "1",
        "--seed", "7", "--out-prefix", prefix,
    ])
    assert rc == 0

    rc = cli_main([
        "check", "--instance", str(inst_path),
        "--assignment", f"{prefix}.assignment.json",
        "--out", str(tmp_path / "check.json"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["valid"]


def test_cli_solve_general_without_r_lets_the_driver_choose(tmp_path):
    inst_path = tmp_path / "split.json"
    save_instance(build_split_instance(circulant_graph(12, 4), "vertex", 1), inst_path)
    prefix = str(tmp_path / "run")
    rc = cli_main(["solve-general", "--instance", str(inst_path), "--seed", "7",
                   "--out-prefix", prefix])
    assert rc == 0
    report = json.loads((tmp_path / "run.report.json").read_text())
    chosen = solve_general(load_instance(inst_path), None, relaxed_config(), 7)
    assert report["criterion"]["r"] == chosen.criterion.r == 2


def test_cli_graph_pipeline(tmp_path):
    graph_path = tmp_path / "g.edges"
    rc = cli_main([
        "gen", "--kind", "graph", "--family", "regular",
        "--params", "n=40,d=8", "--seed", "2", "--out", str(graph_path),
    ])
    assert rc == 0

    rc = cli_main([
        "partition", "--graph", str(graph_path), "--x", "3",
        "--out", str(tmp_path / "part.json"), "--seed", "4",
    ])
    assert rc == 0
    part = json.loads((tmp_path / "part.json").read_text())
    assert part["part_count"] == math.ceil(8 / 3)

    rc = cli_main([
        "defective", "--kind", "edge", "--q", "2",
        "--graph", str(graph_path), "--out", str(tmp_path / "def.json"),
    ])
    assert rc == 0

    rc = cli_main([
        "edgecolor", "--graph", str(graph_path), "--epsilon", "0.2",
        "--out", str(tmp_path / "ec.json"),
    ])
    assert rc == 0
    ec = json.loads((tmp_path / "ec.json").read_text())
    assert ec["verification"]["proper"]


def test_cli_reports_a_runtime_failure_as_an_error(tmp_path, capsys):
    # A per-event-keyed hub puts 15 swap neighbors of event 0 in the single
    # part, whose 2^15 - 1 swap subsets exceed the oracle's subset cap.
    inst_path = tmp_path / "hub.json"
    save_instance(hub_instance(shaped=False), inst_path)
    rc = cli_main([
        "solve-general", "--instance", str(inst_path), "--r", "1",
        "--out-prefix", str(tmp_path / "run"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CapacityError: ")
    assert "reachable swap vectors in part 0 exceed 4095 (2^subset_cap - 1, subset cap 12)" in err
    assert "Traceback" not in err


def test_cli_reports_an_unsplittable_graph_as_an_input_error(tmp_path, capsys):
    # K7's 21 edges cannot be split two ways with at most 3 per vertex per
    # color: it is the edge split contract's exception, named as bad input.
    graph_path = tmp_path / "k7.edges"
    graph_path.write_text("n 7\n" + "".join(
        f"{u} {v}\n" for u in range(7) for v in range(u + 1, 7)))
    rc = cli_main([
        "defective", "--kind", "edge", "--q", "1.5",
        "--graph", str(graph_path), "--out", str(tmp_path / "def.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: iteration 1: measured class degree 4 exceeds ")
    assert "split contract's one exception" in err and "Traceback" not in err


def test_cli_solve_resilient_and_experiment(tmp_path):
    inst_path = tmp_path / "inst.json"
    cli_main([
        "gen", "--kind", "instance", "--family", "ring",
        "--params", "n=12,private_bits=4", "--seed", "1",
        "--out", str(inst_path),
    ])
    rc = cli_main([
        "solve-resilient", "--instance", str(inst_path), "--parts", "3",
        "--seed", "5", "--out-prefix", str(tmp_path / "res"),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "res.report.json").read_text())
    assert report["rounds_used"] == 5 * 3 + 2

    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps({
        "generator": {"kind": "instance", "family": "ring",
                      "params": {"n": 12, "private_bits": 4}},
        "algorithm": "solve-general",
        "algorithm_params": {"r": 1},
        "seeds": [0, 1, 2],
    }))
    rc = cli_main([
        "experiment", "--spec", str(spec_path),
        "--out", str(tmp_path / "records.jsonl"),
    ])
    assert rc == 0
    assert len((tmp_path / "records.jsonl").read_text().splitlines()) == 3


def ring_12_file(tmp_path):
    """A 12-event ring instance written by ``rlll gen``."""
    inst_path = tmp_path / "inst.json"
    cli_main(["gen", "--kind", "instance", "--family", "ring",
              "--params", "n=12,private_bits=4", "--seed", "1",
              "--out", str(inst_path)])
    return inst_path


def round_robin_file(**changes):
    data = {"part_count": 2, "assignment": {str(a): a % 2 for a in range(12)}}
    data["assignment"].update(changes)
    return data


@pytest.mark.parametrize("partition, message", [
    ({"part_count": 2, "assignment": {"0": 0, "1": 1}},
     "partition file: KeyError: '2'"),
    (round_robin_file(**{"1": 1.0}), "item 1 assigned to part 1.0, which is not an int"),
    ([0, 1], "partition file: TypeError: list indices must be integers or slices, not str"),
    (round_robin_file(**{"1": True}), "item 1 assigned to part True, which is not an int"),
    ({"part_count": 2.0, "assignment": round_robin_file()["assignment"]},
     "part count 2.0 is not an int"),
])
def test_cli_rejects_a_bad_partition_file(tmp_path, capsys, partition, message):
    part_path = tmp_path / "part.json"
    part_path.write_text(json.dumps(partition))
    rc = cli_main(["solve-resilient", "--instance", str(ring_12_file(tmp_path)),
                   "--partition-file", str(part_path),
                   "--out-prefix", str(tmp_path / "res")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_solve_resilient_reads_a_partition_file(tmp_path):
    part_path = tmp_path / "part.json"
    part_path.write_text(json.dumps(round_robin_file()))
    rc = cli_main(["solve-resilient", "--instance", str(ring_12_file(tmp_path)),
                   "--partition-file", str(part_path),
                   "--out-prefix", str(tmp_path / "res")])
    assert rc == 0
    report = json.loads((tmp_path / "res.report.json").read_text())
    assert report["rounds_used"] == 5 * 2 + 2


@pytest.mark.parametrize("key", ["generator", "algorithm", "seeds"])
def test_cli_experiment_spec_missing_a_key_is_an_input_error(tmp_path, capsys, key):
    spec = {"generator": {"kind": "instance", "family": "ring", "params": {"n": 12}},
            "algorithm": "solve-general", "seeds": [0]}
    del spec[key]
    spec_path = tmp_path / "exp.json"
    spec_path.write_text(json.dumps(spec))
    rc = cli_main(["experiment", "--spec", str(spec_path)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: experiment spec missing {key!r}\n"


def test_cli_rejects_unknown_family(tmp_path):
    rc = cli_main([
        "gen", "--kind", "graph", "--family", "nonsense",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2


# --- configuration input ----------------------------------------------------


@pytest.mark.parametrize("preset", [strict_config, relaxed_config])
def test_config_round_trips_through_a_file(tmp_path, preset):
    cfg = preset()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert config_from_file(path) == cfg


@pytest.mark.parametrize("key", ["bogus", "profile", "exact_outer_cap", "subset_cap"])
def test_config_file_with_unknown_key_rejected(tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c1": 2.0, key: 1}))
    with pytest.raises(InputError, match=key):
        config_from_file(path)


@pytest.mark.parametrize("key", ["bogus", "subset_cap"])
def test_spec_constants_with_unknown_key_recorded_as_input_error(key):
    spec = ExperimentSpec(
        generator={"kind": "instance", "family": "ring", "params": {"n": 12}},
        algorithm="solve-general", seeds=[0], constants={key: 1},
    )
    record = run_one(spec, 0)
    assert not record.valid
    assert record.error.startswith("InputError: ") and key in record.error
    assert aggregate([record])["error_classes"]["input"] == 1


@pytest.mark.parametrize("field, value", [
    ("c1", math.nan), ("c2", math.inf), ("c3", -math.inf), ("gamma", math.nan),
    ("defect_const", math.inf), ("c1", 0.0), ("c3", True), ("gamma", "99"),
    ("mc_samples", 2.5), ("mc_samples", True), ("mc_samples", "10"), ("mc_samples", 0),
])
def test_config_rejects_a_constant_that_is_not_finite_or_a_count_that_is_not_an_int(
        tmp_path, field, value):
    with pytest.raises(InputError, match=f"config {field} = "):
        relaxed_config(**{field: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    with pytest.raises(InputError, match=f"config {field} = "):
        config_from_file(path)


def test_option_inventory():
    # Every knob a caller can set, pinned: a new option shows up here.
    params = {
        fn.__qualname__: list(inspect.signature(fn).parameters)
        for fn in (solver.solve, solver.run_first_stage, general.solve_general,
                   general.criterion_check, general.resilience_certificate,
                   shattering.solve_component, misra_gries.misra_gries_edge_coloring,
                   edge_coloring.color_edges, defective.iterate_halving,
                   VulnerabilityOracle.probability)
    }
    assert [f.name for f in dataclasses.fields(ThresholdConfig)] == [
        "c1", "c2", "c3", "gamma", "defect_const", "mc_samples"]
    assert params == {
        "solve": ["inst", "part", "cfg", "seed"],
        "run_first_stage": ["inst", "part", "cfg", "seed"],
        "solve_general": ["inst", "r", "cfg", "seed", "mode"],
        "criterion_check": ["inst", "r", "c", "estimates"],
        "resilience_certificate": ["inst", "part", "cfg", "estimates"],
        "solve_component": ["residual", "events", "seed"],
        "misra_gries_edge_coloring": ["n", "edges", "degree"],
        "color_edges": ["g", "eps", "cfg", "seed", "plan"],
        "iterate_halving": ["g", "kind", "q", "cfg", "seed", "method"],
        "VulnerabilityOracle.probability": ["self", "a", "fixed", "mc_samples",
                                            "force_mc"],
    }


def test_cli_rejects_zero_mc_samples(tmp_path):
    graph_path = tmp_path / "g.edges"
    graph_path.write_text("n 3\n0 1\n1 2\n")
    rc = cli_main(["partition", "--graph", str(graph_path),
                   "--mc-samples", "0", "--out", str(tmp_path / "p.json")])
    assert rc == 2


def _allocation_key(data):
    data["allocation"]["x"] = 0


def _weight(data):
    data["variables"][0]["weights"][0] = "a"


def _nan_weight(data):
    data["variables"][0]["weights"][0] = "nan"


def _event_vars(data):
    del data["events"][1]["vars"]


@pytest.mark.parametrize("field, corrupt", [
    ("allocation", _allocation_key),
    ("variables", _weight),
    ("variables", _nan_weight),
    ("events", _event_vars),
], ids=["allocation-key", "weight", "nan-weight", "event-vars"])
def test_cli_malformed_instance_is_input_error(tmp_path, capsys, field, corrupt):
    data = instance_to_dict(window_family(4))
    corrupt(data)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(data))
    rc = cli_main(["solve-general", "--instance", str(inst_path), "--r", "1",
                   "--out-prefix", str(tmp_path / "run")])
    assert rc == 2
    assert f"error: instance {field}: " in capsys.readouterr().err


@pytest.mark.parametrize("assignment, message", [
    ('{"zz": 0}', "assignment.json: invalid literal for int() with base 10: 'zz'"),
    ("[0, 1]", "assignment.json: 'list' object has no attribute 'items'"),
    ('{"0": 1', "assignment.json: Expecting "),
    ('{"0": 2}', "variables [0, 1, 2, "),
], ids=["bad-key", "not-a-mapping", "bad-json", "out-of-domain"])
def test_cli_check_bad_assignment_is_input_error(tmp_path, capsys, assignment,
                                                  message):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_dict(window_family(3))))
    assignment_path = tmp_path / "assignment.json"
    assignment_path.write_text(assignment)
    rc = cli_main(["check", "--instance", str(inst_path),
                   "--assignment", str(assignment_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv", [
    "solve-resilient --instance {bad} --out-prefix {out}",
    "solve-resilient --instance {ring} --partition-file {bad} --out-prefix {out}",
    "solve-resilient --instance {ring} --constants file:{bad} --out-prefix {out}",
    "solve-general --instance {bad} --out-prefix {out}",
    "solve-general --instance {ring} --constants file:{bad} --out-prefix {out}",
    "solve-general --instance {bad} --constants file:{cfg} --out-prefix {out}",
    "partition --graph {bad} --out {out}",
    "partition --graph {graph} --constants file:{bad} --out {out}",
    "defective --kind vertex --q 2 --graph {bad} --out {out}",
    "edgecolor --graph {bad} --epsilon 0.5 --out {out}",
    "check --instance {bad} --assignment {bad}",
    "check --instance {ring} --assignment {bad}",
    "experiment --spec {bad}",
], ids=["solve-resilient-instance", "solve-resilient-partition",
        "solve-resilient-constants", "solve-general-instance",
        "solve-general-constants", "solve-general-instance-of-two",
        "partition-graph", "partition-constants",
        "defective-graph", "edgecolor-graph", "check-instance",
        "check-assignment", "experiment-spec"])
@pytest.mark.parametrize("content", [None, b'{"part_count": ', b"\xff\xfe"],
                         ids=["missing", "truncated", "not-utf8"])
def test_cli_reports_an_unreadable_input_file_as_an_error(tmp_path, capsys, argv, content):
    # A missing file, one cut off mid-JSON (a graph file then lacks its
    # header) or one that is not UTF-8, in each place a command reads one:
    # one error line naming that file and no other, exit 2.
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_bytes(content)
    graph = tmp_path / "g.edges"
    graph.write_text("n 3\n0 1\n1 2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"c1": 1.5}))
    paths = {"bad": bad, "ring": ring_12_file(tmp_path), "graph": graph, "cfg": cfg,
             "out": tmp_path / "out"}
    rc = cli_main([arg.format(**paths) for arg in argv.split()])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if content is None:
        assert f"No such file or directory: '{bad}'" in err
    assert str(bad) in err
    assert not any(str(paths[good]) in err for good in ("ring", "graph", "cfg"))


def test_cli_bad_graph_file_is_input_error(tmp_path, capsys):
    graph_path = tmp_path / "bad.edges"
    graph_path.write_text("n 3\n0 one\n")
    rc = cli_main(["partition", "--graph", str(graph_path)])
    assert rc == 2
    assert f"error: {graph_path}:2:" in capsys.readouterr().err
