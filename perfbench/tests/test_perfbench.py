"""Tests of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/tests
"""

import json
from pathlib import Path

import pytest

from resilient_lll.errors import ContractViolation
from perfbench import bench
from perfbench.tracing import WRAPS, NoTrace, span_times
from perfbench.workloads import WORKLOADS, CheckFailed

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_op_passes_its_check(name):
    wl = WORKLOADS[name]
    size = wl.sizes["tiny"]
    data, reference = wl.make_input(7, size)
    output = wl.run(data, 7, size, NoTrace())
    wl.check(reference, output, size)
    assert len(wl.canonical(output)) == 64


def test_every_gated_workload_exists():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.fixture(scope="module")
def traced_runs():
    return {name: bench.run(name, 3, 0, trace=True, size_name="tiny")
            for name in sorted(WORKLOADS)}


def test_untraced_run_reports_every_end_to_end_metric_with_its_unit():
    result = bench.run("partition-regular", 3, 0, trace=False, size_name="tiny")
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert bench.END_TO_END_UNITS == spec
    assert set(result["end_to_end"]) == set(spec)
    assert all(v > 0 for v in result["end_to_end"].values())
    assert result["failed"] == 0 and len(result["ops"]) == 1


def test_traced_run_reports_every_per_layer_metric_with_its_unit(traced_runs):
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced_runs.values():
        assert set(result["per_layer"]) == set(spec)
        assert {n: bench.layer_unit(n) for n in result["per_layer"]} == spec


def test_layer_self_times_sum_to_no_more_than_the_op(traced_runs):
    for result in traced_runs.values():
        for op in result["ops"]:
            spans = [[s["id"], s["name"], s["start"], s["end"], s["parent"], s["op"]]
                     for s in result["spans"] if s["op"] == op["index"]]
            _, self_time, _ = span_times(spans)
            layers = sum(t for name, t in self_time.items() if name != "op")
            assert 0 < layers <= op["seconds"]


def test_traced_runs_confirm_each_workload_bypass(traced_runs):
    ec = traced_runs["edgecolor-bucketed"]["per_layer"]
    assert all(v == 0 for n, v in ec.items()
               if n.startswith(("probability.", "general.", "solver.", "model.")))
    r4 = traced_runs["ring-staged-r4"]["per_layer"]
    assert all(v == 0 for n, v in r4.items() if n.startswith("general."))
    assert r4["probability.indicator_calls"] > 0
    assert traced_runs["partition-regular"]["per_layer"]["light_partition.parts"] == 4


def test_wrappers_restore_the_original_functions():
    def current(owner, attr):
        return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [current(owner, attr) for owner, attr, _, _ in WRAPS]
    bench.run("ring-general", 5, 0, trace=True, size_name="tiny")
    assert [current(owner, attr) for owner, attr, _, _ in WRAPS] == before


class _Broken:
    """A workload stand-in whose op raises or returns a wrong output."""

    def __init__(self, exc=None):
        self.exc = exc

    def run(self, data, op_seed, size, tracer):
        if self.exc is not None:
            raise self.exc
        return data

    def check(self, reference, output, size):
        raise CheckFailed("wrong output")

    def canonical(self, output):
        raise AssertionError("not reached")


def test_failures_are_recorded_with_their_error_class():
    _, error, digest = bench._one_op(_Broken(ContractViolation("broken")), None,
                                     None, 1, {}, NoTrace())
    assert error.startswith("ContractViolation") and digest is None
    _, error, digest = bench._one_op(_Broken(), None, None, 1, {}, NoTrace())
    assert error.startswith("CheckFailed") and digest is None


def test_golden_comparison_counts_mismatches():
    ops = [{"seed": 1, "sha256": "a"}, {"seed": 2, "sha256": "b"},
           {"seed": 3, "sha256": "c"}]
    golden = {"w": {"1": "a", "2": "x"}}
    assert bench.compare_golden("w", ops, golden) == {
        "checked": 2, "mismatched": 1, "unknown": 1}


def test_tail_percentile():
    times = [float(i) for i in range(1, 21)]
    assert bench.tail_percentile(times[:10]) is None
    assert bench.tail_percentile(times) == (50.0, 10.0)
