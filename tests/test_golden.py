"""Solver outputs match the benchmark's stored golden hashes.

Re-runs the first three stored ops (in key order) of every workload of
``perfbench/golden.json`` untraced and compares each output's canonical
hash, so a change that alters assignments, colorings or partitions fails
here, not only in a manual benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from perfbench.tracing import NoTrace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

GOLDEN = json.loads((REPO / "perfbench" / "golden.json").read_text())
CASES = [
    (name, seed, digest)
    for name in ("ring-general", "ring-staged-r4", "edgecolor-bucketed",
                 "partition-regular")
    for seed, digest in sorted(GOLDEN[name].items())[:3]
]


@pytest.mark.parametrize("name,seed,digest", CASES,
                         ids=[f"{n}-{s}" for n, s, _ in CASES])
def test_output_matches_golden_hash(name, seed, digest):
    wl = WORKLOADS[name]
    size = wl.sizes["full"]
    data, reference = wl.make_input(int(seed), size)
    output = wl.run(data, int(seed), size, NoTrace())
    wl.check(reference, output, size)
    assert wl.canonical(output) == digest
