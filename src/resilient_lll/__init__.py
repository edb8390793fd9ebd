"""Constraint avoidance via partition-resilient staged resampling.

Library layout:

- ``graph``: immutable graphs, partitions, bounded-distance queries
- ``model``: variables, bad events, allocation, derived graphs
- ``probability``: exact/Monte-Carlo oracles and the vulnerability oracle
- ``solver``: the staged first phase with fixed/reverted/deferred bookkeeping
- ``shattering``: residual components solved by search or resampling
- ``light_partition``: low-per-part-load node partitions via the solver
- ``general``: criterion check, resilience certificate, end-to-end driver
- ``defective``: defective vertex/edge colorings by iterated halving
- ``edge_coloring``: palette-bucketed proper edge coloring
- ``generators``: seeded graph and instance families
- ``experiment``: seed sweeps, run records and aggregates
- ``cli``: the ``rlll`` command line
"""

from .config import ThresholdConfig, relaxed_config, strict_config
from .errors import (
    CapacityError,
    ComponentFailure,
    ContractViolation,
    InputError,
    ReductionViolation,
)
from .graph import Graph, Partition, neighbors_within, per_part_neighbor_counts
from .model import (
    CountThreshold,
    EventSpec,
    LllInstance,
    MaxPartLoad,
    TruthTable,
    VariableSpec,
    build_instance,
    check_assignment,
)
from .probability import (
    ProbabilityEstimate,
    VulnerabilityOracle,
    event_probability,
)
from .solver import run_first_stage, residual_instance, solve
from .shattering import solve_component
from .light_partition import (
    build_light_partition_instance,
    compute_light_partition_detailed,
)
from .general import criterion_check, resilience_certificate, solve_general
from .defective import (
    DefectiveColoring,
    build_split_instance,
    iterate_halving,
    split_once,
)
from .edge_coloring import color_edges, plan_reduction, verify_edge_coloring
from .experiment import ExperimentSpec, RunRecord, run_experiment

__version__ = "0.1.0"
