"""Threshold constants and the Monte Carlo sample count.

The exponents c1 > c3 drive the per-iteration danger test and the residual
bound; c2 is the resilience target the certificate checks against. The
strict preset carries the constants the guarantees are proved at; those are
far outside what desk-scale instances can exhibit, so a relaxed preset is
provided for functional runs (it voids the formal guarantees, and the
solver downgrades some hard failures to recorded warnings under it).

``ThresholdConfig`` holds the paper's constants (c1, c2, c3, gamma and the
defect constant), each a finite positive number, plus the one estimation
knob the presets and the CLI set, ``mc_samples``, a positive int.
Implementation caps with one value in use are module constants next to the
code they bound: ``EXACT_ENUM_CAP`` (the free support up to which a
``MaxPartLoad`` event probability is enumerated rather than sampled),
``EXACT_OUTER_CAP`` and ``SUBSET_CAP`` in ``probability``,
``EXHAUSTIVE_CAP`` and ``RESAMPLE_CAP_FACTOR`` in ``shattering``, and
``BRUTE_FORCE_CAP`` in ``model``, where ``LllInstance.support`` saturates
above it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import InputError, read_json


@dataclass(frozen=True)
class ThresholdConfig:
    c1: float = 5.5      # danger exponent: event flagged when vulnerability >= d^-c1
    c2: float = 30.0     # resilience exponent: certificate target d^-c2
    c3: float = 3.0      # inner exponent: swap probability threshold d^-c3
    gamma: float = 99.0  # per-part load constant for light partitions
    defect_const: float = 99.0  # light-partition per-part neighbor constant
    mc_samples: int = 10_000

    def __post_init__(self):
        for name in ("c1", "c2", "c3", "gamma", "defect_const"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not 0 < value < math.inf):
                raise InputError(f"config {name} = {value!r} is not a finite "
                                 "positive number")
        if type(self.mc_samples) is not int or self.mc_samples < 1:
            raise InputError(f"config mc_samples = {self.mc_samples!r} is not a "
                             "positive int")

    @property
    def guarantee_grade(self) -> bool:
        """Whether the exponent chain needed by the formal analysis holds.

        Requires c2 > c1 > c3 > 2.1 (the residual bound 2*d^-c3 must sit
        below 1/(e*d^2.1) and the danger/resilience gap must be open).
        Relaxed configs intentionally fail this.
        """
        return self.c2 > self.c1 > self.c3 > 2.1

    @property
    def criterion_c(self) -> float:
        """Default exponent for the p <= 2^(-c*d_vars/r) criterion check."""
        return self.gamma + 80.0 if self.guarantee_grade else 1.0

    def inner_threshold(self, d: int) -> float:
        """Swap-probability cutoff d^-c3; degenerate degrees clamp to 1."""
        return max(d, 1) ** (-self.c3)

    def danger_threshold(self, d: int) -> float:
        return max(d, 1) ** (-self.c1)

    def resilience_threshold(self, d: int) -> float:
        return max(d, 1) ** (-self.c2)

    def replace(self, **kwargs) -> "ThresholdConfig":
        return dataclasses.replace(self, **kwargs)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def strict_config(**overrides) -> ThresholdConfig:
    return ThresholdConfig(**overrides)


def relaxed_config(**overrides) -> ThresholdConfig:
    """Desk-scale functional constants; guarantees are monitored, not proved."""
    base = dict(c1=1.5, c2=3.0, c3=1.0, mc_samples=2000)
    base.update(overrides)
    return ThresholdConfig(**base)


def config_from_dict(data, source: str) -> ThresholdConfig:
    """A config from a mapping of field values; anything but a mapping of
    known fields raises InputError naming ``source``."""
    try:
        return ThresholdConfig(**data)
    except TypeError as exc:
        raise InputError(f"bad config in {source}: {exc}") from exc


def config_from_file(path) -> ThresholdConfig:
    return config_from_dict(read_json(path), f"file {path}")


def resolve_config(spec: str) -> ThresholdConfig:
    """Parse a CLI-style constants spec: 'strict', 'relaxed' or 'file:PATH'."""
    if spec == "strict":
        return strict_config()
    if spec == "relaxed":
        return relaxed_config()
    if spec.startswith("file:"):
        return config_from_file(spec[len("file:"):])
    raise InputError(f"unknown constants spec {spec!r}")


def lg(x: float) -> float:
    """Base-2 log; all part counts and thresholds use base 2 with explicit
    ceilings so every derived count is integral and testable."""
    if x <= 0:
        raise InputError("log of nonpositive value")
    return math.log2(x)
