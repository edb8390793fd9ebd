"""Deterministic seed derivation.

All stage- and component-level randomness is keyed off a single run seed via
``derive_seed`` so that reruns are bit-reproducible and concurrently executed
sub-jobs cannot interfere with each other's streams.
"""

import hashlib
import random


def derive_seed(base: int, *tags) -> int:
    """Derive a 63-bit child seed from ``base`` and a tag path.

    The derivation is a SHA-256 of the textual tag path, so it is stable
    across platforms, Python versions and call order.
    """
    text = "/".join([str(base)] + [str(t) for t in tags])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def rng_for(base: int, *tags) -> random.Random:
    """A fresh ``random.Random`` seeded from the derived child seed."""
    return random.Random(derive_seed(base, *tags))


def first_row_value(seed: int, var_id: int, spec) -> int:
    """The first-row value of variable ``var_id`` under table seed ``seed``.

    A pure function of (seed, var_id): a str-seeded ``random.Random`` hashes
    its seed with SHA-512, so the value is stable across platforms and does
    not depend on the order in which variables are drawn. Re-seeding an
    existing generator with the same string resets its whole state, so it
    gives the same draw (see ``first_row_sampler``).
    """
    return spec.sample(random.Random(f"{seed}/{var_id}/1"))


def first_row_sampler(seed: int):
    """``first_row_value`` under table seed ``seed`` as a function of
    (var_id, spec) that re-seeds one generator per draw, instead of
    constructing one."""
    rng = random.Random()

    def draw(var_id: int, spec) -> int:
        rng.seed(f"{seed}/{var_id}/1")
        return spec.sample(rng)

    return draw
