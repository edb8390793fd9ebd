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


def first_row_sampler(seed: int):
    """The first-row draw under table seed ``seed``, as a function of
    (var_id, spec): a pure function of (seed, var_id), in any order.

    Each draw re-seeds one generator with ``f"{seed}/{var_id}/1"``; a
    str-seeded ``random.Random`` hashes that string with SHA-512 and resets
    its whole state, so the value is stable across platforms.
    """
    rng = random.Random()

    def draw(var_id: int, spec) -> int:
        rng.seed(f"{seed}/{var_id}/1")
        return spec.sample(rng)

    return draw
