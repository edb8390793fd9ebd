"""Exception types shared across the package, and the reader of JSON input
files, which reports a malformed one as an ``InputError`` naming it."""

import json


class InputError(ValueError):
    """Malformed or out-of-range caller input."""


class CapacityError(RuntimeError):
    """Requested computation exceeds a configured enumeration bound.

    Callers catching this should fall back to an analytic route (e.g. the
    union-bound certificate) instead of silently subsampling.
    """


class ContractViolation(RuntimeError):
    """A guarantee the pipeline is supposed to maintain was observed broken."""


class ComponentFailure(RuntimeError):
    """A residual component could not be solved within its resampling cap."""


class ReductionViolation(RuntimeError):
    """A bucket produced by the edge-coloring reduction breaks its degree or
    palette guarantee."""


def read_json(path):
    """The JSON value in the file at ``path``. A file that is not UTF-8 JSON
    is an InputError naming the file; a missing one stays an OSError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None
