"""Serialisation round-trips for the core value objects.

Pipelines need to persist profiles, environments and schedules between
processes (a planner writes an allocation, an executor replays it).
These functions produce plain-dict representations — stable keys, JSON
types only — and reconstruct validated objects on the way back in.

All ``from_dict`` constructors run the same validation as the public
constructors, so a hand-edited or corrupted file fails loudly rather
than producing an impossible schedule.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.core.params import ModelParams
from repro.core.profile import Profile
from repro.errors import InvalidParameterError
from repro.protocols.base import WorkAllocation

__all__ = [
    "profile_to_dict", "profile_from_dict",
    "params_to_dict", "params_from_dict",
    "allocation_to_dict", "allocation_from_dict",
    "save_allocation", "load_allocation",
    "result_to_dict", "result_from_dict", "results_to_json",
]

_SCHEMA_VERSION = 1


def profile_to_dict(profile: Profile) -> dict[str, Any]:
    """Plain-dict form of a profile."""
    return {"rho": profile.rho.tolist()}


def profile_from_dict(data: dict[str, Any]) -> Profile:
    """Rebuild (and re-validate) a profile."""
    try:
        return Profile(data["rho"])
    except KeyError as exc:
        raise InvalidParameterError(f"profile dict missing key: {exc}") from exc


def params_to_dict(params: ModelParams) -> dict[str, Any]:
    """Plain-dict form of the environment parameters."""
    return {"tau": params.tau, "pi": params.pi, "delta": params.delta}


def params_from_dict(data: dict[str, Any]) -> ModelParams:
    """Rebuild (and re-validate) environment parameters."""
    try:
        return ModelParams(tau=data["tau"], pi=data["pi"], delta=data["delta"])
    except KeyError as exc:
        raise InvalidParameterError(f"params dict missing key: {exc}") from exc


def allocation_to_dict(allocation: WorkAllocation) -> dict[str, Any]:
    """Plain-dict form of a work allocation (schedule)."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "profile": profile_to_dict(allocation.profile),
        "params": params_to_dict(allocation.params),
        "lifespan": allocation.lifespan,
        "w": allocation.w.tolist(),
        "startup_order": list(allocation.startup_order),
        "finishing_order": list(allocation.finishing_order),
        "protocol_name": allocation.protocol_name,
    }


def allocation_from_dict(data: dict[str, Any]) -> WorkAllocation:
    """Rebuild (and re-validate) a work allocation."""
    version = data.get("schema_version", _SCHEMA_VERSION)
    if version != _SCHEMA_VERSION:
        raise InvalidParameterError(
            f"unsupported allocation schema version {version!r} "
            f"(this build reads {_SCHEMA_VERSION})")
    try:
        return WorkAllocation(
            profile=profile_from_dict(data["profile"]),
            params=params_from_dict(data["params"]),
            lifespan=float(data["lifespan"]),
            w=np.asarray(data["w"], dtype=float),
            startup_order=tuple(data["startup_order"]),
            finishing_order=tuple(data["finishing_order"]),
            protocol_name=str(data.get("protocol_name", "custom")),
        )
    except KeyError as exc:
        raise InvalidParameterError(f"allocation dict missing key: {exc}") from exc


def result_to_dict(result: Any) -> dict[str, Any]:
    """Plain-dict form of an :class:`~repro.experiments.base.ExperimentResult`.

    JSON-safe throughout (NumPy scalars, Fractions, dataclasses and the
    library's value objects are converted) — the CLI's ``--json`` output
    and any downstream pipeline read this shape.
    """
    from repro.experiments.export import jsonable
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": list(result.headers),
        "rows": [jsonable(row) for row in result.rows],
        "notes": list(result.notes),
        "metadata": jsonable(result.metadata),
    }


def _restore_nonfinite(value: Any) -> Any:
    """Recursively turn ``{"__nonfinite__": ...}`` sentinels back into
    their floats (NaN/±inf), leaving everything else untouched."""
    from repro.experiments.export import nonfinite_to_float
    restored = nonfinite_to_float(value)
    if restored is not None:
        return restored
    if isinstance(value, dict):
        return {k: _restore_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_restore_nonfinite(v) for v in value]
    return value


def result_from_dict(data: dict[str, Any]) -> Any:
    """Rebuild an :class:`~repro.experiments.base.ExperimentResult`.

    The inverse of :func:`result_to_dict` *up to JSON fidelity*: rows
    come back as tuples of plain JSON values and metadata as plain
    dicts/lists (NumPy arrays and dataclasses do not round-trip — they
    were flattened on the way out).  Non-finite floats *do* round-trip:
    the ``{"__nonfinite__": ...}`` sentinels ``jsonable`` emitted are
    restored to their NaN/±inf here.  Re-serialising the rebuilt result
    therefore reproduces the original document byte for byte, which is
    the property the batch result cache relies on.
    """
    from repro.experiments.base import ExperimentResult
    try:
        return ExperimentResult(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            headers=tuple(data["headers"]),
            rows=tuple(tuple(_restore_nonfinite(cell) for cell in row)
                       for row in data["rows"]),
            notes=tuple(data.get("notes", ())),
            metadata=_restore_nonfinite(dict(data.get("metadata", {}))),
        )
    except KeyError as exc:
        raise InvalidParameterError(f"result dict missing key: {exc}") from exc


def results_to_json(results: list[Any], *, indent: int = 2) -> str:
    """Serialise several experiment results as one JSON array document."""
    return json.dumps([result_to_dict(r) for r in results], indent=indent,
                      allow_nan=False)


def save_allocation(allocation: WorkAllocation, path: str) -> None:
    """Write a schedule to a JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(allocation_to_dict(allocation), fh, indent=2)


def load_allocation(path: str) -> WorkAllocation:
    """Read a schedule back from a JSON file (validated)."""
    with open(path, "r", encoding="utf-8") as fh:
        return allocation_from_dict(json.load(fh))
