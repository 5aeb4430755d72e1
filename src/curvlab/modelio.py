"""JSON model files: dense or sparse (symmetry-completed) curvature tensors.

The format is {"dim": m, "J": [[...]], "A": {"storage": "dense"|"sparse",
"entries": ...}, "metadata": {...}}.  Dense entries are the nested m^4 array
and round-trip bit-exactly; sparse entries are [i, j, k, l, value] records
(0-based indices), one per symmetry orbit, and the loader materializes each
orbit and rejects conflicting values.
"""

from __future__ import annotations

import copy
import json
import operator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CurvlabError, ModelFormatError, NonFiniteEntryError, SparseEntryConflictError
from .spaces import DEFAULT_TOL, cached_by_key, validate_complex_structure
from .tensors import _PAIR_ENTRY_IMAGES, ComplexModel, validate_or_project

SPARSE_CONFLICT_TOL = 1e-12

# What parsing a malformed file raises: JSONDecodeError is a ValueError, a
# deeply nested document a RecursionError, an integer beyond float range an
# OverflowError
_MALFORMED = (KeyError, TypeError, ValueError, RecursionError, OverflowError)

# The signed symmetry orbit of an index quadruple: one getter per image
_ORBIT = tuple((operator.itemgetter(*perm), sign) for perm, sign in _PAIR_ENTRY_IMAGES)


@dataclass(frozen=True, eq=False)
class ModelFile:
    """A loaded model plus its free-form string metadata."""

    model: ComplexModel
    metadata: dict


def _complete_sparse(dim: int, items) -> np.ndarray:
    entries = np.zeros((dim,) * 4)
    seen = np.zeros((dim,) * 4, dtype=bool)
    for item in items:
        if len(item) != 5:
            raise ModelFormatError(f"sparse entry {item!r} is not [i, j, k, l, value]")
        index = tuple(operator.index(v) for v in item[:4])  # rejects fractional indices
        value = float(item[4])
        if not np.isfinite(value):  # before inf - inf in the conflict check
            raise NonFiniteEntryError(f"sparse entry {item!r} is not finite")
        for image, sign in _ORBIT:
            quad = image(index)
            if any(q < 0 or q >= dim for q in quad):
                raise CurvlabError(f"sparse entry index {quad} out of range for dim {dim}")
            implied = sign * value
            # Python floats: a numpy difference of +-1e308 overflows with a warning
            if seen[quad] and abs(float(entries[quad]) - implied) > SPARSE_CONFLICT_TOL:
                raise SparseEntryConflictError(
                    f"orbit of {index} implies {implied} at {quad}, "
                    f"but {entries[quad]} was already stored"
                )
            entries[quad] = implied
            seen[quad] = True
    return entries


def _sparse_items(entries: np.ndarray) -> list[list]:
    items = []
    for quad in np.argwhere(entries != 0.0):
        index = tuple(int(v) for v in quad)
        if index == min(image(index) for image, _ in _ORBIT):
            items.append([*index, float(entries[index])])
    return items


def save_model(
    model: ComplexModel,
    path,
    storage: str = "dense",
    metadata: dict | None = None,
) -> None:
    """Write a model file; dense storage round-trips bit-exactly."""
    if storage == "dense":
        payload = {"storage": "dense", "entries": model.tensor.entries.tolist()}
    elif storage == "sparse":
        payload = {"storage": "sparse", "entries": _sparse_items(model.tensor.entries)}
    else:
        raise CurvlabError(f"unknown storage {storage!r}, expected 'dense' or 'sparse'")
    doc = {
        "dim": model.dim,
        "J": model.structure.matrix.tolist(),
        "A": payload,
        "metadata": {str(k): str(v) for k, v in (metadata or {}).items()},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


_loaded: dict = {}  # (file bytes, tol) -> (model, metadata)


def load_model(path, tol: float = DEFAULT_TOL) -> ModelFile:
    """Read and strictly validate a model file.

    Anything that is not a valid model raises a ``CurvlabError``: a schema
    problem, or text that is not UTF-8 without a BOM, a ``ModelFormatError``;
    a NaN or infinite entry a ``NonFiniteEntryError``; a broken symmetry a
    ``SymmetryViolationError``.

    The file is read on every call, and loads are cached per process by
    (file bytes, tol), the last 8 kept: the same bytes, at any path, give the
    same read-only model again, with a fresh copy of the metadata, while a
    rewritten file is parsed again.  A file that fails is not cached.
    """
    data = Path(path).read_bytes()
    model, metadata = cached_by_key(_loaded, 8, (data, tol), lambda: _parse_model(data, path, tol))
    return ModelFile(model, copy.deepcopy(metadata))


def _parse_model(data: bytes, path, tol: float) -> tuple[ComplexModel, dict]:
    try:
        doc = json.loads(data.decode("utf-8"))  # decoded here, so json.loads detects no BOM or UTF-16
        dim = operator.index(doc["dim"])
        structure = validate_complex_structure(np.asarray(doc["J"], dtype=float), tol)
        if structure.dim != dim:  # before the sparse orbits allocate dim^4 entries
            raise CurvlabError(f"{path}: J is {structure.dim}x{structure.dim} but dim = {dim}")
        storage, items = doc["A"]["storage"], doc["A"]["entries"]
        if storage == "dense":
            raw = np.asarray(items, dtype=float)
        elif storage == "sparse":
            raw = _complete_sparse(dim, items)
        else:
            raise ModelFormatError(f"{path}: unknown storage {storage!r}")
        metadata = dict(doc.get("metadata", {}))
    except _MALFORMED as exc:
        raise ModelFormatError(f"{path}: not a model file ({type(exc).__name__}: {exc})") from None
    if raw.shape != (dim,) * 4:
        raise CurvlabError(f"{path}: {storage} entries have shape {raw.shape}, expected {(dim,) * 4}")
    tensor = validate_or_project(raw, mode="strict", tol=tol)
    return ComplexModel(structure, tensor), metadata


def save_matrix(matrix: np.ndarray, path, key: str = "theta") -> None:
    Path(path).write_text(json.dumps({key: np.asarray(matrix).tolist()}, indent=2) + "\n")


def load_matrix(path, key: str = "theta") -> np.ndarray:
    """Read a matrix stored bare or under ``key``; a malformed file raises ``ModelFormatError``."""
    try:
        doc = json.loads(Path(path).read_text())
        return np.asarray(doc[key] if isinstance(doc, dict) else doc, dtype=float)
    except _MALFORMED as exc:
        raise ModelFormatError(f"{path}: not a matrix file ({type(exc).__name__}: {exc})") from None
