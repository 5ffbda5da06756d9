"""JSON file formats for matrices, systems, model specs and reports.

Matrix files are ``{"dim": n, "entries": [[re, im], ...]}`` with exactly
``n**2`` row-major entries; system files are ``{"H": <matrix>, "K":
<matrix or null>, "charges": [<matrix>, ...], "complex": <bool>}``.
Sizes must be JSON integers, entries JSON numbers and ``complex`` a JSON
boolean; anything else raises :class:`FormatError`.  Serialization is
deterministic (sorted keys, plain decimal doubles), so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Mapping, NamedTuple

import numpy as np

from .analysis import SpectralReport
from .susy import GradedSystem, SuperchargeSystem

__all__ = [
    "FormatError",
    "SystemFile",
    "dump_json",
    "load_model_spec",
    "load_matrix",
    "load_system",
    "matrix_from_obj",
    "matrix_to_obj",
    "report_to_obj",
    "save_matrix",
    "save_system",
    "system_from_obj",
    "system_to_obj",
]


class FormatError(ValueError):
    """A file does not conform to its declared schema."""


class SystemFile(NamedTuple):
    """Raw, not yet validated contents of a system file."""

    hamiltonian: np.ndarray
    involution: np.ndarray | None
    charges: tuple[np.ndarray, ...]
    complex_charges: bool


def matrix_to_obj(a) -> dict:
    """Serialize a matrix; square ones use the ``dim`` schema, rectangular
    blocks (a grading map between sectors of unequal size) carry explicit
    ``rows`` and ``cols``."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise FormatError(f"only matrices are serializable, got shape {arr.shape}")
    entries = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    if arr.shape[0] == arr.shape[1]:
        return {"dim": int(arr.shape[0]), "entries": entries}
    return {"rows": int(arr.shape[0]), "cols": int(arr.shape[1]),
            "entries": entries}


def _is_number(value, types) -> bool:
    """``isinstance(value, types)``, but JSON ``true``/``false`` (Python
    bools, a subclass of int) never count as numbers."""
    return isinstance(value, types) and not isinstance(value, bool)


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, Mapping):
        raise FormatError(f"matrix object must be a mapping, got {type(obj).__name__}")
    try:
        if "dim" in obj:
            rows = cols = obj["dim"]
        else:
            rows, cols = obj["rows"], obj["cols"]
        entries = obj["entries"]
    except KeyError as exc:
        raise FormatError(f"matrix object needs 'dim' (or 'rows'/'cols') "
                          f"and 'entries': {exc}") from exc
    if not (_is_number(rows, int) and _is_number(cols, int)):
        raise FormatError(f"matrix shape must be integers, got {rows!r}x{cols!r}")
    if rows < 1 or cols < 1:
        raise FormatError(f"matrix shape must be positive, got {rows}x{cols}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise FormatError(
            f"matrix of shape {rows}x{cols} needs exactly {rows * cols} "
            f"entries, got "
            f"{len(entries) if isinstance(entries, list) else type(entries).__name__}")
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(_is_number(x, (int, float)) for x in pair)):
            raise FormatError(f"entry {i} must be a [re, im] number pair, "
                              f"got {pair!r}")
        out[i] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise FormatError("matrix contains non-finite entries")
    return out.reshape(rows, cols)


def system_to_obj(system) -> dict:
    """Serialize a validated system or the raw ``(H, K, charges, flag)``
    quadruple given as a :class:`SystemFile`."""
    if isinstance(system, (SuperchargeSystem, GradedSystem)):
        k = system.involution.matrix if isinstance(system, GradedSystem) else None
        parts = SystemFile(system.hamiltonian, k, system.charges,
                           system.complex_charges)
    elif isinstance(system, SystemFile):
        parts = system
    else:
        raise FormatError(f"cannot serialize {type(system).__name__} as a system")
    return {
        "H": matrix_to_obj(parts.hamiltonian),
        "K": None if parts.involution is None else matrix_to_obj(parts.involution),
        "charges": [matrix_to_obj(q) for q in parts.charges],
        "complex": bool(parts.complex_charges),
    }


def system_from_obj(obj) -> SystemFile:
    if not isinstance(obj, Mapping):
        raise FormatError(f"system object must be a mapping, got {type(obj).__name__}")
    for key in ("H", "K", "charges", "complex"):
        if key not in obj:
            raise FormatError(f"system object is missing the {key!r} field")
    charges = obj["charges"]
    if not isinstance(charges, list) or not charges:
        raise FormatError("system object needs a non-empty 'charges' list")
    complex_charges = obj["complex"]
    if not isinstance(complex_charges, bool):
        raise FormatError(f"system field 'complex' must be true or false, "
                          f"got {complex_charges!r}")
    h = matrix_from_obj(obj["H"])
    k = None if obj["K"] is None else matrix_from_obj(obj["K"])
    return SystemFile(
        h, k, tuple(matrix_from_obj(q) for q in charges), complex_charges)


def report_to_obj(report: SpectralReport) -> dict:
    return {
        "bosonic_eigenvalues": [float(v) for v in report.bosonic_eigenvalues],
        "fermionic_eigenvalues": [float(v) for v in report.fermionic_eigenvalues],
        "pairs": [[int(i), int(j), float(g)] for i, j, g in report.pairs],
        "unpaired_bosonic_zero_modes": report.unpaired_bosonic_zero_modes,
        "unpaired_fermionic_zero_modes": report.unpaired_fermionic_zero_modes,
        "witten_index": report.witten_index,
    }


def dump_json(obj) -> str:
    """Deterministic JSON text (sorted keys, trailing newline)."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(_load_json(path))


def save_matrix(path, a) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(matrix_to_obj(a)))


def load_system(path) -> SystemFile:
    return system_from_obj(_load_json(path))


def save_system(path, system) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(system_to_obj(system)))


def load_model_spec(path) -> dict:
    obj = _load_json(path)
    if not isinstance(obj, Mapping):
        raise FormatError(f"{path}: model spec must be a JSON object")
    if "model" not in obj:
        raise FormatError(f"{path}: model spec is missing the 'model' field")
    return dict(obj)
