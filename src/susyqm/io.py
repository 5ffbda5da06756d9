"""JSON file formats for matrices, systems, model specs and reports.

Matrix files are ``{"dim": n, "entries": [[re, im], ...]}`` with exactly
``n**2`` row-major entries; system files are ``{"H": <matrix>, "K":
<matrix or null>, "charges": [<matrix>, ...], "complex": <bool>}``.
Sizes must be JSON integers, entries finite JSON numbers that fit in a
double and ``complex`` a JSON boolean; anything else raises
:class:`FormatError`.  Serialization is deterministic (sorted keys, plain
decimal doubles), so identical inputs produce byte-identical files.

Matrices move between JSON and numpy as whole arrays.  A load whose
entries are all ``[re, im]`` lists or tuples of plain ints and floats is
one ``np.array`` call on the flattened numbers, viewed as complex; any
other input (booleans, short pairs, strings, float subclasses, integers
too large for a double, non-finite values) goes through a per-entry
loop, which accepts the odd but valid cases and names the first bad
entry in its :class:`FormatError`.  A save flattens the array to
``[re, im]`` float pairs in one ``tolist`` call, and :func:`dump_json`
formats all the pairs of a matrix with one ``%`` operation.
"""

from __future__ import annotations

import json
import math
from itertools import chain
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
    entries = (np.ascontiguousarray(arr).reshape(-1).view(np.float64)
               .reshape(-1, 2).tolist())
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
    # Pairs of plain ints and floats load as one array; type() rather
    # than isinstance() keeps bools and float subclasses out.
    if set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) == {2}:
        flat = list(chain.from_iterable(entries))
        if set(map(type, flat)) <= {int, float}:
            try:
                values = np.array(flat, dtype=np.float64)
            except OverflowError:
                values = None
            if values is not None and np.isfinite(values).all():
                return values.view(np.complex128).reshape(rows, cols)
    return _matrix_by_entry(entries, rows, cols)


def _matrix_by_entry(entries: list, rows: int, cols: int) -> np.ndarray:
    """The entries checked and converted one at a time: the path for any
    input the whole-array load in :func:`matrix_from_obj` does not take.
    It raises a :class:`FormatError` naming the first bad entry."""
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(_is_number(x, (int, float)) for x in pair)):
            raise FormatError(f"entry {i} must be a [re, im] number pair, "
                              f"got {pair!r}")
        try:
            out[i] = complex(pair[0], pair[1])
        except OverflowError:
            raise FormatError(f"entry {i} has a number too large for a "
                              f"double") from None
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
    """Deterministic JSON text (sorted keys, trailing newline): the bytes
    of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``.  With an
    indent, ``json`` takes its pure-Python encoder, so the layout is
    rendered here instead, with all the ``[re, im]`` entry pairs of a
    matrix formatted in one step; anything this renderer does not cover
    (non-finite floats, which ``json`` writes as ``NaN``/``Infinity``,
    non-string keys, other types) goes to ``json.dumps`` itself."""
    try:
        return _render(obj, "\n") + "\n"
    except _Unrendered:
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class _Unrendered(Exception):
    """A value :func:`_render` leaves to ``json.dumps``."""


def _render(obj, newline: str) -> str:
    """``obj`` in ``json.dumps``'s ``indent=2, sort_keys=True`` layout,
    nested where ``newline`` (a newline and the current indent) starts
    each line."""
    if isinstance(obj, str) or obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise _Unrendered
        return float.__repr__(obj)
    if not isinstance(obj, (list, tuple, dict)):
        raise _Unrendered
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = newline + "  "
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):
            raise _Unrendered
        items = [json.dumps(key) + ": " + _render(value, inner)
                 for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if set(map(type, obj)) == {list} and set(map(len, obj)) == {2}:
        flat = tuple(chain.from_iterable(obj))
        if set(map(type, flat)) == {float}:
            # A list of [re, im] float pairs, as matrix_to_obj writes
            # them: one template with a slot per number, filled at once.
            pair = "[" + inner + "  %r," + inner + "  %r" + inner + "]"
            text = ("," + inner).join([pair] * len(obj)) % flat
            # A finite float's repr has no letter n; inf and nan do.
            if "n" in text:
                raise _Unrendered
            return "[" + inner + text + newline + "]"
    text = ("," + inner).join([_render(value, inner) for value in obj])
    return "[" + inner + text + newline + "]"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except ValueError as exc:
        # JSONDecodeError, or an integer past Python's digit limit for
        # int-string conversion
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
