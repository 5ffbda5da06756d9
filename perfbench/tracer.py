"""Spans around calls into susyqm's modules, recorded from outside the package.

:class:`Tracer` replaces each traced public function by a wrapper at
every module attribute that holds it, because callers look functions up
in their own namespace (``from .spectral import eigvalsh`` binds a
separate name in ``analysis``).  The sweep kernel is wrapped on
``spectral._kernel``.  Spans are kept in memory and written out at the
end of a run; the per-layer metrics are derived from the span list by
pure functions, so they can be tested on hand-built spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# (module, function) -> span name.  Functions that share a span name are
# summed into one layer metric.
TRACED = {
    ("spectral", "eigh"): "spectral.eigh",
    ("spectral", "eigvalsh"): "spectral.eigvalsh",
    ("spectral", "kernel_basis"): "spectral.kernel_basis",
    ("grading", "grading_basis"): "grading.grading_basis",
    ("susy", "validate_real_system"): "susy.validate",
    ("susy", "validate_complex_system"): "susy.validate",
    ("susy", "validate_graded_real_system"): "susy.validate",
    ("susy", "validate_graded_complex_system"): "susy.validate",
    ("susy", "standard_representation"): "susy.standard_representation",
    ("susy", "construct_involution"): "susy.construct_involution",
    ("analysis", "spectral_pairing_report"): "analysis.pairing_report",
    ("analysis", "witten_index_report"): "analysis.index_report",
    ("models", "build_model"): "models.build",
    ("models", "witten_model_lattice"): "models.build",
    ("models", "free_particle_lattice"): "models.build",
    ("models", "pauli_lattice"): "models.build",
    ("models", "random_graded_system"): "models.build",
    ("models", "tensor_supercharge"): "models.build",
    ("io", "load_system"): "io.load",
    ("io", "load_matrix"): "io.load",
    ("io", "load_model_spec"): "io.load",
    ("io", "save_system"): "io.save",
    ("io", "save_matrix"): "io.save",
    ("cli", "main"): "cli.main",
}
KERNEL = "kernel"
DECOMPOSITIONS = ("spectral.eigh", "spectral.eigvalsh")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def content_key(a) -> str:
    """Hash of a matrix's shape and complex128 contents."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    digest = hashlib.blake2b(repr(arr.shape).encode(), digest_size=16)
    digest.update(arr.tobytes())
    return digest.hexdigest()


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _annotate(name, args, result, attrs):
    """Layer-specific span attributes, taken from the call's arguments and result."""
    if name == KERNEL:
        attrs["dim"] = int(args[0].shape[0])
        attrs["sweeps"] = int(result[0])
    elif name == "io.save":
        attrs["bytes"] = _file_size(args[0] if args else None)
    elif name == "cli.main":
        attrs["exit"] = int(result)


class Tracer:
    """Records spans for calls into the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            attrs = {}
            if name in DECOMPOSITIONS:
                attrs["key"] = content_key(args[0] if args else kwargs["a"])
            elif name == "io.load":
                attrs["bytes"] = _file_size(args[0] if args else None)
            parent = tracer._stack[-1] if tracer._stack else None
            idx = len(tracer.spans)
            span = Span(name, time.perf_counter(), 0.0, parent, tracer.op, attrs)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._stack.pop()
            span.end = time.perf_counter()
            _annotate(name, args, result, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch_everywhere(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "susyqm" and not mod_name.startswith("susyqm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, original))

    def install(self) -> None:
        import susyqm.spectral

        for (mod_name, fn_name), span_name in TRACED.items():
            module = sys.modules[f"susyqm.{mod_name}"]
            original = getattr(module, fn_name)
            self._patch_everywhere(original, self._wrap(original, span_name))
        kernel = susyqm.spectral._kernel
        original = kernel.jacobi_sweeps
        kernel.jacobi_sweeps = self._wrap(original, KERNEL)
        self._patches.append((kernel, "jacobi_sweeps", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# metrics derived from a span list


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(idx, ()), key=lambda s: s.start):
            lo = max(child.start, reach, span.start)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (nested builders
    and the like are counted once)."""
    out = []
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        out.append(parent is None)
    return out


def repeat_ratio(spans) -> float:
    """Share of decompositions whose input was already decomposed in the same op."""
    seen = set()
    total = repeats = 0
    for span in spans:
        if span.name not in DECOMPOSITIONS:
            continue
        total += 1
        key = (span.op, span.attrs["key"])
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats / total if total else 0.0


def layer_metrics(spans, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``, counts and times per op."""
    selfs = self_times(spans)
    outer = outermost(spans)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for span, s, top in zip(spans, selfs, outer):
        self_s[span.name] = self_s.get(span.name, 0.0) + s
        if top:
            calls[span.name] = calls.get(span.name, 0) + 1
            busy[span.name] = busy.get(span.name, 0.0) + span.duration

    def per_op(value):
        return value / n_ops

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    kernel = [s for s in spans if s.name == KERNEL]
    out = {
        "kernel.calls": (per_op(calls.get(KERNEL, 0)), "calls/op"),
        "kernel.busy_s": (per_op(busy.get(KERNEL, 0.0)), "s/op"),
        "kernel.sweeps": (per_op(attr_sum(KERNEL, "sweeps")), "sweeps/op"),
        "kernel.pair_visits": (per_op(sum(
            s.attrs["sweeps"] * s.attrs["dim"] * (s.attrs["dim"] - 1) // 2
            for s in kernel)), "pairs/op"),
        "kernel.max_dim": (max((s.attrs["dim"] for s in kernel), default=0),
                           "rows"),
    }
    for fn in ("eigh", "eigvalsh", "kernel_basis"):
        name = f"spectral.{fn}"
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "calls/op")
        out[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), "s/op")
    out["spectral.repeat_ratio"] = (repeat_ratio(spans), "ratio")
    for name in ("grading.grading_basis", "models.build"):
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "calls/op")
        out[f"{name}.busy_s"] = (per_op(busy.get(name, 0.0)), "s/op")
    out["susy.validate.calls"] = (per_op(calls.get("susy.validate", 0)), "calls/op")
    out["susy.validate.busy_s"] = (per_op(busy.get("susy.validate", 0.0)), "s/op")
    out["susy.validate.rejected"] = (per_op(sum(
        1 for s in spans
        if s.name == "susy.validate" and s.attrs.get("error") == "ValidationError")),
        "calls/op")
    for name in ("susy.standard_representation", "susy.construct_involution",
                 "analysis.pairing_report", "analysis.index_report", "cli.main"):
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "calls/op")
        out[f"{name}.self_s"] = (per_op(self_s.get(name, 0.0)), "s/op")
    for name in ("io.load", "io.save"):
        out[f"{name}.calls"] = (per_op(calls.get(name, 0)), "calls/op")
        out[f"{name}.busy_s"] = (per_op(busy.get(name, 0.0)), "s/op")
        out[f"{name}.bytes"] = (per_op(attr_sum(name, "bytes")), "bytes/op")
    out["cli.main.nonzero_exits"] = (per_op(sum(
        1 for s in spans if s.name == "cli.main" and s.attrs.get("exit", 0) != 0)),
        "calls/op")
    return out
