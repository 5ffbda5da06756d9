"""One workload in one process: set up, warm up, measure, check every op.

Started by ``run.py``, which times set-up from the moment it spawns this
process.  Prints one JSON line with the raw per-op latencies, the speed
probe's mean time, the failed ops, the peak resident memory and the
run's provenance.  Set-up ends when the first timed op starts; with
``--setup-only`` the process stops there.  With ``--trace 1`` every input runs twice, once untraced and once
traced (alternating which goes first), so the traced run's throughput
loss can be measured against the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import susyqm
from perfbench.tracer import Tracer, layer_metrics
from perfbench.workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
# Failure messages kept for the report; the count is always complete.
KEEP_FAILURES = 5
# Share of timed op time spent, between ops, on the speed probe.
PROBE_SHARE = 0.1
# Probe calls made by a set-up-only process after set-up ends.
SETUP_PROBES = 20


class SpeedProbe:
    """Times a fixed loop of row rotations on a ``dim x dim`` matrix, between ops.

    The loop shares no code with susyqm, so a change to the package
    cannot move it; it only tracks how fast the machine runs the kind
    of work the workload does at the moment: Python loops over small
    numpy calls on rows and columns of a matrix of the workload's size.
    ``run.py`` scales the timings by it.  Calls are spread over the run
    in proportion to op time, so their mean weighs each stretch of the
    run as the op timings do.
    """

    PAIRS = 128

    def __init__(self, dim: int):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        self._pairs = [(p, q) for p in range(dim - 1) for q in range(p + 1, dim)]
        self._next = 0
        self.times: list[float] = []
        self._debt = 0.0

    def probe(self) -> None:
        a = self._a
        pairs = self._pairs
        start = time.perf_counter()
        for k in range(self._next, self._next + self.PAIRS):
            p, q = pairs[k % len(pairs)]
            xp = a[p].copy()
            xq = a[q].copy()
            a[p] = 0.6 * xp - 0.8 * xq
            a[q] = 0.8 * xp + 0.6 * xq
            a[:, p] = np.conj(a[p])
            a[:, q] = np.conj(a[q])
        self.times.append(time.perf_counter() - start)
        self._next = (self._next + self.PAIRS) % len(pairs)

    def after_op(self, elapsed: float) -> None:
        self._debt += PROBE_SHARE * elapsed
        while self._debt > 0.0:
            self.probe()
            self._debt -= self.times[-1]


class Loop:
    """Closed loop over a workload's inputs; tallies latencies and failures."""

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed = 0

    def run_op(self, i: int) -> float:
        """Time op ``i`` (cycling through the inputs), then check it."""
        return self.run_input(self.workload.inputs[i % len(self.workload.inputs)],
                              f"op {i}")

    def run_input(self, inp, tag: str) -> float:
        start = time.perf_counter()
        try:
            out = self.workload.op(inp)
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - start
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            elapsed = time.perf_counter() - start
            try:
                problems = self.workload.check(inp, out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.latencies.append(elapsed)
        self.probe.after_op(elapsed)
        if problems:
            self.failed += 1
            if len(self.failures) < KEEP_FAILURES:
                self.failures.append(f"{tag} {inp}: " + "; ".join(problems))
        return elapsed


def provenance(seed: int) -> dict:
    return {
        "backend": susyqm.jacobi_backend(),
        "susyqm_file": os.path.relpath(susyqm.__file__),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def measure(workload, seconds: float, probe: SpeedProbe) -> dict:
    loop = Loop(workload, probe)
    busy = 0.0
    while busy < seconds or len(loop.latencies) % workload.block:
        busy += loop.run_op(len(loop.latencies))
    return {"latencies": loop.latencies, "failed": loop.failed,
            "failures": loop.failures}


def measure_traced(workload, seconds: float, probe: SpeedProbe,
                   spans_path: Path) -> dict:
    plain = Loop(workload, probe)
    traced = Loop(workload, probe)
    tracer = Tracer()
    busy = 0.0
    i = 0
    while busy < seconds or i % workload.block:
        for mode in ((0, 1) if i % 2 == 0 else (1, 0)):
            if mode:
                tracer.op = i
                with tracer:
                    busy += traced.run_op(i)
            else:
                busy += plain.run_op(i)
        i += 1
    tracer.write(spans_path)
    layers = layer_metrics(tracer.spans, i)
    # Throughput loss of the traced ops against the same inputs untraced.
    layers["trace.overhead_frac"] = (
        1.0 - sum(plain.latencies) / sum(traced.latencies), "ratio")
    return {"latencies": plain.latencies + traced.latencies,
            "failed": plain.failed + traced.failed,
            "failures": plain.failures + traced.failures,
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        probe = SpeedProbe(workload.probe_dim)
        warm = Loop(workload, probe)
        warm.run_input(workload.warmup_input, "warm-up")
        for failure in warm.failures:
            sys.stderr.write(f"FAILED {failure}\n")
        result = {"first_op": time.monotonic()}
        if args.setup_only:
            for _ in range(SETUP_PROBES):
                probe.probe()
        elif args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
            result.update(measure_traced(workload, args.seconds, probe, spans))
        else:
            result.update(measure(workload, args.seconds, probe))
        result["probe_s"] = sum(probe.times) / len(probe.times)
        if not args.setup_only:
            result["rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result["provenance"] = provenance(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
