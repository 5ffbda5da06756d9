"""susyqm benchmark: closed-loop workloads against the public API and the CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``lattice_index``, ``scrambled_random``, ``batch_small`` or
``all``.  Each workload runs in its own process with BLAS capped at one
thread.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics of a traced run, plus the traced
run's throughput loss.  Every op's output is checked against an oracle
outside the timed region.  The last line of standard output is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with provenance and the unscaled timings, is written to
``perfbench/out/``.

Timings are reported in reference seconds: each process's wall-clock
timings are scaled by ``PROBE_REF_S`` over the mean time of a fixed
speed probe that the process runs between ops (see ``worker.SpeedProbe``).
On a shared machine whose speed changes by up to twofold from minute to
minute, this keeps runs of the same code comparable; README.md has the
measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("lattice_index", "scrambled_random", "batch_small")
# Set-up is timed in this many processes that stop at the first timed op,
# plus the measuring process; the median is reported.
SETUP_REPEATS = 6
# Each workload must finish within this many seconds.
WORKLOAD_BUDGET_S = 170.0
BLAS_THREADS = "1"
# The tail percentile must leave at least this many samples above it, so
# one slow op cannot decide it on its own.
TAIL_BEYOND = 10
# Speed probe time that defines a reference second (see README.md).
PROBE_REF_S = 0.002


class BenchError(RuntimeError):
    pass


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value, samples_beyond)``.  The tail is never
    taken below the median: with too few samples the upper median is
    returned, with its own count of samples above it, so the caller can
    see that the rule was not met.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - beyond, math.ceil((n + 1) / 2))
    return 100.0 * rank / n, xs[rank - 1], n - rank


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(name: str, args, extra: list[str], deadline: float):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker exceeded the time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_hash() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_workload(name: str, args) -> dict:
    """Run one workload; returns its record (metrics, counts, provenance)."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    setups = []  # (wall seconds, probe seconds) per process
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            spawned, res = _spawn(name, args, ["--setup-only"], deadline)
            setups.append((res["first_op"] - spawned, res["probe_s"]))
    spawned, res = _spawn(name, args, [], deadline)
    setups.append((res["first_op"] - spawned, res["probe_s"]))

    lat = res["latencies"]
    attempted = len(lat)
    failed = res["failed"]
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
        notes = {}
        unscaled = {}
    else:
        pct, tail, beyond = tail_percentile(lat)
        unscaled = {
            "throughput_ops_s": (attempted - failed) / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail,
            "setup_s": statistics.median(wall for wall, _ in setups),
        }
        scale = PROBE_REF_S / res["probe_s"]
        metrics = {
            "throughput_ops_s": {"value": unscaled["throughput_ops_s"] / scale,
                                 "unit": "1/s"},
            "latency_p50_s": {"value": unscaled["latency_p50_s"] * scale,
                              "unit": "s"},
            "latency_tail_s": {"value": tail * scale, "unit": "s"},
            "setup_s": {"value": statistics.median(
                wall * PROBE_REF_S / probe for wall, probe in setups), "unit": "s"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
        notes = {
            "latency_tail_s": f"p{pct:.1f} of {attempted} samples, "
                              f"{beyond} beyond"
                              + ("" if beyond >= TAIL_BEYOND else
                                 "; too few samples for ten beyond"),
            "setup_s": f"median of {len(setups)} processes",
        }
    prov = dict(res["provenance"], commit=_commit(), source_hash=_source_hash())
    return {
        "workload": name, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics, "notes": notes, "probe_s": res["probe_s"],
        "unscaled": unscaled, "failures": res["failures"], "provenance": prov,
    }


def _print_record(rec: dict) -> None:
    prov = rec["provenance"]
    print(f"workload {rec['workload']}  seed {prov['seed']}  backend "
          f"{prov['backend']}  trace {rec['trace']}  commit {prov['commit']}  "
          f"source {prov['source_hash']}")
    print(f"  {'error_rate':<36} {rec['error_rate']:.4g} ratio  "
          f"({rec['failed']} of {rec['attempted']} ops failed)")
    print(f"  {'speed probe':<36} {rec['probe_s'] * 1e3:.4g} ms "
          f"(reference {PROBE_REF_S * 1e3:.4g} ms)")
    for name, m in rec["metrics"].items():
        note = rec["notes"].get(name)
        if name in rec["unscaled"]:
            note = "; ".join(filter(None, [
                f"unscaled {rec['unscaled'][name]:.6g}", note]))
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    for failure in rec["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed op seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "susyqm" / "__init__.py").is_file():
        sys.stderr.write(f"error: no susyqm sources under {ROOT / 'src'}\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    OUT.mkdir(exist_ok=True)
    for rec in records:
        _print_record(rec)
        path = OUT / f"{rec['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in records for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
