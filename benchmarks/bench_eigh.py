"""Benchmark the Hermitian eigensolvers of susyqm against each other.

Three columns of wall time per decomposition: the numpy Jacobi sweep
kernel, the compiled Jacobi kernel (when it is built) and the
tridiagonal path's multisection (``_Tridiagonal(a).eigenvalues()``,
Householder reduction included).  The Jacobi columns accumulate
eigenvectors, as ``eigh`` does; multisection computes eigenvalues only.
All solvers must agree to rounding; the last column is the largest
eigenvalue difference from the numpy kernel.

Usage:
    python benchmarks/bench_eigh.py [--dims 32,64,128,256] [--repeats 3]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from susyqm import _jacobi_py
from susyqm.spectral import _Tridiagonal

try:
    from susyqm import _jacobi
except ImportError:
    _jacobi = None


def _hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.ascontiguousarray(0.5 * (m + m.conj().T))


def _run(kernel, a, tol):
    work = a.copy()
    vt = np.eye(a.shape[0], dtype=complex)
    start = time.perf_counter()
    sweeps, off = kernel.jacobi_sweeps(work, vt, tol, 100, True)
    elapsed = time.perf_counter() - start
    return elapsed, sweeps, np.sort(np.diagonal(work).real)


def _run_multisection(a):
    start = time.perf_counter()
    w = _Tridiagonal(a).eigenvalues()
    return time.perf_counter() - start, w


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dims", default="32,64,128,256",
                        help="comma-separated matrix dimensions")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per dimension (best wins)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    dims = [int(d) for d in args.dims.split(",")]

    if _jacobi is None:
        print("compiled kernel unavailable; its column stays empty")
    rng = np.random.default_rng(args.seed)

    header = f"{'dim':>6} {'python [s]':>12} {'compiled [s]':>14} " \
             f"{'multisect [s]':>14} {'sweeps':>7} {'max |dw|':>10}"
    print(header)
    print("-" * len(header))
    for n in dims:
        a = _hermitian(rng, n)
        tol = 1e-12 * np.linalg.norm(a)
        t_py = min(_run(_jacobi_py, a, tol)[0] for _ in range(args.repeats))
        _, sweeps, w_py = _run(_jacobi_py, a, tol)
        t_ms = min(_run_multisection(a)[0] for _ in range(args.repeats))
        dw = np.abs(_run_multisection(a)[1] - w_py).max()
        t_c = "-"
        if _jacobi is not None:
            t_c = f"{min(_run(_jacobi, a, tol)[0] for _ in range(args.repeats)):.4f}"
            dw = max(dw, np.abs(_run(_jacobi, a, tol)[2] - w_py).max())
        print(f"{n:>6} {t_py:>12.4f} {t_c:>14} {t_ms:>14.4f} {sweeps:>7} "
              f"{dw:>10.2e}")


if __name__ == "__main__":
    main()
