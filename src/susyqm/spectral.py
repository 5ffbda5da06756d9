"""Self-contained Hermitian eigensolver, numerical kernels, pseudo-inverse.

The eigensolver runs cyclic Jacobi sweeps of 2x2 unitary rotations until
the off-diagonal Frobenius norm drops below ``eigensolver_tol * ||A||``.
Jacobi was chosen over QR iteration because it is simple to verify,
unconditionally convergent on Hermitian input and accurate enough at the
desk-scale dimensions this package targets.

The sweep kernel exists twice: a compiled Cython extension and a
vectorised numpy mirror.  The compiled one is used whenever it imports,
the mirror otherwise; ``jacobi_backend()`` reports which is active.
``benchmarks/bench_eigh.py`` imports both kernels directly to compare
them.

Kernel detection is threshold based and relative: a singular value
counts as zero when it is at most ``kernel_tol`` times the largest one,
so refining a lattice does not silently reclassify near-zero modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    ConvergenceError,
    NumericPolicy,
    ValidationError,
    _hermiticity_residual,
    adjoint,
    as_operator,
    frozen_copy,
    residual_norm,
)

__all__ = [
    "DEFAULT_MAX_SWEEPS",
    "EigenDecomposition",
    "KernelBasis",
    "eigh",
    "eigvalsh",
    "inverse_on_complement",
    "jacobi_backend",
    "kernel_basis",
]

DEFAULT_MAX_SWEEPS = 100

try:
    from . import _jacobi as _kernel

    _BACKEND = "compiled"
except ImportError:
    from . import _jacobi_py as _kernel

    _BACKEND = "python"


def jacobi_backend() -> str:
    """Name of the active sweep kernel: ``"compiled"`` or ``"python"``."""
    return _BACKEND


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal columns spanning the numerical kernel of a matrix."""

    dim_kernel: int
    basis: np.ndarray


def _diagonalize(a: np.ndarray, policy: NumericPolicy, max_sweeps: int,
                 track_vectors: bool):
    # Work on the exactly Hermitian part so the kernels can mirror rows
    # into columns and the diagonal stays real.
    work = np.ascontiguousarray(0.5 * (a + adjoint(a)), dtype=np.complex128)
    n = work.shape[0]
    tol_off = policy.eigensolver_tol * residual_norm(work)
    if track_vectors:
        vt = np.eye(n, dtype=np.complex128)
    else:
        vt = np.zeros((1, 1), dtype=np.complex128)
    sweeps, off = _kernel.jacobi_sweeps(work, vt, tol_off, max_sweeps,
                                        track_vectors)
    if off > tol_off:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge after {sweeps} sweeps: "
            f"off-diagonal norm {off:.3e} above target {tol_off:.3e}"
        )
    w = np.diagonal(work).real.copy()
    order = np.argsort(w, kind="stable")
    if not track_vectors:
        return w[order], None
    # The kernels accumulate the adjoint of the eigenvector matrix.
    return w[order], adjoint(vt)[:, order]


def _require_hermitian(a, policy: NumericPolicy, who: str) -> np.ndarray:
    arr = as_operator(a)
    res = _hermiticity_residual(arr)
    if res > policy.hermiticity_tol:
        raise ValidationError(
            f"{who} requires a Hermitian matrix "
            f"(relative asymmetry {res:.3e} above {policy.hermiticity_tol:.1e})"
        )
    return arr


def eigh(a, policy: NumericPolicy = DEFAULT_POLICY,
         max_sweeps: int = DEFAULT_MAX_SWEEPS) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises :class:`ValidationError` on non-Hermitian input and
    :class:`ConvergenceError` if ``max_sweeps`` cyclic sweeps do not
    reach the off-diagonal target.
    """
    arr = _require_hermitian(a, policy, "eigh")
    w, v = _diagonalize(arr, policy, max_sweeps, track_vectors=True)
    return EigenDecomposition(frozen_copy(w), frozen_copy(v))


def eigvalsh(a, policy: NumericPolicy = DEFAULT_POLICY,
             max_sweeps: int = DEFAULT_MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues only; skips accumulating the rotation product."""
    arr = _require_hermitian(a, policy, "eigvalsh")
    w, _ = _diagonalize(arr, policy, max_sweeps, track_vectors=False)
    return w


def kernel_basis(a, policy: NumericPolicy = DEFAULT_POLICY) -> KernelBasis:
    """Orthonormal basis of the numerical kernel of ``a``.

    Accepts rectangular input; works on the Hermitian Gram matrix
    ``a^dag a``.  A direction counts as kernel when its singular value
    is at most ``kernel_tol`` times the largest singular value (for the
    zero matrix the kernel is the whole domain).

    Forming the Gram matrix cannot resolve singular values below roughly
    ``sqrt(dim * eps)`` times the largest one, so the cutoff never drops
    below that floor; otherwise rounding in the matrix product would
    randomly evict exact kernel directions.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValidationError(f"kernel_basis expects a matrix, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("kernel_basis input contains non-finite entries")
    gram = adjoint(arr) @ arr
    dec = eigh(gram, policy)
    lam_max = max(float(dec.eigenvalues[-1]), 0.0)
    gram_floor = 2.0 * max(arr.shape) * np.finfo(np.float64).eps
    cutoff = max(policy.kernel_tol**2, gram_floor) * lam_max
    mask = dec.eigenvalues <= cutoff
    basis = dec.eigenvectors[:, mask]
    return KernelBasis(int(np.count_nonzero(mask)), frozen_copy(basis))


def _pinv_and_kernel(a: np.ndarray, policy: NumericPolicy):
    """Pseudo-inverse of a Hermitian matrix and the orthonormal columns
    spanning its numerical kernel, both from one eigendecomposition.

    Eigenvalues with ``|lambda|`` above ``kernel_tol`` times the spectral
    radius are reciprocated; the rest span the kernel.  Sharing the split
    keeps borderline eigenvalues from being classified differently by
    the two results.
    """
    dec = eigh(a, policy)
    magnitudes = np.abs(dec.eigenvalues)
    scale = float(magnitudes.max(initial=0.0))
    keep = magnitudes > policy.kernel_tol * scale
    inverted = np.zeros_like(dec.eigenvalues)
    inverted[keep] = 1.0 / dec.eigenvalues[keep]
    u = dec.eigenvectors
    return (u * inverted) @ adjoint(u), u[:, ~keep]


def inverse_on_complement(q, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Pseudo-inverse of a Hermitian matrix, zero on its numerical kernel.

    Eigenvalues with ``|lambda|`` above ``kernel_tol`` times the spectral
    radius are reciprocated, the rest are dropped, so ``Q^+ Q`` is the
    orthogonal projector onto the complement of the kernel.
    """
    arr = _require_hermitian(q, policy, "inverse_on_complement")
    return _pinv_and_kernel(arr, policy)[0]
