"""Cyclic Jacobi sweep kernel for real symmetric or complex Hermitian
matrices.

The iterate stays exactly Hermitian: each rotation recombines the two
affected rows and restores the matching columns by conjugation, and the
rotation product is accumulated as ``V^dag``, whose update is also
row-wise.  Rows are recombined and columns mirrored as numpy vectors;
the rotations themselves run one pair at a time in cyclic order.
"""

from __future__ import annotations

import math

import numpy as np


def _offdiag_sq(a: np.ndarray) -> float:
    # Direct off-diagonal sum; total-minus-diagonal would cancel badly
    # once the matrix is almost diagonal.
    mags = a.real**2 + a.imag**2
    np.fill_diagonal(mags, 0.0)
    return float(mags.sum())


def jacobi_sweeps(a, vt, tol_off, max_sweeps, track_vectors):
    """Drive ``a`` toward diagonal form with cyclic 2x2 unitary rotations.

    ``a`` must be exactly Hermitian, C-contiguous ``float64`` or
    ``complex128``, and is modified in place; ``vt`` has its dtype.  When
    ``track_vectors`` is true the rotations accumulate into ``vt`` so
    that on exit ``a_in = vt^dag a_out vt`` up to rounding (``vt`` holds
    the adjoint of the eigenvector matrix).
    Returns ``(sweeps, off)`` with ``off`` the final off-diagonal
    Frobenius norm; the caller decides whether ``off`` met its target.
    """
    n = a.shape[0]
    tol_sq = tol_off * tol_off
    skip = tol_off / (2.0 * n) if n > 0 else 0.0
    off_sq = _offdiag_sq(a)
    sweeps = 0
    while off_sq > tol_sq and sweeps < max_sweeps:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                # Entries at or below `skip` cannot keep the off-norm
                # above tol_off on their own; skipping them leaves the
                # convergence test decisive.
                if r <= skip:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                tau = (aqq - app) / (2.0 * r)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                sigma = (t * c / r) * apq
                sigc = sigma.conjugate()
                xp = a[p, :].copy()
                xq = a[q, :].copy()
                a[p, :] = c * xp - sigma * xq
                a[q, :] = sigc * xp + c * xq
                a[:, p] = np.conj(a[p, :])
                a[:, q] = np.conj(a[q, :])
                a[p, p] = app - t * r
                a[q, q] = aqq + t * r
                a[p, q] = 0.0
                a[q, p] = 0.0
                if track_vectors:
                    xp = vt[p, :].copy()
                    xq = vt[q, :].copy()
                    vt[p, :] = c * xp - sigma * xq
                    vt[q, :] = sigc * xp + c * xq
        off_sq = _offdiag_sq(a)
        sweeps += 1
    return sweeps, math.sqrt(off_sq)
