"""Shared generators, oracles and fixtures for the test suite.

System builders here assemble matrices directly with numpy, independent
of the library's own constructors, so validator tests cannot be fooled
by a bug shared with the code under test.  The exceptions are
:func:`c07_system`, the library's 101-site superpotential lattice that
many tests read, and the ``no_jacobi`` fixture.  The kernel oracle
:func:`svd_kernel_dim` counts with LAPACK's SVD, not the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from susyqm import Boundary, LatticeSpec, NumericPolicy, spectral, witten_model_lattice


def adj(a):
    return np.asarray(a).conj().T


def random_hermitian(rng, n, scale=1.0):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (m + adj(m))


def random_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def block_system(a):
    """Assemble (H, K, q) in block form from a rectangular map A.

    A has shape (dim_f, dim_b); the complex charge is
    sqrt(2) [[0, A^dag], [0, 0]] and H = diag(A^dag A, A A^dag).
    """
    a = np.asarray(a, dtype=complex)
    df, db = a.shape
    n = db + df
    h = np.zeros((n, n), dtype=complex)
    h[:db, :db] = adj(a) @ a
    h[db:, db:] = a @ adj(a)
    k = np.diag(np.concatenate([np.ones(db), -np.ones(df)])).astype(complex)
    q = np.zeros((n, n), dtype=complex)
    q[:db, db:] = np.sqrt(2.0) * adj(a)
    return h, k, q


def real_pair_from_block(a):
    """Real charge pair of the block system built from A."""
    h, k, q = block_system(a)
    q1 = (q + adj(q)) / np.sqrt(2.0)
    q2 = -1j * (q - adj(q)) / np.sqrt(2.0)
    return h, k, q1, q2


def rank_deficient(rng, df, db, rank):
    """Random (df x db) matrix of the given rank."""
    if rank == 0:
        return np.zeros((df, db), dtype=complex)
    left = random_complex(rng, df, rank)
    right = random_complex(rng, rank, db)
    return left @ right


def haar_unitary(rng, n):
    m = random_complex(rng, n, n)
    q, r = np.linalg.qr(m)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def corrupt_entry(rng, m, relative=1e-4):
    """Perturb one entry by `relative` times the matrix scale."""
    out = np.array(m, dtype=complex)
    i = rng.integers(out.shape[0])
    j = rng.integers(out.shape[1])
    scale = max(1.0, np.abs(out).max())
    out[i, j] += relative * scale * (1.0 + 0.5j)
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240117)


def c07_system(w_sign):
    """The 101-site, dx = 0.15 Dirichlet lattice with superpotential
    ``W(x) = w_sign * x``: two numerical zero modes, one per sector."""
    spec = LatticeSpec(101, 0.15, Boundary.DIRICHLET)
    return witten_model_lattice(spec, w_sign * spec.coordinates())


def zero_cut(policy, shape):
    """The zero cut relative to the largest eigenvalue of ``A^dag A``, A
    of the given shape: ``max(kernel_tol^2, 2 max(shape) eps)``."""
    return max(policy.kernel_tol**2, 2.0 * max(shape) * np.finfo(np.float64).eps)


def gram_cutoff(a, policy=NumericPolicy()):
    """kernel_basis's cut on the squared singular values of ``a``:
    :func:`zero_cut` times ``sigma_max^2``."""
    sigma_max = float(np.linalg.svd(a, compute_uv=False).max(initial=0.0))
    return zero_cut(policy, a.shape) * sigma_max**2


def svd_kernel_dim(a, policy=NumericPolicy()):
    """dim ker A from LAPACK singular values under :func:`gram_cutoff`."""
    a = np.asarray(a)
    sigma = np.linalg.svd(a, compute_uv=False)
    return a.shape[1] - int(np.count_nonzero(sigma**2 > gram_cutoff(a, policy)))


@pytest.fixture
def no_jacobi(monkeypatch):
    """Make any call of the Jacobi sweep kernel fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("Jacobi sweeps on a path that should take none")

    monkeypatch.setattr(spectral._kernel, "jacobi_sweeps", refuse)
