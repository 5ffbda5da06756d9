"""Shared generators, oracles and fixtures for the test suite.

System builders here assemble matrices directly with numpy, independent
of the library's own constructors, so validator tests cannot be fooled
by a bug shared with the code under test.  The exceptions are
:func:`c07_system`, the library's 101-site superpotential lattice that
many tests read, and the ``no_jacobi``, ``negated_pinv`` and
``range_as_kernel`` fixtures.
The kernel oracle :func:`svd_kernel_dim` counts with LAPACK's SVD, not
the library.
"""

from __future__ import annotations

import numpy as np
import pytest

from susyqm import (
    Boundary,
    KernelBasis,
    LatticeSpec,
    NumericPolicy,
    analysis,
    spectral,
    susy,
    witten_model_lattice,
)


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


def direct_sum(*triples):
    """``(H, K, Q)`` of the direct sum of ``(H, K, Q)`` triples: each
    operator block diagonal in its summands'."""
    out = []
    for ops in zip(*triples):
        n = sum(len(m) for m in ops)
        m = np.zeros((n, n), dtype=complex)
        at = 0
        for op in ops:
            m[at:at + len(op), at:at + len(op)] = op
            at += len(op)
        out.append(m)
    return tuple(out)


def graded_tensor(first, second):
    """``(H, K, Q)`` of the graded tensor product of two ``(H, K, Q)``
    triples: ``H1 (x) 1 + 1 (x) H2``, ``K1 (x) K2`` and ``Q1 (x) 1 + K1 (x)
    Q2``, which squares to 2H because ``{K1, Q1} = 0``."""
    (h1, k1, q1), (h2, k2, q2) = first, second
    i1, i2 = np.eye(len(h1)), np.eye(len(h2))
    return (np.kron(h1, i2) + np.kron(i1, h2), np.kron(k1, k2),
            np.kron(q1, i2) + np.kron(k1, q2))


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


@pytest.fixture
def negated_pinv(monkeypatch):
    """Give ``construct_involution`` the negated pseudo-inverse of Q1.  Its
    K then passes every relation of the graded validation, but satisfies
    ``Q2 = +iKQ1``, which only the sign post-check refuses."""
    pinv_and_kernel = susy._pinv_and_kernel

    def negated(a, policy):
        pinv, kernel = pinv_and_kernel(a, policy)
        return -pinv, kernel

    monkeypatch.setattr(susy, "_pinv_and_kernel", negated)


@pytest.fixture
def range_as_kernel(monkeypatch):
    """Give ``kernel_equality_check``, for each charge, a basis of its
    kernel's dimension taken from the charge's range instead: its top
    right singular vectors.  Charges that share a kernel then fail only
    the annihilation check."""
    kernel_basis = analysis.kernel_basis

    def from_range(a, policy):
        dim = kernel_basis(a, policy).dim_kernel
        top = np.linalg.svd(np.asarray(a))[2][:dim].conj().T
        return KernelBasis(dim, top.astype(complex))

    monkeypatch.setattr(analysis, "kernel_basis", from_range)
