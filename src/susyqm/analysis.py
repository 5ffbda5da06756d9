"""Spectral consequences of supersymmetry.

The sector restrictions ``h_plus = A^dag A`` and ``h_minus = A A^dag``
share every nonzero eigenvalue, so the positive spectra of a valid
graded system must match one-to-one.  :func:`spectral_pairing_report`
performs that matching (zero modes stay unpaired, they have no partner
guarantee), :func:`witten_index` counts unpaired zero modes by two
independent formulas and cross-checks them, and :func:`index_range`
enumerates the indices reachable through the kernel-extension freedom of
the involution construction.

Both reports and the ``index``, ``pair`` and ``spectrum`` verbs read one
sector analysis per system and policy, built on first use: the standard
representation, the two sector spectra, the zero cut and the zero-mode
count of each sector.  The larger sector (bosonic on ties) is bisected
from scratch, and its spectrum, widened by the Gram floor
``2 dim eps lambda_max``, seeds the bisection of the other: the partner
eigenvalues sit within a few ulps of the seeds, so their brackets start
narrow.  It is the larger sector that goes first because it holds at
least ``|dim_b - dim_f|`` zero modes with no partner, which need
full-width brackets either way.  Seeds decide only where the brackets
start, never the floats they close on, so the pairing check stays
independent: on a broken system wrong seeds only cost rounds.

At finite dimension every operator is trivially Fredholm, so the index
is always well defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    CrossCheckError,
    NumericPolicy,
    ShapeError,
    ValidationError,
    _operator_scale,
    _readonly,
    _require_hermitian,
    adjoint,
    as_operator,
    residual_norm,
)
from .spectral import _EPS, _kernel_dim, _Tridiagonal, kernel_basis
# Not called here; ``analysis.eigvalsh`` stays bound because the
# benchmark's tracer test patches and restores it.
from .spectral import eigvalsh  # noqa: F401
from .susy import GradedSystem, StandardRepresentation, standard_representation

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


@dataclass(frozen=True)
class _SectorAnalysis:
    """A graded system's standard representation, the ascending spectra
    of ``h_plus`` and ``h_minus`` and the zero cut: sector eigenvalues at
    or below ``cut = kernel_tol * lambda_max``, with ``lambda_max`` the
    spectral radius of H, are zero modes, ``zeros_b`` and ``zeros_f`` of
    them."""

    rep: StandardRepresentation
    ev_b: np.ndarray
    ev_f: np.ndarray
    cut: float
    zeros_b: int
    zeros_f: int


def _sector_analysis(system: GradedSystem, policy: NumericPolicy,
                     who: str) -> _SectorAnalysis:
    """The sector analysis of ``system`` under ``policy``, built on first
    use and kept on the system.  The policy is frozen and the system's
    arrays are read-only, so a kept analysis never goes stale; a build
    that raises keeps nothing.  Each sector is bisected once, the
    smaller one from seeds, and a valid system has no empty sector."""
    found = system._sector_analyses.get(policy)
    if found is None:
        rep = standard_representation(system, policy)
        tris = [_Tridiagonal(_require_hermitian(block, policy, who))
                for block in (rep.h_plus, rep.h_minus)]
        # The larger sector, bosonic on ties, seeds the other (see the
        # module docstring); dim is that sector's, max(A.shape).
        first = 0 if tris[0].n >= tris[1].n else 1
        lead = tris[first].eigenvalues()
        pad = 2.0 * tris[first].n * _EPS * max(abs(float(lead[0])),
                                               abs(float(lead[-1])))
        seeded = tris[1 - first].eigenvalues(
            np.concatenate([lead - pad, lead + pad]))
        spectra = [_readonly(ev) for ev in ((lead, seeded) if first == 0
                                            else (seeded, lead))]
        cut = policy.kernel_tol * max(abs(float(ev[k]))
                                      for ev in spectra for k in (0, -1))
        found = _SectorAnalysis(rep, *spectra, cut, *(
            int(np.count_nonzero(ev <= cut)) for ev in spectra))
        system._sector_analyses[policy] = found
    return found


def spectral_pairing_report(system: GradedSystem,
                            policy: NumericPolicy = DEFAULT_POLICY) -> SpectralReport:
    """Compute both sector spectra and match their positive eigenvalues.

    Both sectors come from the sector analysis this report shares with
    :func:`witten_index_report`; all eigenvalues of each are bisected
    together, down to adjacent floats (no Jacobi sweeps and no
    eigenvectors).  Eigenvalues at or below ``kernel_tol`` times the
    spectral radius of H count as zero modes and are never paired.  The
    k-th positive eigenvalues of the two sectors pair when their
    relative gap is within ``pairing_tol``; degenerate clusters match by
    count.  An unmatched positive eigenvalue raises :class:`PairingError`
    naming the first orphan and its sector, which signals either a
    broken system or a too-tight pairing tolerance.
    """
    sectors = _sector_analysis(system, policy, "spectral_pairing_report")
    ev_b, ev_f = sectors.ev_b.tolist(), sectors.ev_f.tolist()
    zeros_b, zeros_f = sectors.zeros_b, sectors.zeros_f
    pos_b = list(enumerate(ev_b))[zeros_b:]
    pos_f = list(enumerate(ev_f))[zeros_f:]

    pairs = []
    for (i, vb), (j, vf) in zip(pos_b, pos_f):
        gap = _relative_gap(vb, vf)
        if gap > policy.pairing_tol:
            orphan, sector, other = ((vb, "bosonic", "fermionic") if vb < vf
                                     else (vf, "fermionic", "bosonic"))
            raise PairingError(
                f"{sector} eigenvalue {orphan!r} has no {other} partner "
                f"(nearest gap {gap:.3e})", orphan, sector)
        pairs.append((i, j, gap))
    if len(pos_b) != len(pos_f):
        longer, sector, other = ((pos_b, "bosonic", "fermionic")
                                 if len(pos_b) > len(pos_f)
                                 else (pos_f, "fermionic", "bosonic"))
        orphan = longer[len(pairs)][1]
        raise PairingError(
            f"{sector} eigenvalue {orphan!r} has no {other} partner "
            f"({other} sector exhausted)", orphan, sector)

    return SpectralReport(tuple(ev_b), tuple(ev_f), tuple(pairs),
                          zeros_b, zeros_f, zeros_b - zeros_f)


def witten_index_report(system: GradedSystem,
                        policy: NumericPolicy = DEFAULT_POLICY) -> WittenIndexReport:
    """Compute the index by both formulas and insist they agree.

    Formula one counts kernel dimensions of the extracted map A and of
    its adjoint, each by its own Gram reduction, so it stays independent
    of the sector spectra; it counts, and builds no kernel vectors.
    Formula two reads the zero-mode counts of the sector analysis shared
    with :func:`spectral_pairing_report`, the sector eigenvalues at or
    below its zero cut.
    Disagreement raises :class:`CrossCheckError`, never averaged away;
    its message gives how far each sector block of H is from ``A^dag A``
    or ``A A^dag`` and the sector eigenvalue nearest the zero cut.
    """
    sectors = _sector_analysis(system, policy, "witten_index_report")
    a_op = sectors.rep.a_operator
    dim_ker_a = _kernel_dim(a_op, policy)
    dim_ker_ad = _kernel_dim(adjoint(a_op), policy)
    zeros_b, zeros_f = sectors.zeros_b, sectors.zeros_f
    via_a = dim_ker_a - dim_ker_ad
    via_blocks = zeros_b - zeros_f
    if via_a != via_blocks:
        raise CrossCheckError(
            f"index formulas disagree: dim ker A - dim ker A^dag = "
            f"{dim_ker_a} - {dim_ker_ad} = {via_a}, but sector zero-mode "
            f"counts give {zeros_b} - {zeros_f} = {via_blocks}; "
            f"{_disagreement_facts(system, sectors)}")
    return WittenIndexReport(dim_ker_a, dim_ker_ad, zeros_b, zeros_f, via_a)


def _disagreement_facts(system: GradedSystem, sectors: _SectorAnalysis) -> str:
    """What the two index formulas rest on, measured: how far each sector
    block of H is from ``A^dag A`` or ``A A^dag`` relative to ``||H||``
    (formula one reads A, formula two the blocks), and the sector
    eigenvalue nearest the zero cut as a multiple of the cut."""
    rep = sectors.rep
    a_op = rep.a_operator
    scale = residual_norm(system.hamiltonian) or 1.0
    off_plus = residual_norm(rep.h_plus - adjoint(a_op) @ a_op) / scale
    off_minus = residual_norm(rep.h_minus - a_op @ adjoint(a_op)) / scale
    nearest = min(((float(v), sector)
                   for sector, ev in (("bosonic", sectors.ev_b),
                                      ("fermionic", sectors.ev_f))
                   for v in ev),
                  key=lambda item: abs(item[0] - sectors.cut))
    ratio = nearest[0] / sectors.cut if sectors.cut > 0.0 else math.inf
    return (f"||h_plus - A^dag A|| = {off_plus:.1e} ||H||, "
            f"||h_minus - A A^dag|| = {off_minus:.1e} ||H||; the sector "
            f"eigenvalue nearest the zero cut {sectors.cut:.3e} is "
            f"{nearest[1]} {nearest[0]:.3e}, {ratio:.3g} times the cut")


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
