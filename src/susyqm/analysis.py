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
from scratch, and each of its eigenvalues seeds the bisection of the
other four times: ``K / 2`` floats on either side, ``K`` the fewest
parts a multisection round cuts a bracket into, and the Gram floor
``2 dim eps lambda_max`` on either side.  A partner within ``K / 2``
floats (98 of the 100 on a C07 lattice sit within one) closes in the
first round after the seeds; one further out but inside the Gram
floor starts from a bracket of that width.  It is the
larger sector that goes first because it holds at least ``|dim_b -
dim_f|`` zero modes with no partner, which need full-width brackets
either way.  The index report seeds the largest eigenvalue of each
Gram matrix of formula one in the same way, with the spectral radius
of H widened by the Gram floor.  Seeds decide only where the brackets
start, never the floats they close on, so the pairing check and
formula one stay independent: on a broken system wrong seeds only cost
counts.

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
    RelationCheck,
    _as_operators,
    _binary_exponent,
    _ldexp,
    _operator_scale,
    _raise_failures,
    _readonly,
    _require_int,
    _require_self_adjoint,
    adjoint,
    residual_norm,
)
from .spectral import _floats_apart, _gram_floor, _kernel_dim, _Tridiagonal, kernel_basis
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
    of ``h_plus`` and ``h_minus``, the spectral radius ``radius`` of H
    and the zero cut: sector eigenvalues at or below ``cut = kernel_tol *
    radius`` are zero modes, ``zeros_b`` and ``zeros_f`` of them."""

    rep: StandardRepresentation
    ev_b: np.ndarray
    ev_f: np.ndarray
    radius: float
    cut: float
    zeros_b: int
    zeros_f: int


def _sector_analysis(system: GradedSystem, policy: NumericPolicy) -> _SectorAnalysis:
    """The sector analysis of ``system`` under ``policy``, built on first
    use and kept on the system.  The policy is frozen and the system's
    arrays are read-only, so a kept analysis never goes stale; a build
    that raises keeps nothing.  Both sector blocks must be Hermitian
    within ``hermiticity_tol``.  Each sector is bisected once, the
    smaller one from seeds, and a valid system has no empty sector."""
    found = system._sector_analyses.get(policy)
    if found is None:
        rep = standard_representation(system, policy)
        blocks = (("h_plus", rep.h_plus), ("h_minus", rep.h_minus))
        _require_self_adjoint(blocks, policy, "sector blocks must be Hermitian")
        tris = [_Tridiagonal(block) for _, block in blocks]
        # The larger sector, bosonic on ties, seeds the other (see the
        # module docstring); dim is that sector's, max(A.shape).
        first = 0 if tris[0].n >= tris[1].n else 1
        lead = tris[first].eigenvalues()
        pad = _gram_floor(tris[first].n) * max(abs(float(lead[0])),
                                               abs(float(lead[-1])))
        half = tris[1 - first].parts // 2
        seeded = tris[1 - first].eigenvalues(np.concatenate([
            lead - pad, _floats_apart(lead, -half),
            _floats_apart(lead, half), lead + pad]))
        spectra = [_readonly(ev) for ev in ((lead, seeded) if first == 0
                                            else (seeded, lead))]
        radius = max(abs(float(ev[k])) for ev in spectra for k in (0, -1))
        cut = policy.kernel_tol * radius
        found = _SectorAnalysis(rep, *spectra, radius, cut, *(
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
    sectors = _sector_analysis(system, policy)
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
    sectors = _sector_analysis(system, policy)
    a_op = sectors.rep.a_operator
    # The Gram matrices' largest eigenvalue is that of the sectors, the
    # spectral radius of H, up to rounding: seeds within the Gram floor.
    floor = _gram_floor(max(a_op.shape)) * sectors.radius
    seeds = (sectors.radius - floor, sectors.radius + floor)
    dim_ker_a = _kernel_dim(a_op, policy, seeds)
    dim_ker_ad = _kernel_dim(adjoint(a_op), policy, seeds)
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
    ``d``-dimensional charge kernel: ``{-d, -d+2, ..., d}``.  ``d`` must
    be an integer (numpy integers too); a bool or float raises
    :class:`TypeError`."""
    d = _require_int(d, "d")
    if d < 0:
        raise ValueError(f"kernel dimension must be nonnegative, got {d}")
    return list(range(-d, d + 1, 2))


def kernel_equality_check(q1, q2,
                          policy: NumericPolicy = DEFAULT_POLICY) -> KernelEqualityReport:
    """Verify two charges with equal squares share their kernel.

    For self-adjoint charges ``||Q1 phi||^2 = ||Q2 phi||^2`` whenever
    ``Q1^2 = Q2^2``, so each numerical kernel vector of one charge must
    be annihilated by the other; charges that are not self-adjoint
    within ``hermiticity_tol`` raise :class:`ValidationError`.  The
    annihilation threshold carries a slack term ``sqrt(||Q1^2 - Q2^2||)``
    accounting for the precondition residual, exactly as the norm
    identity dictates.

    Both charges are squared scaled by one power of two ``2**-e``, ``e >=
    0`` putting their largest entry below one, so entries beyond about
    ``1e154`` do not overflow; the scaling is undone on the norms, and
    within that range it changes no bit.
    """
    a, b = _as_operators((("Q1", q1), ("Q2", q2)))
    _require_self_adjoint((("Q1", a), ("Q2", b)), policy,
                          "kernel equality needs self-adjoint charges")
    e = max(_binary_exponent(a), _binary_exponent(b), 0)
    a_s, b_s = _ldexp(a, -e), _ldexp(b, -e)
    h1, h2 = a_s @ a_s, b_s @ b_s
    # In units of 2**2e: the relative scale max(1, ||Q1^2||, ||Q2^2||)
    # is max(2**-2e, ...), and the slack sqrt(||Q1^2 - Q2^2||) 2**e.
    pre = residual_norm(h1 - h2)
    relative = pre / max(math.ldexp(1.0, -2 * e), residual_norm(h1),
                         residual_norm(h2))
    _raise_failures([RelationCheck.judge("Q1^2 = Q2^2", relative,
                                         policy.algebra_tol)],
                    "charges with Q1^2 != Q2^2 need not share a kernel")

    kb1 = kernel_basis(a, policy)
    kb2 = kernel_basis(b, policy)
    if kb1.dim_kernel != kb2.dim_kernel:
        raise CrossCheckError(
            f"kernel dimensions differ: dim ker Q1 = {kb1.dim_kernel}, "
            f"dim ker Q2 = {kb2.dim_kernel}")

    slack = math.ldexp(math.sqrt(pre), e)
    residuals = []
    for name, kb, other, op, op_s in (("Q1", kb1, "Q2", b, b_s),
                                      ("Q2", kb2, "Q1", a, a_s)):
        threshold = policy.kernel_tol * _operator_scale(op) + slack
        res = 0.0
        if kb.dim_kernel:
            res = math.ldexp(
                float(np.linalg.norm(op_s @ kb.basis, axis=0).max()), e)
            if res > threshold:
                raise CrossCheckError(
                    f"a kernel vector of {name} is not annihilated by {other} "
                    f"(residual {res:.3e} above {threshold:.3e})")
        residuals.append(res)
    return KernelEqualityReport(kb1.dim_kernel, kb2.dim_kernel, *residuals)
