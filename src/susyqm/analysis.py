"""Spectral consequences of supersymmetry.

The sector restrictions ``h_plus = A^dag A`` and ``h_minus = A A^dag``
share every nonzero eigenvalue, so the positive spectra of a valid
graded system must match one-to-one.  :func:`spectral_pairing_report`
performs that matching (zero modes stay unpaired, they have no partner
guarantee), :func:`witten_index` counts unpaired zero modes by two
independent formulas and checks both against ``Tr K``, and
:func:`index_range` enumerates the indices reachable through the
kernel-extension freedom of the involution construction.

Both reports and the ``index``, ``pair`` and ``spectrum`` verbs read one
sector analysis per system and policy, built on first use: the standard
representation, the two sector spectra, the zero cut and the zero-mode
count of each sector.  The larger sector (bosonic on ties) is bisected
from scratch, and its spectrum seeds the bisection of the other (the
seed rule of :mod:`susyqm.spectral`).  It is the larger sector that
goes first because it holds at least ``|dim_b - dim_f|`` zero modes
with no partner, which need full-width brackets either way.  The index
report seeds the largest eigenvalue of each Gram matrix of formula one
with the spectral radius of H.  Seeds decide only where the brackets
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
    _dagger,
    _ldexp,
    _raise_failures,
    _readonly,
    _relative,
    _require_int,
    _require_self_adjoint,
    residual_norm,
)
from .spectral import _gram_split, _Tridiagonal, _zero_cut, kernel_basis
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
    are recorded so near-tolerance matches remain visible to callers; a
    gap exceeds ``pairing_tol`` only for partners within the unwidened
    zero cut of each other (see :func:`spectral_pairing_report`).
    """

    bosonic_eigenvalues: tuple[float, ...]
    fermionic_eigenvalues: tuple[float, ...]
    pairs: tuple[tuple[int, int, float], ...]
    unpaired_bosonic_zero_modes: int
    unpaired_fermionic_zero_modes: int
    witten_index: int


@dataclass(frozen=True)
class WittenIndexReport:
    """Both index formulas with their ingredients, each already checked
    against ``trace_k``, the exact index ``Tr K = dim_b - dim_f``."""

    dim_kernel_a: int
    dim_kernel_a_dagger: int
    bosonic_zero_modes: int
    fermionic_zero_modes: int
    index: int
    trace_k: int


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
    of ``h_plus`` and ``h_minus`` and the spectral radius ``radius`` of
    H.  ``resolution = _zero_cut(policy, max(A.shape)) * radius`` is the
    zero cut of the :class:`NumericPolicy` docstring in H's units, below
    which no eigenvalue is resolved.  The sector blocks are the user's,
    not products formed here: each lies within its block residual of
    ``A^dag A`` or ``A A^dag`` (:class:`StandardRepresentation`), so by
    Weyl's bound a zero mode of A sits at most that far above the
    resolution.  Sector eigenvalues at or below ``cut = resolution +
    max(block_residuals)`` are zero modes, ``zeros_b`` and ``zeros_f``
    of them; for an exact product the residuals are rounding."""

    rep: StandardRepresentation
    ev_b: np.ndarray
    ev_f: np.ndarray
    radius: float
    resolution: float
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
        seeded = tris[1 - first].eigenvalues(near=lead)
        spectra = [_readonly(ev) for ev in ((lead, seeded) if first == 0
                                            else (seeded, lead))]
        radius = max(abs(float(ev[k])) for ev in spectra for k in (0, -1))
        resolution = _zero_cut(policy, tris[first].n) * radius
        cut = resolution + max(rep.block_residuals)
        found = _SectorAnalysis(rep, *spectra, radius, resolution, cut, *(
            int(np.count_nonzero(ev <= cut)) for ev in spectra))
        system._sector_analyses[policy] = found
    return found


def spectral_pairing_report(system: GradedSystem,
                            policy: NumericPolicy = DEFAULT_POLICY) -> SpectralReport:
    """Compute both sector spectra and match their positive eigenvalues.

    Both sectors come from the sector analysis this report shares with
    :func:`witten_index_report`; all eigenvalues of each are bisected
    together, down to adjacent floats (no Jacobi sweeps and no
    eigenvectors).  Eigenvalues at or below the sector zero cut (the
    rule of the :class:`NumericPolicy` docstring, relative to the
    spectral radius of H and widened by the block residuals, see
    :class:`_SectorAnalysis`) count as zero modes and are never paired.
    The k-th positive eigenvalues ``x`` and ``y`` of the two sectors
    pair when ``|x - y|`` is at most ``pairing_tol * max(x, y)`` plus
    the unwidened cut, ``resolution``, since no eigenvalue is resolved
    below it; degenerate clusters match by count.  The block residuals
    do not widen the window: they are a partner mismatch of the input,
    which ``pairing_tol`` judges.  The recorded gap stays relative, so it
    exceeds ``pairing_tol`` only when ``|x - y|`` is within the
    resolution.  An unmatched positive eigenvalue
    raises :class:`PairingError` naming the first orphan and its sector,
    which signals either a broken system or a too-tight pairing
    tolerance.  A validated system can raise it too: its sector blocks
    may sit up to ``algebra_tol * ||A||^2`` from ``A^dag A`` and ``A
    A^dag``, which moves a small eigenvalue further from its partner
    than ``pairing_tol`` allows.  That is a verdict on the input; every
    partner mismatch a validated system can carry is such a residual,
    so a window widened by them would never raise.
    """
    sectors = _sector_analysis(system, policy)
    ev_b, ev_f = sectors.ev_b.tolist(), sectors.ev_f.tolist()
    zeros_b, zeros_f = sectors.zeros_b, sectors.zeros_f
    pos_b = list(enumerate(ev_b))[zeros_b:]
    pos_f = list(enumerate(ev_f))[zeros_f:]

    pairs = []
    for (i, vb), (j, vf) in zip(pos_b, pos_f):
        gap = _relative_gap(vb, vf)
        if abs(vb - vf) > policy.pairing_tol * max(vb, vf) + sectors.resolution:
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
    """Compute the index by both formulas and anchor both on ``Tr K``.

    Formula one counts kernel dimensions of the extracted map A and of
    its adjoint, each by its own Gram reduction, so it stays independent
    of the sector spectra; it counts, and builds no kernel vectors.
    Formula two reads the zero-mode counts of the sector analysis shared
    with :func:`spectral_pairing_report`.  Both count at the one zero cut
    (the rule of the :class:`NumericPolicy` docstring); the sector count
    widens it by the block residuals, since a zero mode of A sits that
    far up in the user's blocks (:class:`_SectorAnalysis`).  ``Tr K = dim_b -
    dim_f``, read off A's shape, is the exact, threshold-free index: a
    formula that differs from it raises :class:`CrossCheckError`, never
    averaged away.
    The message names the formula that left ``Tr K`` (the Gram ranks of
    A and ``A^dag`` disagree, or the sectors hold different numbers of
    positive eigenvalues), gives its cut margins (the largest value
    counted as zero and the smallest counted as nonzero, each as a
    multiple of the cut) and how far each sector block of H is from
    ``A^dag A`` or ``A A^dag``.
    """
    sectors = _sector_analysis(system, policy)
    a_op = sectors.rep.a_operator
    dim_f, dim_b = a_op.shape
    trace_k = dim_b - dim_f
    # The Gram matrices' largest eigenvalue is that of the sectors, the
    # spectral radius of H, up to rounding.
    grams = [(name, _gram_split(op, policy, near=(sectors.radius,)))
             for name, op in (("A^dag A", a_op), ("A A^dag", _dagger(a_op)))]
    dim_ker_a, dim_ker_ad = (split[3] for _, split in grams)
    zeros_b, zeros_f = sectors.zeros_b, sectors.zeros_f
    via_a = dim_ker_a - dim_ker_ad
    via_blocks = zeros_b - zeros_f
    left = []
    if via_a != trace_k:
        left += [f"the Gram ranks of A and A^dag disagree ({dim_b - dim_ker_a} "
                 f"and {dim_f - dim_ker_ad})",
                 *(_gram_margins(name, split) for name, split in grams)]
    if via_blocks != trace_k:
        left += [f"the sectors hold different numbers of positive "
                 f"eigenvalues ({dim_b - zeros_b} and {dim_f - zeros_f})",
                 _cut_margins("sector", (("bosonic", sectors.ev_b),
                                         ("fermionic", sectors.ev_f)),
                              sectors.cut)]
    if left:
        raise CrossCheckError(
            f"index formulas disagree with Tr K = dim_b - dim_f = {dim_b} - "
            f"{dim_f} = {trace_k}: dim ker A - dim ker A^dag = {dim_ker_a} - "
            f"{dim_ker_ad} = {via_a}, sector zero-mode counts give {zeros_b} "
            f"- {zeros_f} = {via_blocks}; {'; '.join(left)}; "
            f"{_block_residuals(system, sectors.rep)}")
    return WittenIndexReport(dim_ker_a, dim_ker_ad, zeros_b, zeros_f, via_a, trace_k)


def _cut_margins(name: str, spectra, cut: float) -> str:
    """The margins of a zero cut over ``spectra``, ``(label, values)``
    pairs: the largest value counted as zero and the smallest counted as
    nonzero, each with its label and its ratio to the cut."""
    values = [(float(v), label) for label, ev in spectra for v in ev]
    zero = max((item for item in values if item[0] <= cut), default=None)
    nonzero = min((item for item in values if item[0] > cut), default=None)

    def margin(item) -> str:
        if item is None:
            return "none"
        return f"{item[1]} {item[0]:.3e}, {_relative(item[0], cut):.3g} times the cut"

    return (f"{name} zero cut {cut:.3e}: largest counted as zero "
            f"{margin(zero)}, smallest counted as nonzero {margin(nonzero)}")


def _gram_margins(name: str, split) -> str:
    """:func:`_cut_margins` of the Gram matrix ``a^dag a`` that formula
    one counted, from its split (:func:`spectral._gram_split`), at its
    zero cut, in the units of ``a^dag a``."""
    gram, _, cut, _, e = split
    return _cut_margins(name, ((name, np.ldexp(gram.eigenvalues(), 2 * e)),),
                        math.ldexp(cut, 2 * e))


def _block_residuals(system: GradedSystem, rep: StandardRepresentation) -> str:
    """How far each sector block of H is from ``A^dag A`` or ``A A^dag``
    relative to ``||H||``: formula one reads A, formula two the blocks."""
    norm_h = residual_norm(system.hamiltonian)
    off_plus, off_minus = (_relative(r, norm_h) for r in rep.block_residuals)
    return (f"||h_plus - A^dag A|| = {off_plus:.1e} ||H||, "
            f"||h_minus - A A^dag|| = {off_minus:.1e} ||H||")


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
    within ``hermiticity_tol`` raise :class:`ValidationError`.  Each
    kernel is :func:`kernel_basis`'s, at the zero cut ``c`` (the rule of
    the :class:`NumericPolicy` docstring), so a kernel vector of one
    charge is annihilated by it only to ``sqrt(c)`` times its largest
    singular value.  The annihilation threshold is therefore ``sqrt(c)``
    times the other charge's Frobenius norm, plus a slack term
    ``sqrt(||Q1^2 - Q2^2||)`` accounting for the precondition residual,
    exactly as the norm identity dictates.

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
    # In units of 2**2e; the slack sqrt(||Q1^2 - Q2^2||) is then 2**e.
    pre = residual_norm(h1 - h2)
    relative = _relative(pre, max(residual_norm(h1), residual_norm(h2)))
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
    root_cut = math.sqrt(_zero_cut(policy, len(a)))
    residuals = []
    for name, kb, other, op, op_s in (("Q1", kb1, "Q2", b, b_s),
                                      ("Q2", kb2, "Q1", a, a_s)):
        threshold = root_cut * residual_norm(op) + slack
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
