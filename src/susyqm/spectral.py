"""Self-contained Hermitian eigensolvers, numerical kernels, pseudo-inverse.

Two paths, neither of which calls LAPACK:

* Jacobi serves only the public :func:`eigh` and :func:`eigvalsh`:
  cyclic sweeps of 2x2 unitary rotations, run until the off-diagonal
  Frobenius norm drops below ``eigensolver_tol * ||A||``.  The matrix
  is first scaled by a power of two, so entries far from one neither
  overflow nor underflow, and worked in float64 when every imaginary
  part is exactly zero (``core._real_if_exact``'s decision), in
  complex128 otherwise: ``_scaled_hermitian_part``, the one prologue
  of both paths and the pseudo-inverse.  Jacobi was chosen over QR
  iteration because it is simple to verify, unconditionally convergent
  on Hermitian input and accurate enough at the desk-scale dimensions
  this package targets.
* Sector spectra (each sector of an analysis in :mod:`susyqm.analysis`,
  read by both reports and the ``spectrum`` verb), counts below a cutoff
  and kernel vectors (:func:`kernel_basis`) come from a Householder
  reduction to a real symmetric tridiagonal matrix (none when the input
  is tridiagonal already, as lattice sectors are).  The reduction, and
  the Gram product in front of it, run in that same float64 or
  complex128 arithmetic; each column updates the trailing block by one
  rank-2 product.  Eigenvalues at or below ``x`` are
  counted from the inertia of ``T - x = L D L^T`` (Sturm count, with
  LAPACK ``dstebz``'s guard against zero pivots, written once: a count
  at many shifts runs unguarded, one test of its smallest pivot
  magnitude tells whether the guard would fire anywhere, and only then
  are the shifts where it would recounted).  Each eigenvalue is
  bisected on that count over float keys until its bracket closes on
  adjacent floats; a whole spectrum cuts all brackets together with
  one count of every inner point per round (multisection; Demmel,
  Marques, Parlett & Voemel, SIAM J. Sci. Comput. 30 (2008) 1508).  The
  eigenvalues that share a bracket share its cut, and the distinct open
  brackets of a round split ``dim * (K - 1)`` inner points evenly,
  ``K`` the power of two nearest ``1024 / dim`` within ``[2, 64]``, so
  no bracket gets fewer than ``K`` parts and at most ``ceil(64 / log2
  K)`` rounds run; a lone bracket holding one eigenvalue is finished by
  scalar bisection.  Brackets start from the Gershgorin bracket,
  narrowed by one count at the seeds of any reference values given
  (below).  The count is monotone in the shift in floating point, so
  both return the same floats bit for bit, seeded or not.  Kernel
  vectors come from a few steps of inverse iteration on the tridiagonal
  from a fixed-seed start block, so the output is byte-deterministic;
  each step solves with the unpivoted ``T = L D L^T`` factorization,
  which needs positive semidefinite input (a Gram matrix).  No
  eigenvector matrix is formed, and no tolerance is involved.

A caller of the tridiagonal path passes reference values ``near`` in
its own units, and one rule turns each finite value into four seeds:
the value moved ``K / 2`` floats to either side, and moved to either
side by the Gram floor ``2 m eps`` times the largest magnitude in
``near``, ``m = max(dim, len(near))``.  The sector analysis of
:mod:`susyqm.analysis` passes the spectrum of one sector for the other.
A partner within ``K / 2`` floats (98 of the 100 on a C07 lattice sit
within one) closes in the first round after the seeds; one further out
but inside the Gram floor starts from a bracket of that width.  The
index report passes the spectral radius of H for the largest eigenvalue
of each Gram matrix, which equals it up to rounding.  Seeds decide
only where the brackets start, never the floats they close on.

The pseudo-inverse (:func:`inverse_on_complement`) takes its kernel
columns ``N`` and the spectral radius ``r`` from :func:`kernel_basis`'s
tridiagonal split, inverts ``Q + r N N^dag`` by Gaussian elimination
with partial pivoting and subtracts ``N N^dag / r``.

The grading basis (:func:`susyqm.grading.grading_basis`) takes neither
path: ``K^2 = 1`` gives its sectors as projector ranges, with no
eigensolver.

The Jacobi sweeps run in one kernel, ``susyqm._jacobi_py``, which
recombines rows and mirrors columns with numpy; ``jacobi_backend()``
names it.  It is looked up as ``_kernel.jacobi_sweeps`` at every call,
so ``perfbench/tracer.py`` can wrap it.

What counts as zero is decided by one relative cut, :func:`_zero_cut`,
the rule the :class:`~susyqm.core.NumericPolicy` docstring states.
:func:`kernel_basis`, the pseudo-inverse and every count of
:mod:`susyqm.analysis` read it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _jacobi_py as _kernel
from .core import (
    DEFAULT_POLICY,
    ConvergenceError,
    NumericPolicy,
    ShapeError,
    _binary_exponent,
    _dagger,
    _ldexp,
    _real_if_exact,
    _require_hermitian,
    _require_int,
    _require_numbers,
    adjoint,
    frozen_copy,
    residual_norm,
)

__all__ = [
    "EigenDecomposition",
    "KernelBasis",
    "eigh",
    "eigvalsh",
    "inverse_on_complement",
    "jacobi_backend",
    "kernel_basis",
]

DEFAULT_MAX_SWEEPS = 100


def jacobi_backend() -> str:
    """Name of the Jacobi sweep kernel, always ``"python"``: the numpy
    kernel in ``susyqm._jacobi_py`` is the only one."""
    return "python"


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


def _scaled_hermitian_part(a) -> tuple[np.ndarray, int]:
    """``(work, e)``: the exactly Hermitian part of ``a * 2**-e`` (a new
    contiguous matrix with a real diagonal), ``e`` the
    :func:`_binary_exponent` of ``a``, so squared entries neither
    overflow nor underflow.  ``work`` is float64 when every imaginary
    part of ``a`` is exactly zero (:func:`_work_array`), complex128
    otherwise; both eigen-paths and the pseudo-inverse read it."""
    a = _work_array(a)
    e = _binary_exponent(a)
    work = _ldexp(a, -e)
    return np.ascontiguousarray(0.5 * (work + _dagger(work))), e


def _work_array(a) -> np.ndarray:
    """``a`` as float64 when every imaginary part is exactly zero
    (:func:`core._real_if_exact`'s decision), else as complex128."""
    [arr] = _real_if_exact(np.asarray(a))
    return arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64,
                      copy=False)


def _diagonalize(a: np.ndarray, policy: NumericPolicy, max_sweeps: int,
                 track_vectors: bool):
    if _require_int(max_sweeps, "max_sweeps") < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps}")
    # Rotations are invariant under the scaling: no bit changes within 1e+-154.
    work, e = _scaled_hermitian_part(a)
    n = work.shape[0]
    tol_off = policy.eigensolver_tol * residual_norm(work)
    vt = np.eye(n if track_vectors else 1, dtype=work.dtype)
    sweeps, off = _kernel.jacobi_sweeps(work, vt, tol_off, max_sweeps,
                                        track_vectors)
    if off > tol_off:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge after {sweeps} sweeps: "
            f"off-diagonal norm {np.ldexp(off, e):.3e} above target "
            f"{np.ldexp(tol_off, e):.3e}"
        )
    w = np.ldexp(np.diagonal(work).real, e)
    order = np.argsort(w, kind="stable")
    if not track_vectors:
        return w[order], None
    # The kernels accumulate the adjoint of the eigenvector matrix.
    return w[order], adjoint(vt)[:, order]


def eigh(a, policy: NumericPolicy = DEFAULT_POLICY,
         max_sweeps: int = DEFAULT_MAX_SWEEPS) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises :class:`ValidationError` on non-Hermitian input and
    :class:`ConvergenceError` if ``max_sweeps`` cyclic sweeps do not
    reach the off-diagonal target; ``max_sweeps`` must be a nonnegative
    integer.
    """
    [arr] = _require_hermitian((("A", a),), policy,
                               "eigh requires a Hermitian matrix")
    w, v = _diagonalize(arr, policy, max_sweeps, track_vectors=True)
    return EigenDecomposition(frozen_copy(w), frozen_copy(v))


def eigvalsh(a, policy: NumericPolicy = DEFAULT_POLICY,
             max_sweeps: int = DEFAULT_MAX_SWEEPS) -> np.ndarray:
    """Eigenvalues only; skips accumulating the rotation product."""
    [arr] = _require_hermitian((("A", a),), policy,
                               "eigvalsh requires a Hermitian matrix")
    w, _ = _diagonalize(arr, policy, max_sweeps, track_vectors=False)
    return w


# ---------------------------------------------------------------------------
# tridiagonal path: counts below a cutoff, extreme eigenvalues, kernels

_EPS = float(np.finfo(np.float64).eps)
_SAFMIN = float(np.finfo(np.float64).tiny)
# Inverse-iteration solves per kernel basis.  Kernel eigenvalues sit at
# or below the cutoff and the rest above it, so each solve shrinks the
# non-kernel part of the block by their ratio.
_INVERSE_ITERATIONS = 3
_START_SEED = 20240117


_SIGN_BIT = 1 << 63


def _float_key(x: float) -> int:
    """The float key of ``x``: an integer in ``[0, 2**64)`` that orders
    like ``x`` and steps by one between adjacent floats, ``2**63`` for
    both zeros.  Multisection cuts brackets of keys in uint64, where
    ``lo + step`` with ``step <= hi - lo`` cannot overflow."""
    bits = struct.unpack("<Q", struct.pack("<d", x))[0]
    return bits | _SIGN_BIT if bits < _SIGN_BIT else (1 << 64) - bits


def _key_float(key: int) -> float:
    """The float of a float key, the inverse of :func:`_float_key`."""
    bits = key - _SIGN_BIT if key >= _SIGN_BIT else (_SIGN_BIT - key) | _SIGN_BIT
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _float_keys(x: np.ndarray) -> np.ndarray:
    """The vector form of :func:`_float_key`, for float64 ``x``."""
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    return np.where(bits < _SIGN_BIT, bits | _SIGN_BIT, np.uint64(0) - bits)


def _floats_apart(x: np.ndarray, steps: int) -> np.ndarray:
    """Each float of ``x`` moved ``steps`` floats up the float ordering
    (down for negative ``steps``); past the largest float lies ``inf``,
    then NaN."""
    keys = _float_keys(x)
    return _key_floats(keys + np.uint64(steps) if steps >= 0
                       else keys - np.uint64(-steps))


def _key_floats(keys: np.ndarray) -> np.ndarray:
    """The vector form of :func:`_key_float`, for uint64 keys."""
    bits = np.where(keys >= _SIGN_BIT, keys - _SIGN_BIT,
                    (_SIGN_BIT - keys) | _SIGN_BIT)
    return bits.view(np.float64)


class _Tridiagonal:
    """Real symmetric tridiagonal ``T`` unitarily similar to a Hermitian
    matrix ``a``: ``a = s Q P T P^dag Q^dag`` with ``Q`` a product of
    Householder reflectors, ``P`` a diagonal of phases that makes the
    subdiagonal real and nonnegative, and ``s = 2**e`` a power of two
    that puts the largest entry of ``T`` near one, so squares neither
    overflow nor underflow.  Scaling by a power of two is exact;
    eigenvalues are taken and returned in the units of ``a``.

    When every imaginary part of ``a`` is exactly zero the reduction
    runs in float64, so ``Q`` is real orthogonal and ``P`` a diagonal of
    signs; otherwise in complex128.  Column ``k`` updates the trailing
    block by ``I - beta v v^dag`` on both sides as ``block -= v w^dag +
    w v^dag``, one product of the ``(m, 2)`` matrix ``[v w]`` with the
    ``(2, m)`` matrix ``[w v]^dag`` (the rank-2 update of Dongarra,
    Hammarling & Sorensen, J. Comput. Appl. Math. 27 (1989) 215, one
    column at a time).  On tridiagonal input, as lattice sectors are,
    no column is reduced and ``d``, ``e`` are the same bits on either
    path.
    """

    def __init__(self, a: np.ndarray):
        work, self._exp = _scaled_hermitian_part(a)
        n = work.shape[0]
        sub = np.diagonal(work, -1).copy()
        self._reflectors = []
        # Every column overwrites its entry of sub, except that on
        # tridiagonal input each takes the tail_sq == 0 branch, which
        # keeps it: then the loop is skipped.  work is exactly Hermitian,
        # so its nonzero entries tell (counting them copies nothing; a
        # copy of the lower triangle raised a lattice analysis's peak
        # memory).
        band = (np.count_nonzero(np.diagonal(work))
                + 2 * np.count_nonzero(sub))
        # v and w of each column, rows 0 and 1, so the two-sided update
        # is one rank-2 product.
        vw_buf = np.empty((2, max(n - 1, 0)), dtype=work.dtype)
        for k in range(n - 1 if np.count_nonzero(work) > band else 0):
            x = work[k + 1:, k]
            tail_sq = float(np.vdot(x[1:], x[1:]).real)
            if tail_sq == 0.0:
                sub[k] = x[0]
                continue
            # A Python float on the float64 path, so the phase stays real.
            alpha = x[0].item()
            norm = math.sqrt(abs(alpha) ** 2 + tail_sq)
            phase = alpha / abs(alpha) if alpha != 0 else 1.0
            vw = vw_buf[:, k:]
            v = vw[0]
            v[...] = x
            v[0] += phase * norm
            beta = 2.0 / float(np.vdot(v, v).real)
            # Two-sided update of the trailing block by I - beta v v^dag:
            # block -= v w^dag + w v^dag.
            block = work[k + 1:, k + 1:]
            p = beta * (block @ v)
            np.subtract(p, (0.5 * beta * float(np.vdot(v, p).real)) * v, out=vw[1])
            block -= vw.T @ vw[::-1].conj()
            sub[k] = -phase * norm
            self._reflectors.append((k + 1, v.copy(), beta))
        self.n = n
        # K, the fewest parts a multisection round cuts a bracket into:
        # the power of two nearest 1024 / n, within [2, 64].
        self.parts = 2 ** min(max(round(math.log2(1024 / max(n, 1))), 1), 6)
        self._d = np.diagonal(work).real.copy()
        self._e = np.abs(sub)
        phases = np.ones(n, dtype=work.dtype)
        for k, c in enumerate(sub):
            if abs(c) < _SAFMIN:
                # numpy divides by multiplying with the reciprocal, which
                # overflows for a subnormal |c|; scaling by 2**54 is exact.
                c = c * 2.0**54
            phases[k + 1] = phases[k] * (c / abs(c) if c != 0 else 1.0)
        self._phases = phases
        e2 = (self._e * self._e).tolist()
        # dstebz's pivot guard: a pivot smaller than this is taken as
        # -pivmin, so an eigenvalue exactly at x counts as at or below it.
        self._pivmin = _SAFMIN * max([1.0] + e2)
        self._rows = list(zip(self._d.tolist(), [0.0] + e2))
        radii = np.zeros(n)
        radii[1:] += self._e
        radii[:-1] += self._e
        lo = float((self._d - radii).min(initial=0.0))
        hi = float((self._d + radii).max(initial=0.0))
        pad = 2.1 * n * _EPS * max(abs(lo), abs(hi)) + 4.2 * self._pivmin
        self._bracket = (lo - pad, hi + pad)

    def count(self, x: float) -> int:
        """Number of eigenvalues at or below ``x``."""
        return self._below(float(np.ldexp(x, -self._exp)))

    def _below(self, x: float) -> int:
        """Number of eigenvalues of ``T`` at or below ``x``: the negative
        pivots of ``T - x = L D L^T``, a pivot within ``pivmin`` of zero
        counting as negative."""
        pivmin = self._pivmin
        below = 0
        q = 1.0
        for dj, e2 in self._rows:
            q = dj - e2 / q - x
            if abs(q) < pivmin:
                q = -pivmin
            if q <= 0.0:
                below += 1
        return below

    def _counts(self, xs: np.ndarray) -> np.ndarray:
        """:meth:`_below` at every shift in ``xs`` at once.

        One unguarded :meth:`_pivots` pass counts every shift, then one
        test of the smallest pivot magnitude tells whether the guard
        would have fired anywhere (a pivot below ``pivmin`` in magnitude,
        or NaN after one, which fails the test too).  Only then are the
        shifts where it would found, and only those are recounted, by
        :meth:`_below`.  Up to the first guarded row the two recurrences
        are the same arithmetic, so each count is the one :meth:`_below`
        gives."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            pivots = self._pivots(xs)
        counts = np.count_nonzero(pivots <= 0.0, axis=0)
        # False on a NaN pivot; inf on no pivots at all.
        if not np.abs(pivots, out=pivots).min(initial=math.inf) >= self._pivmin:
            guarded = ~(pivots >= self._pivmin).all(axis=0)
            counts[guarded] = [self._below(x) for x in xs[guarded].tolist()]
        return counts

    def _pivots(self, xs: np.ndarray) -> np.ndarray:
        """The pivots of ``T - x = L D L^T`` for every shift in ``xs``,
        one row of ``T`` at a time across all shifts (a column per
        shift), unguarded: a zero pivot makes the next one inf or NaN."""
        pivots = np.empty((self.n, len(xs)))
        q = np.ones_like(xs)
        for row, (dj, e2) in zip(pivots, self._array_rows):
            np.divide(e2, q, out=row)
            np.subtract(dj, row, out=row)
            np.subtract(row, xs, out=row)
            q = row
        return pivots

    @functools.cached_property
    def _array_rows(self) -> list:
        """:attr:`_rows` as 0-d float64 arrays, which numpy's ufuncs take
        without converting a Python float on every call (same bits)."""
        return [(np.array(dj), np.array(e2)) for dj, e2 in self._rows]

    def _unscale(self, x):
        """A bisected eigenvalue of ``T`` in the units of ``a``.  An exactly
        zero eigenvalue comes out within ``pivmin`` of zero (the count
        includes it for every shift in ``(-pivmin, pivmin)``) and is
        returned as ``0.0``."""
        return np.ldexp(np.where(np.abs(x) <= self._pivmin, 0.0, x), self._exp)

    def eigenvalue(self, k: int, near=()) -> float:
        """The ``k``-th smallest eigenvalue (from 0): the smallest float
        ``x`` with more than ``k`` eigenvalues at or below it, bisected
        over the float ordering until the bracket holds two adjacent
        floats.  The bracket starts as the Gershgorin bracket, narrowed
        by one count at each seed of ``near`` strictly inside it
        (reference values in the units of ``a``, as for
        :meth:`eigenvalues`), ascending, up to the first that counts more
        than ``k``.  The count is monotone in the shift, so the seeds
        change only the number of counts, never the float."""
        lo, hi = (_float_key(b) for b in self._bracket)
        for key in self._seed_keys(near, lo, hi).tolist():
            if self._below(_key_float(key)) > k:
                hi = key
                break
            lo = key
        return float(self._unscale(_key_float(self._bisect(lo, hi, k))))

    def _bisect(self, lo: int, hi: int, k: int) -> int:
        """The high end of the bracket of float keys ``lo < hi`` that
        holds the ``k``-th eigenvalue, bisected on :meth:`_below` until
        it holds two adjacent floats."""
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._below(_key_float(mid)) > k:
                hi = mid
            else:
                lo = mid
        return hi

    def eigenvalues(self, near=()) -> np.ndarray:
        """All eigenvalues, ascending: :meth:`eigenvalue` for every ``k``,
        bit for bit, whatever ``near``.

        The unit of work is a bracket: two float keys with their Sturm
        counts, holding the ``k`` from the low count up to below the high
        one.  It starts as the Gershgorin bracket, with counts ``0`` and
        ``n``.  The seeds of ``near`` (reference values in the units of
        ``a``, any number, in any order; see :meth:`_seed_keys`) only
        narrow that start: one count at the seeds strictly inside it
        splits it at every seed.  Reference values near the eigenvalues
        (the partner sector's spectrum, in :mod:`susyqm.analysis`) save
        rounds; any others cost one pass.

        Then every round cuts each open bracket into ``budget // u + 1``
        near-equal parts over the float ordering, ``u`` the number of
        open brackets and ``budget = n * (K - 1)``, makes one Sturm count
        at all inner points of all of them, and keeps the parts whose
        count rises, each holding the ``k`` it passes.  ``K`` is the
        power of two nearest ``1024 / n``, within ``[2, 64]``, so no
        bracket is cut into fewer than ``K`` parts, at most ``ceil(64 /
        log2 K)`` rounds run, and a round counts at most ``n * (K - 1)``
        shifts; a lone straggler gets them all.  A bracket closes once
        it holds two adjacent floats, and its high end is the eigenvalue
        of each of its ``k``.  The Sturm count is monotone in the shift
        in floating point (Demmel, Dhillon & Ren, ETNA 3 (1995) 116), so
        every bracketing that closes on adjacent floats closes on the
        same pair: the start and the cuts change only the number of
        rounds.

        Once the only open bracket holds a single eigenvalue, it is
        finished by scalar bisection (:meth:`_bisect`), which closes on
        the same pair: one :meth:`_below` call yields a bit for the cost
        of ``n`` scalar steps, where a round of ``n * (K - 1)`` shifts
        yields ``log2 (n * (K - 1) + 1)`` bits for ``n`` numpy calls of
        that length (at dim 101, about 8 us a bit against 0.37 ms for
        9.5 bits).  A one-by-one matrix takes that path from the start."""
        n = self.n
        budget = n * (self.parts - 1)
        keys = np.array([[_float_key(b)] for b in self._bracket], dtype=np.uint64)
        counts = np.array([[0], [n]])
        inside = self._seed_keys(near, keys[0], keys[1])
        if inside.size:
            keys, counts = self._split(
                np.concatenate([keys[:1], inside[:, None], keys[1:]]), counts)
        high_end = np.empty(n, dtype=np.uint64)
        starts = np.zeros(n, dtype=np.intp)
        while True:
            shut = keys[1] - keys[0] <= 1
            if shut.any():
                lows = counts[0, shut]
                high_end[lows] = keys[1, shut]
                starts[lows] = lows
                keys, counts = keys[:, ~shut], counts[:, ~shut]
            if not keys.size:
                break
            if keys.shape[1] == 1 and counts[1, 0] - counts[0, 0] == 1:
                k = int(counts[0, 0])
                high_end[k] = self._bisect(int(keys[0, 0]), int(keys[1, 0]), k)
                starts[k] = k
                break
            parts = budget // keys.shape[1] + 1
            lo, width = keys[0], keys[1] - keys[0]
            # lo + q j + floor(r j / parts) for width = q parts + r:
            # within the bracket, so no step can overflow.
            q, r = np.divmod(width, np.uint64(parts))
            steps = np.arange(parts + 1, dtype=np.uint64)[:, None]
            keys, counts = self._split(
                lo + q * steps + r * steps // np.uint64(parts), counts)
        # Closed brackets tile 0..n-1 by their counts: each k takes the
        # high end of the one with the largest low count at or below k.
        return self._unscale(_key_floats(high_end[np.maximum.accumulate(starts)]))

    def _seed_keys(self, near, bottom, top) -> np.ndarray:
        """The float keys of the seeds of ``near``, scaled to the units of
        ``T``, that lie strictly between the keys ``bottom`` and ``top``,
        ascending.  Each finite reference value ``x`` (in the units of
        ``a``; the non-finite ones are dropped) gives four seeds: ``x``
        moved ``K / 2`` floats to either side, and ``x`` moved to either
        side by the Gram floor of ``max(n, len(near))`` times the largest
        magnitude in ``near`` (see the module docstring).  Duplicates
        stay: the part between two equal keys holds no eigenvalue, so
        :meth:`_split` drops it."""
        near = np.asarray(near, dtype=np.float64).ravel()
        near = near[np.isfinite(near)]
        half = self.parts // 2
        # Past the largest float lie inf and NaN: dropped below.
        with np.errstate(over="ignore", invalid="ignore"):
            pad = _gram_floor(max(self.n, len(near))) * float(
                np.abs(near).max(initial=0.0))
            x = np.ldexp(np.concatenate([
                near - pad, _floats_apart(near, -half),
                _floats_apart(near, half), near + pad]), -self._exp)
        keys = np.sort(_float_keys(x[np.isfinite(x)]))
        return keys[(keys > bottom) & (keys < top)]

    def _split(self, keys: np.ndarray, ends: np.ndarray):
        """Brackets split at inner points: column ``i`` of ``keys`` is
        bracket ``i``'s low end, its ascending inner points and its high
        end, and ``ends[:, i]`` the counts at both ends.  One Sturm count
        at every inner point; the parts whose count rises are the new
        brackets, ``(keys, counts)`` with both ends in rows 0 and 1, in
        no particular order."""
        counts = np.empty(keys.shape, dtype=np.intp)
        counts[0], counts[-1] = ends
        counts[1:-1] = self._counts(
            _key_floats(keys[1:-1].ravel())).reshape(counts[1:-1].shape)
        rises = counts[1:] > counts[:-1]
        return (np.array([keys[:-1][rises], keys[1:][rises]]),
                np.array([counts[:-1][rises], counts[1:][rises]]))

    def lowest_vectors(self, m: int, lam_max: float) -> np.ndarray:
        """Orthonormal columns spanning the eigenvectors of ``a`` for its
        ``m`` eigenvalues of smallest magnitude, by inverse iteration at
        shift zero; ``lam_max`` is the largest eigenvalue magnitude.

        ``a`` must be positive semidefinite (:func:`kernel_basis` passes a
        Gram matrix).  Each step solves with ``T = L D L^T``, unpivoted:
        in a semidefinite tridiagonal a tiny pivot ``q_j`` forces a tiny
        next coupling, ``e_j^2 <= q_j T_{j+1,j+1}``, so the factors
        cannot grow."""
        n = self.n
        if m == n:
            return np.eye(n, dtype=self._phases.dtype)
        if m == 0:
            return np.zeros((n, 0), dtype=self._phases.dtype)
        unit = math.ldexp(lam_max, -self._exp) if lam_max > 0.0 else 1.0
        e = (self._e / unit).tolist()
        # The pivots of T / unit = L D L^T, :meth:`_below`'s recurrence at
        # x = 0.  A pivot below eps in magnitude (eps * lam_max before
        # scaling) is replaced by +-eps, so an exactly singular T factors.
        q = []
        qj = 1.0
        for dj, e_prev in zip((self._d / unit).tolist(), [0.0] + e):
            qj = dj - e_prev * e_prev / qj
            if abs(qj) < _EPS:
                qj = math.copysign(_EPS, qj)
            q.append(qj)
        ell = [ej / qj for ej, qj in zip(e, q)]
        z = np.random.default_rng(_START_SEED).standard_normal((n, m))
        for _ in range(_INVERSE_ITERATIONS):
            z = _orthonormal_columns(_ldl_solve(q, ell, z))
        x = self._phases[:, None] * z
        for k, v, beta in reversed(self._reflectors):
            x[k:] -= np.outer(beta * v, v.conj() @ x[k:])
        return x


def _ldl_solve(q: list, ell: list, b: np.ndarray) -> np.ndarray:
    """Solve ``L D L^T x = b`` for the columns of ``b``, with ``D`` the
    pivots ``q`` and ``L`` unit lower bidiagonal with subdiagonal ``ell``."""
    x = np.array(b, dtype=np.float64)
    for j in range(1, len(q)):
        x[j] -= ell[j - 1] * x[j - 1]
    x /= np.array(q)[:, None]
    for j in range(len(q) - 2, -1, -1):
        x[j] -= ell[j] * x[j + 1]
    return x


def _orthonormal_columns(z: np.ndarray) -> np.ndarray:
    """Two-pass classical Gram-Schmidt on the real or complex columns of
    ``z``: each column is scaled by its largest magnitude, then loses its
    projection ``Q Q^dag col`` on the columns already done twice ("twice
    is enough": Giraud, Langou & Rozloznik, Comput. Math. Appl. 50 (2005)
    1069), then is divided by ``sqrt(Re col^dag col)``.

    ``Q^dag col`` is formed as ``(col^dag Q)^dag``, which copies no block
    of ``Q``; on real input ``conj()`` returns the array itself, so real
    columns make no copy and stay real."""
    q = np.empty_like(z)
    for j in range(z.shape[1]):
        q[:, j] = _orthonormalized(z[:, j], q[:, :j])
    return q


def _orthonormalized(col: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One step of :func:`_orthonormal_columns`: ``col`` scaled by its
    largest magnitude, orthogonalized twice against the orthonormal
    columns of ``q`` and divided by ``sqrt(Re col^dag col)``."""
    col = col / np.abs(col).max()
    for _ in range(2):
        col = col - q @ (col.conj() @ q).conj()
    return col / math.sqrt(float((col.conj() @ col).real))


def kernel_basis(a, policy: NumericPolicy = DEFAULT_POLICY) -> KernelBasis:
    """Orthonormal basis of the numerical kernel of ``a``.

    Accepts rectangular input; works on the Hermitian Gram matrix
    ``a^dag a``.  A direction counts as kernel when its eigenvalue of
    ``a^dag a`` is at or below the zero cut (:func:`_zero_cut`, the rule
    of the :class:`~susyqm.core.NumericPolicy` docstring) times the
    largest one (for the zero matrix the kernel is the whole domain).
    The cut never drops below the Gram floor ``2 * dim * eps``, which the
    product's rounding cannot resolve; otherwise rounding would randomly
    evict exact kernel directions.

    The Gram matrix goes down the tridiagonal path, not through
    :func:`eigh`: its largest eigenvalue is bisected, the eigenvalues at
    or below the cutoff are counted, and only that many vectors are
    computed, by inverse iteration with the ``L D L^T`` factorization of
    the tridiagonal, which is unpivoted because a Gram matrix is positive
    semidefinite.  The basis is deterministic, but it
    is one orthonormal basis of the kernel among many; compare kernels
    by their projectors.  Real input is reduced in float64; the basis
    is complex128 either way.
    """
    arr = _require_numbers(a, "kernel_basis input")
    if arr.ndim != 2:
        raise ShapeError(f"kernel_basis expects a matrix, got ndim={arr.ndim}")
    gram, lam_max, _, dim, _ = _gram_split(arr, policy)
    return KernelBasis(dim, frozen_copy(
        gram.lowest_vectors(dim, lam_max).astype(np.complex128, copy=False)))


def _gram_split(a: np.ndarray, policy: NumericPolicy, near=()):
    """:func:`kernel_basis`'s split of the matrix ``a``, ``(gram, lam_max,
    cut, dim, e)``.  ``a`` is cast to float64 or complex128
    (:func:`_work_array`) and scaled by ``2**-e``, ``e`` its
    :func:`_binary_exponent`, so that its Gram matrix cannot overflow;
    the cut is relative, so the split does not depend on the scale.
    ``gram`` is the tridiagonal of the Gram matrix of the scaled ``a``,
    ``lam_max`` its largest eigenvalue (the square of the largest
    singular value), ``cut = _zero_cut(policy, max(a.shape)) * lam_max``
    the zero cut and ``dim`` the number of its eigenvalues at or below
    the cut, the kernel dimension; ``lam_max`` and ``cut`` are in the
    units of ``gram``, ``2**-2e`` times those of ``a^dag a``.  ``near``
    holds reference values for the largest eigenvalue of ``a^dag a``, in
    its units, which seed its bisection (:meth:`_Tridiagonal.eigenvalue`)
    and never change its float."""
    arr = _work_array(a)
    e = _binary_exponent(arr)
    arr = _ldexp(arr, -e)
    gram = _Tridiagonal(_dagger(arr) @ arr)
    with np.errstate(over="ignore", under="ignore"):
        near = np.ldexp(np.asarray(near, dtype=np.float64), -2 * e)
    lam_max = max(gram.eigenvalue(gram.n - 1, near), 0.0)
    cut = _zero_cut(policy, max(arr.shape)) * lam_max
    return gram, lam_max, cut, gram.count(cut), e


def _gram_floor(dim: int) -> float:
    """``2 * dim * eps``, the Gram floor: relative to the largest
    eigenvalue of a ``dim``-dimensional Gram product, the rounding below
    which none of its eigenvalues is resolved."""
    return 2.0 * dim * _EPS


def _zero_cut(policy: NumericPolicy, dim: int) -> float:
    """The zero cut, ``max(kernel_tol**2, 2 * dim * eps)``, the one rule
    for what counts as zero (see the :class:`NumericPolicy` docstring):
    relative to the largest eigenvalue of a Gram product ``A^dag A``,
    ``dim = max(A.shape)``, an eigenvalue at or below it is zero.  With
    the default policy ``kernel_tol**2 = 1e-16`` lies below the Gram
    floor (:func:`_gram_floor`) at every ``dim``, so the default cut is
    always the floor.  Nothing else in the package reads
    ``kernel_tol``."""
    return max(policy.kernel_tol**2, _gram_floor(dim))


def _pivoted_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular square matrix by Gaussian elimination
    with partial pivoting (backward stable in practice; Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 9), in
    ``a``'s dtype.  Elimination runs on the augmented ``[LU | X]``, ``X``
    starting as the identity: one row swap and one rank-1 update per
    step, elementwise the arithmetic of updating ``LU`` and ``X`` apart."""
    n = a.shape[0]
    aug = np.zeros((n, 2 * n), dtype=a.dtype)
    aug[:, :n] = a
    aug[:, n:] = np.eye(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(aug[k:, k])))
        aug[[k, p]] = aug[[p, k]]
        f = aug[k + 1:, k] / aug[k, k]
        aug[k + 1:, k:] -= np.outer(f, aug[k, k:])
    lu, x = aug[:, :n], aug[:, n:]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


def _pinv_and_kernel(a: np.ndarray, policy: NumericPolicy):
    """Pseudo-inverse of a Hermitian matrix and the orthonormal columns
    ``N`` spanning its numerical kernel, with no eigendecomposition.

    The kernel is :func:`kernel_basis`'s, at the zero cut
    (:func:`_zero_cut`, the rule of the :class:`~susyqm.core.NumericPolicy`
    docstring) relative to the spectral radius ``r``.  Sharing that
    split keeps borderline eigenvalues from being classified differently
    by the two results.  Shifting the kernel to ``r`` makes the matrix
    invertible, ``Q^+ = (Q + r N N^dag)^-1 - N N^dag / r``, and the
    inverse comes from Gaussian elimination with partial pivoting; its
    condition is at most the reciprocal of the cut.  The zero matrix
    gives zeros and an identity kernel.  Real input is worked in float64 throughout; both
    results are complex128 either way.
    """
    work, e = _scaled_hermitian_part(a)
    gram, lam_max, _, dim, e_work = _gram_split(work, policy)
    kernel = gram.lowest_vectors(dim, lam_max)
    n = work.shape[0]
    if kernel.shape[1] == n:
        pinv = np.zeros((n, n))
    else:
        r = math.ldexp(math.sqrt(lam_max), e_work)
        proj = kernel @ _dagger(kernel)
        pinv = _pivoted_inverse(work + r * proj) - proj / r
        pinv = _ldexp(0.5 * (pinv + _dagger(pinv)), -e)
    return pinv.astype(np.complex128), kernel.astype(np.complex128)


def inverse_on_complement(q, policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Pseudo-inverse of a Hermitian matrix, zero on its numerical kernel.

    Eigenvalues above the zero cut (:func:`kernel_basis`'s, the rule of
    the :class:`~susyqm.core.NumericPolicy` docstring) are reciprocated,
    the rest are dropped, so ``Q^+ Q`` is the orthogonal projector onto
    the complement of the kernel.
    """
    [arr] = _require_hermitian((("A", q),), policy,
                               "inverse_on_complement requires a Hermitian matrix")
    return _pinv_and_kernel(arr, policy)[0]
