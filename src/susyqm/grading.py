"""Z2 grading machinery induced by an involution K.

A valid involution is Hermitian, squares to the identity and is not
``+1`` or ``-1``, so both the bosonic (+1) and fermionic (-1) eigensectors
are non-trivial.  Everything else here follows from K alone: projectors,
even/odd splitting of vectors and operators, and the change of basis to
the standard block form ``diag(1, -1)``.

Every lattice model grades by a signed permutation, one nonzero of
modulus one per row.  The relations of K and the blocks in a diagonal
K's basis are then formed by gathers and slices instead of dense matrix
products, with the dense products' residuals and blocks bit for bit;
the structure is read from the matrices on every call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    NumericPolicy,
    RelationCheck,
    ShapeError,
    ValidationError,
    _as_operators,
    _dagger,
    _hermiticity_residual,
    _raise_failures,
    _relative,
    _require_hermitian,
    _require_numbers,
    as_operator,
    frozen_copy,
    residual_norm,
)
from .spectral import _orthonormalized

__all__ = [
    "GradingBasis",
    "Involution",
    "Parity",
    "block_extract",
    "classify_operator",
    "decompose_vector",
    "grading_basis",
    "projectors",
    "validate_involution",
]

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class Involution:
    """Validated grading operator; build via :func:`validate_involution`."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class GradingBasis:
    """Unitary whose columns list the +1 sector first, then the -1 sector."""

    unitary: np.ndarray
    dim_bosonic: int
    dim_fermionic: int

    @property
    def dim(self) -> int:
        return self.dim_bosonic + self.dim_fermionic


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


def involution_checks(k, policy: NumericPolicy = DEFAULT_POLICY) -> list[RelationCheck]:
    """Residuals of the involution relations (K self-adjoint,
    ``K^2 = 1``, ``K != +1``, ``K != -1``); the system validators read
    the same checks through :func:`_involution_checks`.

    ``K^2`` is formed by :func:`_grading_products`, so a signed-permutation
    K squares by a gather, with the dense product's residual bit for bit.
    """
    arr = as_operator(k, "K")
    return _involution_checks(arr, _grading_products(arr)[0], policy)


def _involution_checks(arr: np.ndarray, k_times, policy: NumericPolicy,
                       norm: float | None = None) -> list[RelationCheck]:
    """:func:`involution_checks` of the checked matrix ``arr``, given its
    map ``X -> K X`` from :func:`_grading_products`, so a caller that
    already holds the products reads K's structure once.  ``norm`` is
    ``||K||`` when the caller has it (see :func:`_hermiticity_residual`)."""
    n = arr.shape[0]
    eye = np.eye(n)
    tol_a = policy.algebra_tol
    # K = +1 or K = -1 would make the grading trivial, so those residuals
    # must be LARGE for a valid involution.
    return [
        RelationCheck.judge("K self-adjoint", _hermiticity_residual(arr, norm),
                            policy.hermiticity_tol),
        RelationCheck.judge("K^2 = 1", residual_norm(k_times(arr) - eye) / n, tol_a),
        RelationCheck.judge("K != +1", residual_norm(arr - eye) / n, tol_a,
                            must_exceed=True),
        RelationCheck.judge("K != -1", residual_norm(arr + eye) / n, tol_a,
                            must_exceed=True),
    ]


def validate_involution(k, policy: NumericPolicy = DEFAULT_POLICY) -> Involution:
    """Check K is Hermitian, squares to one and is not trivially ``+-1``."""
    arr = as_operator(k, "K")
    checks = involution_checks(arr, policy)
    _raise_failures(checks, "not a valid involution")
    return Involution(frozen_copy(arr))


def projectors(k: Involution) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors onto the bosonic and fermionic sectors."""
    eye = np.eye(k.dim)
    return 0.5 * (eye + k.matrix), 0.5 * (eye - k.matrix)


def decompose_vector(k: Involution, phi) -> tuple[np.ndarray, np.ndarray]:
    """Split a finite vector into even and odd parts.

    The parts sum back to the input to within one rounding per entry
    (exactly, for same-magnitude entries)."""
    vec = _require_numbers(phi, "phi")
    if vec.shape != (k.dim,):
        raise ShapeError(f"vector of length {k.dim} expected, got shape {vec.shape}")
    phi_b = 0.5 * (vec + k.matrix @ vec)
    # Complement instead of (phi - K phi)/2: the sum then reproduces phi
    # whenever the subtraction is exact, and to one ulp otherwise.
    phi_f = vec - phi_b
    return phi_b, phi_f


def classify_operator(k: Involution, m, policy: NumericPolicy = DEFAULT_POLICY) -> Parity:
    """Even commutes with K, odd anticommutes, anything else is mixed.

    The zero operator commutes with everything and classifies even.
    """
    [arr] = _as_operators((("M", m),), k.dim)
    norm = residual_norm(arr)
    km = k.matrix @ arr
    mk = arr @ k.matrix
    if _relative(residual_norm(km - mk), norm) <= policy.algebra_tol:
        return Parity.EVEN
    if _relative(residual_norm(km + mk), norm) <= policy.algebra_tol:
        return Parity.ODD
    return Parity.MIXED


def grading_basis(k: Involution, policy: NumericPolicy = DEFAULT_POLICY) -> GradingBasis:
    """Unitary diagonalizing K with the +1 eigenvectors first.

    No eigensolver is involved.  ``K^2 = 1`` makes the sectors the ranges
    of the projectors ``P+- = (1 +- K)/2``, and ``dim_b = (n + Tr K)/2``
    (rounded) counts the +1 columns.  The structure of K picks one of two
    cases:

    * a signed permutation, with one nonzero of modulus exactly one in
      every row and ``K_ji = conj(K_ij)`` exactly (every lattice model):
      a fixed point ``i`` gives ``e_i``, a 2-cycle ``i < j`` gives
      ``(e_i +- K_ji e_j)/sqrt(2)``, and each sector is ordered by the
      smallest index of its columns.  A diagonal K gives the identity
      columns, +1 indices ascending, then -1 indices ascending.
    * anything else: column-pivoted two-pass Gram-Schmidt on the columns
      of ``P+``, stopped after ``dim_b`` columns, then on those of ``P-``
      against the +1 columns too, stopped after ``dim_f``.  It runs
      left-looking: the pivot is the column of largest downdated norm,
      and each step costs one matrix-vector product besides the two
      orthogonalization passes, with no full-matrix update.  The result
      is unitary to rounding and deterministic.  One matrix product then
      checks that every column norm of ``K U - U diag(+-1)`` is at most
      ``n * algebra_tol``, which every K that passes
      :func:`validate_involution` meets; a larger one raises
      :class:`ValidationError`.

    Inside each sector the basis is opaque: downstream code must rely
    only on the block positions, never on the columns themselves.
    """
    [arr] = _require_hermitian((("K", k.matrix),), policy,
                               "grading_basis requires a Hermitian matrix")
    n = arr.shape[0]
    dim_b = min(n, max(0, round((n + float(np.trace(arr).real)) / 2.0)))
    u = _signed_permutation_basis(arr)
    if u is None:
        u = _projector_basis(arr, dim_b)
        signs = np.concatenate([np.ones(dim_b), -np.ones(n - dim_b)])
        worst = float(np.linalg.norm(arr @ u - u * signs, axis=0).max(initial=0.0))
        _raise_failures([RelationCheck.judge("K U = U diag(+-1)", worst,
                                             n * policy.algebra_tol)],
                        "grading_basis: K is not an involution to working accuracy")
    return GradingBasis(frozen_copy(u), dim_b, n - dim_b)


def _signed_permutation(k: np.ndarray):
    """``(cols, z)`` with ``K[i, cols[i]] = z[i]`` the one nonzero of row
    ``i``, when K is a signed permutation: every ``|z[i]|`` exactly one,
    ``cols`` an involution and ``K_ji = conj(K_ij)`` exactly.  None for
    any other K.  A negative zero counts as zero."""
    n = k.shape[0]
    nonzero = k != 0
    if not (np.count_nonzero(nonzero, axis=1) == 1).all():
        return None
    rows = np.arange(n)
    cols = np.argmax(nonzero, axis=1)
    z = k[rows, cols]
    # z[cols[i]] is K_ji for j = cols[i] once the permutation is an
    # involution; a fixed point then needs K_ii = +-1.
    if not ((np.abs(z) == 1.0).all() and (cols[cols] == rows).all()
            and (z[cols] == z.conj()).all()):
        return None
    return cols, z


def _grading_products(k: np.ndarray):
    """The maps ``X -> K X`` and ``X -> X K``.

    When K is a signed permutation (:func:`_signed_permutation`) whose
    phases are all ``+-1`` or ``+-i`` they are the gathers
    ``z[:, None] * X[cols]`` and ``X[:, cols] * z[cols]``: each entry of
    the product has one nonzero term, and multiplying by such a phase is
    exact, so the values are those of the dense product bit for bit (a
    zero may change sign, which no residual norm sees).  Any other K,
    general phases included, keeps the dense matrix products.  The
    structure is read from ``k`` on every call, so a matrix changed in
    place is never applied from a stale reading.
    """
    perm = _signed_permutation(k)
    if perm is not None:
        cols, z = perm
        if ((z.real == 0) | (z.imag == 0)).all():
            left, right = z[:, None], z[cols]
            return (lambda x: left * x[cols]), (lambda x: x[:, cols] * right)
    return (lambda x: k @ x), (lambda x: x @ k)


def _signed_permutation_basis(k: np.ndarray):
    """Closed-form eigenbasis of a signed-permutation K, or None for any
    other K (see :func:`grading_basis`)."""
    perm = _signed_permutation(k)
    if perm is None:
        return None
    cols, z = perm
    n = k.shape[0]
    rows = np.arange(n)
    lead = rows[rows <= cols]
    mate = cols[lead]
    cycle = lead != mate
    u = np.zeros((n, n), dtype=np.complex128)
    start = 0
    for sign in (1.0, -1.0):
        keep = cycle | (z[lead].real == sign)
        first, second, pair = lead[keep], mate[keep], cycle[keep]
        slots = start + np.arange(len(first))
        u[first, slots] = np.where(pair, _SQRT_HALF, 1.0)
        u[second[pair], slots[pair]] = sign * z[first[pair]] * _SQRT_HALF
        start += len(first)
    # u holds the conjugate basis (z[first] is K_ij = conj(K_ji)).
    # Conjugating it gives the basis, with every imaginary zero negative:
    # a diagonal K gives exactly the conjugated identity columns.
    return u.conj()


def _projector_basis(k: np.ndarray, dim_b: int) -> np.ndarray:
    """Orthonormal columns spanning the ranges of ``(1 + K)/2`` (the first
    ``dim_b``) and ``(1 - K)/2`` (the rest), by column-pivoted two-pass
    Gram-Schmidt (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50
    (2005) 1069), left-looking.

    Each sector's projector loses its part in the columns of the earlier
    sector by one matrix product and is not updated after that.  The
    column with the largest downdated squared norm is orthogonalized
    twice against every column done so far (the step of
    :func:`spectral._orthonormal_columns`), and its squared projections
    ``|col^dag w|^2`` are subtracted from all norms, as xGEQP3 downdates
    its column norms (Drmac & Bujanovic, ACM TOMS 35 (2008) 12).  No
    norm is recomputed: the columns of a projector of rank ``r`` with
    ``j`` columns found have remaining squared norms summing to
    ``r - j``, so while a column is still to be found the largest is at
    least ``1/n``, far above the rounding of about ``n * eps`` that the
    downdates can accumulate in norms that start at most one."""
    n = k.shape[0]
    herm = 0.5 * (k + _dagger(k))
    eye = np.eye(n)
    u = np.empty((n, n), dtype=np.complex128)
    done = 0
    for sign, count in ((1.0, dim_b), (-1.0, n - dim_b)):
        w = 0.5 * (eye + sign * herm)
        w -= u[:, :done] @ (_dagger(u[:, :done]) @ w)
        norms = (w.real * w.real + w.imag * w.imag).sum(axis=0)
        for _ in range(count):
            pick = norms.argmax()
            if not norms[pick] > 0.0:
                which = "1 + K" if sign > 0 else "1 - K"
                raise ValidationError(
                    f"grading_basis: ({which})/2 has rank below {count}, "
                    f"the count that Tr K gives")
            u[:, done] = col = _orthonormalized(w[:, pick], u[:, :done])
            proj = col.conj() @ w
            norms -= (proj * proj.conj()).real
            done += 1
    return u


def block_extract(basis: GradingBasis, m):
    """Blocks of ``U^dag M U`` partitioned at the bosonic dimension.

    Returns ``(A, B, C, D)`` reading the block matrix row-wise; odd
    operators have vanishing A and D, even ones vanishing B and C.

    When ``U`` is a permutation with unit entries, the basis of every
    diagonal K, ``U^dag M U`` is the slice ``M[p][:, p]``, ``p`` the row
    of each column's one.  Its values are those of the dense product
    exactly; adding ``0.0`` turns negative zeros positive, as the
    product's sums mostly do.  Any other ``U``, the ``sqrt(1/2)`` columns
    of a K with 2-cycles included, keeps the dense product, whose
    rounding a gather would not reproduce.
    """
    [arr] = _as_operators((("M", m),), basis.dim)
    u = basis.unitary
    p = _permutation_rows(u)
    conj = _dagger(u) @ arr @ u if p is None else arr[p][:, p] + 0.0
    nb = basis.dim_bosonic
    return conj[:nb, :nb], conj[:nb, nb:], conj[nb:, :nb], conj[nb:, nb:]


def _permutation_rows(u: np.ndarray):
    """Row index of the one nonzero of each column when ``u`` is a
    permutation matrix with entries exactly one; None otherwise."""
    nonzero = u != 0
    if not ((np.count_nonzero(nonzero, axis=0) == 1).all()
            and (np.count_nonzero(nonzero, axis=1) == 1).all()):
        return None
    rows = np.argmax(nonzero, axis=0)
    if not (u[rows, np.arange(u.shape[1])] == 1.0).all():
        return None
    return rows
