"""Z2 grading machinery induced by an involution K.

A valid involution is Hermitian, squares to the identity and is not
``+1`` or ``-1``, so both the bosonic (+1) and fermionic (-1) eigensectors
are non-trivial.  Everything else here follows from K alone: projectors,
even/odd splitting of vectors and operators, and the change of basis to
the standard block form ``diag(1, -1)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_POLICY,
    NumericPolicy,
    RelationCheck,
    ShapeError,
    _hermiticity_residual,
    _raise_failures,
    adjoint,
    as_operator,
    commutator,
    anticommutator,
    frozen_copy,
    residual_norm,
)
from .spectral import eigh

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
    """Residuals of the involution relations; shared with system validators."""
    arr = as_operator(k, "K")
    n = arr.shape[0]
    eye = np.eye(n)
    tol_a = policy.algebra_tol
    # K = +1 or K = -1 would make the grading trivial, so those residuals
    # must be LARGE for a valid involution.
    return [
        RelationCheck.judge("K self-adjoint", _hermiticity_residual(arr),
                            policy.hermiticity_tol),
        RelationCheck.judge("K^2 = 1", residual_norm(arr @ arr - eye) / n, tol_a),
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
    """Split a vector into even and odd parts.

    The parts sum back to the input to within one rounding per entry
    (exactly, for same-magnitude entries)."""
    vec = np.asarray(phi, dtype=np.complex128)
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
    arr = as_operator(m, "M")
    if arr.shape[0] != k.dim:
        raise ShapeError(f"operator dim {arr.shape[0]} does not match K dim {k.dim}")
    scale = residual_norm(arr)
    if residual_norm(commutator(k.matrix, arr)) <= policy.algebra_tol * scale:
        return Parity.EVEN
    if residual_norm(anticommutator(k.matrix, arr)) <= policy.algebra_tol * scale:
        return Parity.ODD
    return Parity.MIXED


def grading_basis(k: Involution, policy: NumericPolicy = DEFAULT_POLICY) -> GradingBasis:
    """Unitary diagonalizing K with the +1 eigenvectors first.

    Inside each degenerate eigensector the eigensolver's output order is
    kept; downstream code must treat the basis as opaque and rely only
    on the block positions.
    """
    dec = eigh(k.matrix, policy)
    order = np.argsort(-dec.eigenvalues, kind="stable")
    w = dec.eigenvalues[order]
    u = dec.eigenvectors[:, order]
    dim_b = int(np.count_nonzero(w > 0.0))
    dim_f = k.dim - dim_b
    return GradingBasis(frozen_copy(u), dim_b, dim_f)


def block_extract(basis: GradingBasis, m):
    """Blocks of ``U^dag M U`` partitioned at the bosonic dimension.

    Returns ``(A, B, C, D)`` reading the block matrix row-wise; odd
    operators have vanishing A and D, even ones vanishing B and C.
    """
    arr = as_operator(m, "M")
    if arr.shape[0] != basis.dim:
        raise ShapeError(
            f"operator dim {arr.shape[0]} does not match basis dim {basis.dim}"
        )
    u = basis.unitary
    conj = adjoint(u) @ arr @ u
    nb = basis.dim_bosonic
    return conj[:nb, :nb], conj[:nb, nb:], conj[nb:, :nb], conj[nb:, nb:]
