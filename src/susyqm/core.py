"""Dense complex operator arithmetic shared by every other module.

Operators are plain numpy ``complex128`` arrays.  :func:`as_operator`
checks squareness and finiteness once, at the boundary; the algebra
helpers stay thin after that.  Hermiticity and algebra residuals are
relative, scaled by ``max(1, norm)`` of the participating operators,
so validators behave uniformly across operator scales.  Two kinds of
residual are not: the involution relations ``K^2 = 1`` and
``K != +-1`` divide by the dimension, and ``H != 0`` compares the
absolute norm ``||H||`` with ``algebra_tol``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "CrossCheckError",
    "DEFAULT_POLICY",
    "NumericPolicy",
    "RelationCheck",
    "ShapeError",
    "SIGMA1",
    "SIGMA2",
    "SIGMA3",
    "ValidationError",
    "adjoint",
    "anticommutator",
    "as_operator",
    "commutator",
    "frozen_copy",
    "is_hermitian",
    "rel_residual",
    "residual_norm",
]


class ShapeError(ValueError):
    """Operands have incompatible or non-square shapes."""


class ValidationError(ValueError):
    """A validated object failed one or more of its defining relations.

    ``failures`` holds the :class:`RelationCheck` entries that did not pass.
    """

    def __init__(self, message: str, failures=()):
        super().__init__(message)
        self.failures = tuple(failures)


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its sweep budget."""


class CrossCheckError(RuntimeError):
    """Two independent formulas for the same quantity disagree."""


@dataclass(frozen=True)
class RelationCheck:
    """Scalar residual of one defining relation, with its pass verdict."""

    name: str
    residual: float
    tolerance: float
    passed: bool

    @classmethod
    def judge(cls, name: str, residual: float, tolerance: float,
              must_exceed: bool = False) -> "RelationCheck":
        """Check that holds when ``residual <= tolerance``, or, for a
        relation of the form ``X != Y`` (``must_exceed``), when
        ``residual > tolerance``.  A NaN residual fails either way: every
        comparison with NaN is false."""
        passed = residual > tolerance if must_exceed else residual <= tolerance
        return cls(name, residual, tolerance, passed)


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances for validators, kernel detection and the Jacobi eigensolver.

    Hermiticity and algebra residuals are scaled by ``max(1, norm)`` of
    the operands, kernel cutoffs by the largest singular value, pairing
    windows by the larger eigenvalue of a candidate pair.  Two relations
    use ``algebra_tol`` differently: the involution relations
    (``K^2 = 1``, ``K != +1``, ``K != -1``) divide their residual by the
    dimension, not by ``max(1, ||K||)``, and ``H != 0`` compares the
    absolute norm ``||H||`` with ``algebra_tol``.  ``eigensolver_tol``
    governs the Jacobi sweeps of ``eigh``, ``eigvalsh`` and the grading
    basis.  The pseudo-inverse sweeps down to the rounding floor instead
    (at most ``dim * eps``), because reciprocating small eigenvalues
    amplifies any leftover residual.  Kernel dimensions, the index
    report's zero-mode counts and the sector spectra of the pairing
    report and the ``spectrum`` verb come from bisection down to
    adjacent floats, which needs no tolerance.
    """

    hermiticity_tol: float = 1e-10
    algebra_tol: float = 1e-10
    kernel_tol: float = 1e-8
    eigensolver_tol: float = 1e-12
    pairing_tol: float = 1e-8

    def __post_init__(self):
        for name in (
            "hermiticity_tol",
            "algebra_tol",
            "kernel_tol",
            "eigensolver_tol",
            "pairing_tol",
        ):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-3:
                raise ValueError(f"{name} must lie in (0, 1e-3], got {value!r}")


DEFAULT_POLICY = NumericPolicy()


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


SIGMA1 = _readonly(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA2 = _readonly(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA3 = _readonly(np.array([[1, 0], [0, -1]], dtype=np.complex128))


def as_operator(a, name: str = "operator") -> np.ndarray:
    """Coerce ``a`` to a square, finite complex matrix."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frozen_copy(a) -> np.ndarray:
    """Defensive read-only copy for values stored in result objects."""
    return _readonly(np.array(a))


def _same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"incompatible operators: shapes {a.shape} and {b.shape}")


def commutator(a, b) -> np.ndarray:
    """Return ``AB - BA``."""
    a = as_operator(a, "A")
    b = as_operator(b, "B")
    _same_dim(a, b)
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """Return ``AB + BA``."""
    a = as_operator(a, "A")
    b = as_operator(b, "B")
    _same_dim(a, b)
    return a @ b + b @ a


def adjoint(a) -> np.ndarray:
    """Conjugate transpose (also accepts rectangular blocks)."""
    return np.asarray(a, dtype=np.complex128).conj().T


# Frobenius norms inside this range come from sums of squares that
# neither overflowed nor lost digits to underflow.
_SAFE_NORMS = (2.0**-450, 2.0**450)


def _binary_exponent(a) -> int:
    """Exponent ``e`` with ``max |a_ij| * 2**-e`` in ``[0.5, 1)``, or 0 for
    a zero or empty ``a``.  Scaling by ``2**-e`` puts the squares of the
    entries clear of overflow and underflow."""
    return math.frexp(float(np.abs(a).max(initial=0.0)))[1]


def _ldexp(a, e: int) -> np.ndarray:
    """``a * 2**e`` entrywise: exact while the results stay normal floats,
    and, unlike complex arithmetic, it keeps the sign of every zero."""
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return np.ldexp(a, e)
    out = np.empty_like(a)
    out.real = np.ldexp(a.real, e)
    out.imag = np.ldexp(a.imag, e)
    return out


def residual_norm(a) -> float:
    """Frobenius norm, the scalar residual of a matrix equation.

    Outside a safe range the entries are scaled by a power of two first
    (:func:`_binary_exponent`), so entries beyond about ``1e+-154``
    neither overflow nor underflow when squared; inside it that scaling
    would change no bit.
    """
    arr = np.asarray(a)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
        if _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1] or not arr.any():
            return norm
        e = _binary_exponent(arr)
        return float(np.ldexp(np.linalg.norm(_ldexp(arr, -e)), e))


def _operator_scale(*operands) -> float:
    """``max(1, ||op||_F over operands)``, the denominator of every
    relative residual."""
    scale = 1.0
    for op in operands:
        scale = max(scale, residual_norm(op))
    return scale


def rel_residual(x, *operands) -> float:
    """Norm of ``x`` relative to the largest operand scale.

    The scale is ``max(1, ||op||_F over operands)`` so the result is
    comparable against a :class:`NumericPolicy` tolerance regardless of
    operator magnitudes.
    """
    return residual_norm(x) / _operator_scale(*operands)


def _hermiticity_residual(a) -> float:
    """``||A - A^dag|| / max(1, ||A||)``."""
    return rel_residual(a - adjoint(a), a)


def is_hermitian(a, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff ``||A - A^dag|| / max(1, ||A||) <= hermiticity_tol``."""
    return _hermiticity_residual(as_operator(a)) <= policy.hermiticity_tol


def _raise_failures(checks, what: str) -> None:
    """Raise :class:`ValidationError` naming every failed check, if any."""
    failures = [c for c in checks if not c.passed]
    if failures:
        detail = "; ".join(
            f"{c.name} (residual {c.residual:.3e}, tolerance {c.tolerance:.1e})"
            for c in failures
        )
        raise ValidationError(f"{what}: {detail}", failures)
