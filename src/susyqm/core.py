"""Dense complex operator arithmetic shared by every other module.

Operators are plain numpy ``complex128`` arrays.  A relation whose
operands all have imaginary parts exactly zero is checked on their
float64 real parts (``_real_if_exact``, with the dtype-preserving
``_dagger``); the stored operators stay complex.  An input is refused
at the boundary in one of two ways.  A wrong shape raises
:class:`ShapeError`: :func:`as_operator` checks squareness and
finiteness, and ``_as_operators`` also names the first of several
operators whose dimension differs; the algebra helpers stay thin after
that.  A broken relation raises :class:`ValidationError` carrying a
:class:`RelationCheck` for each failed relation (``_raise_failures``).
Hermiticity and algebra residuals are relative, scaled by
``max(1, norm)`` of the participating operators, so validators behave
uniformly across operator scales.  Two kinds of residual are not: the
involution relations ``K^2 = 1`` and ``K != +-1`` divide by the
dimension, and ``H != 0`` compares the absolute norm ``||H||`` with
``algebra_tol``.
"""

from __future__ import annotations

import math
import numbers
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
    "is_hermitian",
    "rel_residual",
    "residual_norm",
]


class ShapeError(ValueError):
    """Operands have incompatible or non-square shapes."""


class ValidationError(ValueError):
    """A validated object failed one or more of its defining relations.

    ``failures`` holds the :class:`RelationCheck` entries that did not
    pass.  Every residual rejection carries them; two rejections have no
    residual and leave ``failures`` empty: a system given no charges,
    and a grading projector ``(1 +- K)/2`` whose rank falls below the
    count that ``Tr K`` gives.  A wrong shape is a :class:`ShapeError`.
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
    absolute norm ``||H||`` with ``algebra_tol``.  The grading basis
    bounds each column norm of ``K U - U diag(+-1)`` by
    ``dim * algebra_tol``, the bound the involution relations put on
    ``||K^2 - 1||_F``.  ``eigensolver_tol`` governs the Jacobi sweeps of
    ``eigh`` and ``eigvalsh``, the only users of Jacobi; the grading
    basis and the pseudo-inverse take no eigensolver.  The pseudo-inverse
    shares the kernel cut of ``kernel_basis``: ``|lambda|`` at most
    ``max(kernel_tol, sqrt(2 * dim * eps))`` times the spectral radius is
    zero.  Kernel dimensions, the index
    report's zero-mode counts and the sector spectra of the pairing
    report and the ``spectrum`` verb come from bisection down to
    adjacent floats, which needs no tolerance.  Operators whose
    imaginary parts are all exactly zero are checked in float64
    (``_real_if_exact``); their residuals differ from complex arithmetic
    only in the last bits.
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


def _require_int(value, name: str) -> int:
    """``value`` as an ``int``: an integer (numpy integers too), never a
    boolean, string or float, not even an integral one; anything else
    raises :class:`TypeError` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_operators(named, dim: int | None = None) -> list[np.ndarray]:
    """:func:`as_operator` of each ``(name, a)`` of ``named``, all of one
    dimension: ``dim`` if given, else the first operator's.  The first
    operator that differs raises :class:`ShapeError` naming it."""
    out = []
    for name, a in named:
        arr = as_operator(a, name)
        if dim is None:
            dim = arr.shape[0]
        elif arr.shape[0] != dim:
            raise ShapeError(f"{name} has shape {arr.shape}, expected {(dim, dim)}")
        out.append(arr)
    return out


def commutator(a, b) -> np.ndarray:
    """Return ``AB - BA``."""
    a, b = _as_operators((("A", a), ("B", b)))
    return a @ b - b @ a


def anticommutator(a, b) -> np.ndarray:
    """Return ``AB + BA``."""
    a, b = _as_operators((("A", a), ("B", b)))
    return a @ b + b @ a


def adjoint(a) -> np.ndarray:
    """Conjugate transpose (also accepts rectangular blocks)."""
    return np.asarray(a, dtype=np.complex128).conj().T


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose in ``a``'s own dtype: a float64 ``a`` stays
    float64, a complex128 one gives :func:`adjoint`'s bits."""
    return a.conj().T


def _real_if_exact(*ops: np.ndarray) -> tuple[np.ndarray, ...]:
    """``ops`` as contiguous float64 arrays when every imaginary part is
    exactly zero (``-0.0`` counts as zero, a subnormal does not), else
    ``ops`` unchanged.

    A relation checked on the float64 operands does each product in real
    arithmetic, at about a quarter of the complex cost; its residual
    differs from the complex one only in the last bits.
    """
    if any(np.iscomplexobj(op) and op.imag.any() for op in ops):
        return ops
    return tuple(np.ascontiguousarray(op.real) for op in ops)


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


def _hermiticity_residual(a: np.ndarray, norm: float | None = None) -> float:
    """``||A - A^dag|| / max(1, ||A||)``, in float64 when every imaginary
    part of ``a`` is exactly zero (:func:`_real_if_exact`).

    ``norm``, when the caller has it, is ``||A||`` already computed on
    ``a`` as given; ``a`` is then taken in the arithmetic it has, so a
    caller that decides the arithmetic of several operands at once keeps
    that decision.
    """
    if norm is None:
        [a] = _real_if_exact(a)
        norm = residual_norm(a)
    return residual_norm(a - _dagger(a)) / max(1.0, norm)


def _require_self_adjoint(named, policy: NumericPolicy, what: str) -> None:
    """Raise ``what`` naming each ``(name, x)`` of ``named`` not Hermitian."""
    _raise_failures([RelationCheck.judge(f"{name} self-adjoint", _hermiticity_residual(x),
                                         policy.hermiticity_tol)
                     for name, x in named], what)


def _require_hermitian(a, policy: NumericPolicy, who: str,
                       name: str = "A") -> np.ndarray:
    """``a`` as an operator, or :class:`ValidationError` naming ``who``
    and the failed ``{name} self-adjoint`` check if it is not Hermitian
    within ``hermiticity_tol``."""
    arr = as_operator(a, name)
    _require_self_adjoint(((name, arr),), policy, f"{who} requires a Hermitian matrix")
    return arr


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
