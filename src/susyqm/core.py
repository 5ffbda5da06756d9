"""Dense complex operator arithmetic shared by every other module.

Operators are plain numpy ``complex128`` arrays.  A relation whose
operands all have imaginary parts exactly zero is checked on their
float64 real parts (``_real_if_exact``, with the dtype-preserving
``_dagger``); the stored operators stay complex.  An input is refused
at the boundary in one of three ways.  Every value a caller passes, an
operator, a vector, a sample array or a tolerance, goes through one
gate, ``_require_numbers``: a boolean, a string, ``None`` or a number
too large for a double raises :class:`TypeError` naming the argument,
so :func:`as_operator` refuses non-numbers rather than parsing them,
and a NaN or an infinity raises :class:`ValueError` naming it, the one
finiteness rule (only :func:`residual_norm` measures a numeric numpy
array as it is).  A wrong shape raises :class:`ShapeError`:
:func:`as_operator` checks squareness, and ``_as_operators`` also names
the first of several operators whose dimension differs; the algebra
helpers stay thin after that.  A broken relation raises
:class:`ValidationError` carrying a :class:`RelationCheck` for each
failed relation (``_raise_failures``).  The validators judge
Hermiticity among their relations; every other Hermiticity refusal goes
through one gate, ``_require_hermitian``, which applies their rule to
the operands a caller passed, never to a block derived from them.
Every Hermiticity and algebra residual is divided by the Frobenius
norms of its own relation's operands, one after another (``_relative``),
so that the ratio has degree zero in them (over a zero norm, a nonzero
residual is infinite and a zero one zero): scaling ``Q -> 2^e Q``,
``H -> 2^{2e} H`` leaves every ratio and every verdict bit for bit
while no entry or product leaves the normal floating-point range.  K
has no units and ``||K||_2 = 1``, so a relation with K is divided by the
norm of its other operand only, and the involution relations ``K^2 = 1``
and ``K != +-1`` divide by the dimension.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

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
    """Independent formulas for the same quantity disagree, with each
    other or with an exact reference (``Tr K`` for the Witten index)."""


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


def _require_numbers(value, name: str, real: bool = False) -> np.ndarray:
    """``value`` as a float64 array if ``real``, else as a complex128 one.

    A float, or a numpy array of an integer or floating dtype (or a
    complex one, unless ``real``), is cast by dtype, with no copy when it
    already has the target dtype.  Anything else is checked entry by
    entry: each must be a number (a real one, if ``real``) that fits in
    a double, never a boolean, a string or ``None``; otherwise
    :class:`TypeError` names ``name``.  After the cast every entry must
    be finite: a NaN or an infinity (in either part of a complex entry)
    raises ``ValueError("<name> contains non-finite entries")``.  This
    is the package's one finiteness rule for what a caller passes; only
    :func:`residual_norm` skips the gate, for a numpy array of a numeric
    dtype, which it measures as it is, so an infinite residual array
    measures infinite.
    """
    dtype, kinds, number = ((np.float64, "iuf", numbers.Real) if real
                            else (np.complex128, "iufc", numbers.Complex))
    if isinstance(value, float) or (isinstance(value, np.ndarray)
                                    and value.dtype.kind in kinds):
        arr = np.asarray(value, dtype=dtype)
    else:
        entries = np.asarray(value, dtype=object)
        for x in entries.flat:
            if isinstance(x, (bool, np.bool_)) or not isinstance(x, number):
                raise TypeError(f"{name} must be {'real' if real else 'numeric'}, got {x!r}")
        try:
            arr = entries.astype(dtype)
        except OverflowError:
            raise TypeError(f"{name} has a number too large for a double") from None
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerances for validators, kernel detection and the Jacobi eigensolver.

    Every field is relative.  A Hermiticity residual ``||A - A^dag||`` is
    divided by ``||A||``, and an algebra residual by the norm of each
    operand of its relation's products in turn: ``{X,Y} = 2 delta H``,
    ``[X,Y] = 0`` and ``h_plus = A^dag A`` by ``||X||`` and then
    ``||Y||``.  ``H != 0`` holds when ``||H|| / ||Q||^2`` exceeds
    ``algebra_tol``, ``||Q||`` the largest charge norm, and
    ``kernel_equality_check``'s ``Q1^2 = Q2^2`` divides ``||Q1^2 -
    Q2^2||`` by the same ``||Q||^2``, the larger charge norm squared, so
    no relation is judged on a scale of its own.  Over a zero norm
    a nonzero residual is infinite and a zero one is zero: the zero
    matrix is Hermitian, and a zero operand that breaks its relation is
    refused at every scale.  K has no units (``||K||_2 = 1``), so a
    relation with K is divided by its other operand's norm alone; only
    the involution relations (``K^2 = 1``,
    ``K != +1``, ``K != -1``) divide by the dimension instead.  The
    grading basis bounds each column norm of ``K U - U diag(+-1)`` by
    ``dim * algebra_tol``, the bound the involution relations put on
    ``||K^2 - 1||_F``.  ``eigensolver_tol`` governs the Jacobi sweeps of
    ``eigh`` and ``eigvalsh``, the only users of Jacobi; the grading
    basis and the pseudo-inverse take no eigensolver.

    One rule decides what counts as zero, the zero cut: an eigenvalue of
    a Gram product ``A^dag A`` is zero when it is at most
    ``max(kernel_tol**2, 2 * dim * eps)`` times the largest, ``dim =
    max(A.shape)``; so is a singular value of A at most ``max(kernel_tol,
    sqrt(2 * dim * eps))`` times the largest.  ``2 * dim * eps`` is the
    Gram floor, the rounding of the product, below which no eigenvalue
    is resolved.  With the default ``kernel_tol = 1e-8``, ``kernel_tol**2
    = 1e-16`` lies below the floor at every ``dim``, so the default cut
    is always the floor.  Every zero decision reads this cut: kernel
    dimensions and bases (``kernel_basis`` and both Gram ranks of the
    index report); the pseudo-inverse, for which a Hermitian Q is its
    own A; the sector zero modes of both reports, since the sector
    blocks of H are ``A^dag A`` and ``A A^dag`` (relative to the spectral
    radius of H); the pairing window; and ``kernel_equality_check``'s
    annihilation bound, the square root of the cut times the other
    charge's norm.  The sector blocks are the user's, so the sector cut
    adds the larger of ``||h_plus - A^dag A||`` and ``||h_minus - A
    A^dag||``, the distances the standard representation accepted: by
    Weyl's bound a zero mode of A lies at most that far above the cut in
    its block.  For an exact product those residuals are rounding.  A
    squared singular value of A within twice that widening above the cut
    is not resolved from zero by the input, and there formula one and
    the sector counts can differ.  Partners pair when ``|x - y|`` is at
    most ``pairing_tol * max(x, y)`` plus the unwidened cut, because
    below it no eigenvalue is resolved; a pair records a relative gap
    above ``pairing_tol`` only when its partners lie within that cut of
    each other.  Kernel dimensions, the index report's zero-mode counts and
    the sector spectra of the pairing report and the ``spectrum`` verb
    come from bisection down to adjacent floats, which needs no
    tolerance.  Operators whose imaginary parts are all exactly zero are
    checked in float64 (``_real_if_exact``); their residuals differ from
    complex arithmetic only in the last bits.
    """

    hermiticity_tol: float = 1e-10
    algebra_tol: float = 1e-10
    kernel_tol: float = 1e-8
    eigensolver_tol: float = 1e-12
    pairing_tol: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            tol = _require_numbers(value, field.name, real=True)
            if tol.ndim or not 0.0 < float(tol) <= 1e-3:
                raise ValueError(f"{field.name} must lie in (0, 1e-3], got {value!r}")
            object.__setattr__(self, field.name, float(tol))


DEFAULT_POLICY = NumericPolicy()


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


SIGMA1 = _readonly(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA2 = _readonly(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA3 = _readonly(np.array([[1, 0], [0, -1]], dtype=np.complex128))


def as_operator(a, name: str = "operator") -> np.ndarray:
    """Coerce ``a`` to a square, finite complex matrix; what is not a
    finite number is refused by :func:`_require_numbers`, naming ``name``."""
    arr = _require_numbers(a, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
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
    return _require_numbers(a, "operator").conj().T


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

    A numpy array of a numeric dtype is used as it is, with no cast and
    no finiteness check, so a float64 relation keeps its arithmetic and a
    computed residual that overflowed measures infinite; anything else
    goes through :func:`_require_numbers`, which refuses a NaN or an
    infinity.  Outside a safe range the entries are scaled by a power of
    two first (:func:`_binary_exponent`), so entries beyond about
    ``1e+-154`` neither overflow nor underflow when squared; inside it
    that scaling would change no bit.
    """
    arr = (a if isinstance(a, np.ndarray) and a.dtype.kind in "iufc"
           else _require_numbers(a, "residual_norm input"))
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
        if _SAFE_NORMS[0] <= norm <= _SAFE_NORMS[1] or not arr.any():
            return norm
        e = _binary_exponent(arr)
        return float(np.ldexp(np.linalg.norm(_ldexp(arr, -e)), e))


def _relative(residual: float, *norms: float) -> float:
    """``residual`` divided by each of ``norms`` in turn, the norms of its
    relation's own operands, so that the ratio has degree zero in them.
    Over a zero norm, a nonzero residual is infinite and a zero one stays
    zero, at every scale.  Dividing in turn, not by the product, keeps a
    norm near ``1e200`` from overflowing the scale."""
    for norm in norms:
        if norm:
            residual /= norm
        elif residual > 0:
            return math.inf
    return residual


def rel_residual(x, *operands) -> float:
    """``||x||_F`` divided by the largest ``||op||_F`` over ``operands``
    (:func:`_relative`): infinite when every operand is zero and ``x``
    is not."""
    return _relative(residual_norm(x),
                     max((residual_norm(op) for op in operands), default=0.0))


def _hermiticity_residual(a: np.ndarray, norm: float | None = None) -> float:
    """``||A - A^dag|| / ||A||`` (:func:`_relative`, so 0 for the zero
    matrix), in float64 when every imaginary part of ``a`` is exactly
    zero (:func:`_real_if_exact`).

    ``norm``, when the caller has it, is ``||A||`` already computed on
    ``a`` as given; ``a`` is then taken in the arithmetic it has, so a
    caller that decides the arithmetic of several operands at once keeps
    that decision.
    """
    if norm is None:
        [a] = _real_if_exact(a)
        norm = residual_norm(a)
    return _relative(residual_norm(a - _dagger(a)), norm)


def _require_hermitian(named, policy: NumericPolicy, what: str) -> list[np.ndarray]:
    """Each ``(name, a)`` of ``named`` as an operator, all of one
    dimension (:func:`_as_operators`), or :class:`ValidationError`
    ``what`` naming each failed ``{name} self-adjoint`` check within
    ``hermiticity_tol``.  The package's one gate on the Hermiticity of
    what a caller passes."""
    ops = _as_operators(named)
    _raise_failures([RelationCheck.judge(f"{name} self-adjoint", _hermiticity_residual(op),
                                         policy.hermiticity_tol)
                     for (name, _), op in zip(named, ops)], what)
    return ops


def is_hermitian(a, policy: NumericPolicy = DEFAULT_POLICY) -> bool:
    """True iff ``||A - A^dag|| / ||A|| <= hermiticity_tol``; the zero
    matrix is Hermitian."""
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
