"""Supersymmetric system validators, equivalences and constructions.

Two flavours of supercharge are supported:

* *real* charges: self-adjoint ``Q_i`` with ``{Q_i, Q_j} = 2 delta_ij H``;
* *complex* charges: nilpotent ``q_i`` with ``{q_i, q_j^dag} = 2 delta_ij H``
  and ``{q_i, q_j} = 0`` (a self-adjoint complex charge would force
  ``H = 0``, which is excluded).

A *graded* system additionally carries an involution K that anticommutes
with every charge.  Validators return rich per-relation residual reports
rather than booleans so tolerance behaviour stays observable; failures
raise :class:`ValidationError` naming each broken relation.

The constructive results implemented here: real/complex charge-pair
conversion (both directions), the second supercharge ``+-i K Q``, the
sign test ``Q2 = -+ i K Q1`` linking any charge pair produced by
:func:`charges_from_parts`, the involution built from two anticommuting
charges with its kernel-extension freedom, and the reduction of a graded
system to the standard block representation ``H = diag(A^dag A, A A^dag)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_POLICY,
    CrossCheckError,
    NumericPolicy,
    RelationCheck,
    ShapeError,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    ValidationError,
    _as_operators,
    _dagger,
    _hermiticity_residual,
    _raise_failures,
    _real_if_exact,
    _relative,
    _require_int,
    _require_numbers,
    _require_self_adjoint,
    as_operator,
    frozen_copy,
    rel_residual,
    residual_norm,
)
from .grading import (
    GradingBasis,
    Involution,
    _grading_products,
    _involution_checks,
    block_extract,
    grading_basis,
)
from .spectral import _pinv_and_kernel

__all__ = [
    "GradedSystem",
    "PairingSign",
    "StandardRepresentation",
    "SuperchargeSystem",
    "charges_from_parts",
    "check_pairing_relation",
    "complex_from_real",
    "construct_involution",
    "hamiltonian_from_parts",
    "hermitian_parts",
    "real_from_complex",
    "reparametrize",
    "second_supercharge",
    "standard_representation",
    "validate_complex_system",
    "validate_graded_complex_system",
    "validate_graded_real_system",
    "validate_real_system",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class SuperchargeSystem:
    """Hamiltonian with validated supercharges (no grading operator)."""

    hamiltonian: np.ndarray
    charges: tuple[np.ndarray, ...]
    complex_charges: bool
    checks: tuple[RelationCheck, ...]

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class GradedSystem:
    """Supercharge system together with an involution anticommuting with
    every charge."""

    hamiltonian: np.ndarray
    involution: Involution
    charges: tuple[np.ndarray, ...]
    complex_charges: bool
    checks: tuple[RelationCheck, ...]
    # The analysis reports' sector analyses, one per NumericPolicy; see
    # ``analysis._sector_analysis``.
    _sector_analyses: dict = field(default_factory=dict, init=False,
                                   repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


@dataclass(frozen=True)
class StandardRepresentation:
    """Grading-adapted block data: A maps the bosonic to the fermionic
    sector, ``h_plus``/``h_minus`` are the sector restrictions of H, and
    ``block_residuals`` are ``||h_plus - A^dag A||`` and ``||h_minus - A
    A^dag||`` in H's units, the distances the validation accepted."""

    basis: GradingBasis
    a_operator: np.ndarray
    h_plus: np.ndarray
    h_minus: np.ndarray
    block_residuals: tuple[float, float]


class PairingSign(enum.Enum):
    MINUS = "Q2 = -iKQ1"
    PLUS = "Q2 = +iKQ1"
    FAIL = "no sign relation"


# ---------------------------------------------------------------------------
# validators


def _validate(h, charges, k=None, complex_charges: bool = False,
              policy: NumericPolicy = DEFAULT_POLICY):
    """Check the defining relations of any of the four formulations.

    Real charges (``complex_charges=False``) must be self-adjoint with
    ``{Q_i,Q_j} = 2 delta_ij H``; complex ones must not be self-adjoint
    and satisfy ``{q_i,q_j^dag} = 2 delta_ij H`` and
    ``{q_i,q_j} = {q_i^dag,q_j^dag} = 0``.  Every charge must commute
    with H.  Given an involution ``k``, the system is graded: K must also
    pass the involution checks (:func:`grading._involution_checks`),
    anticommute with every charge and commute with H.  ``k`` may be a
    matrix or an :class:`Involution`.
    Each residual is divided by the Frobenius norms of its relation's own
    operands in turn (:func:`core._relative`), so every ratio and every
    verdict is the same in any units: a Hermiticity residual by the
    operator's norm, ``{Q_i,Q_j} = 2 delta_ij H`` and its complex forms by
    ``||Q_i||`` and ``||Q_j||``, ``[H,Q_i]`` by ``||H||`` and
    ``||Q_i||``, ``{K,Q_i}`` by ``||Q_i||`` and ``[H,K]`` by ``||H||``
    (K has no units).  ``H != 0`` must exceed ``algebra_tol`` as
    ``||H||`` divided twice by the largest charge norm.
    When every imaginary part of H, the charges and K is exactly zero,
    all relations are checked in float64 (:func:`core._real_if_exact`),
    one decision for the whole system; otherwise all are complex.  The
    residuals of the two differ only in the last bits, and the returned
    system stores the complex128 operands either way.
    Returns a :class:`GradedSystem` when ``k`` is given, a
    :class:`SuperchargeSystem` otherwise.
    """
    h_in = as_operator(h, "H")
    if len(charges) == 0:
        raise ValidationError("at least one supercharge is required")
    label = "q" if complex_charges else "Q"
    names = [f"{label}{i + 1}" for i in range(len(charges))]
    named = list(zip(names, charges))
    graded = k is not None
    if graded:
        named.append(("K", k.matrix if isinstance(k, Involution) else k))
    ops = [h_in, *_as_operators(named, h_in.shape[0])]
    h_arr, *qs = _real_if_exact(*ops)
    k_arr = qs.pop() if graded else None
    norm_h = residual_norm(h_arr)
    norms = [residual_norm(q) for q in qs]
    tol = policy.algebra_tol
    h_tol = policy.hermiticity_tol
    # A self-adjoint complex charge would force H = 0, so for complex
    # charges the Hermiticity residual must be LARGE.
    herm_rule = ("{} not self-adjoint (a self-adjoint complex charge forces "
                 "H = 0)" if complex_charges else "{} self-adjoint")
    norm_q = max(norms)
    checks = [
        RelationCheck.judge("H self-adjoint", _hermiticity_residual(h_arr, norm_h),
                            h_tol),
        RelationCheck.judge("H != 0", _relative(norm_h, norm_q, norm_q), tol,
                            must_exceed=True),
    ]
    checks += [RelationCheck.judge(herm_rule.format(name), _hermiticity_residual(q, nq),
                                   h_tol, must_exceed=complex_charges)
               for name, q, nq in zip(names, qs, norms)]

    def relation(name, x, *operand_norms):
        checks.append(RelationCheck.judge(
            name, _relative(residual_norm(x), *operand_norms), tol))

    # Bare products: the operands are already checked, so the algebra
    # helpers' own input checks would only repeat that work.  With one
    # operand twice, the two products are the same array, so one is made
    # and added to itself: the same bits, with half the multiplications.
    # (2.0 * p would multiply as complex numbers, and turn an overflowed
    # inf part into NaN.)
    def anti(x, y):
        if x is y:
            p = x @ x
            return p + p
        return x @ y + y @ x

    qs_dag = [_dagger(q) for q in qs] if complex_charges else qs
    for i, (qi, a, a_dag, na) in enumerate(zip(names, qs, qs_dag, norms)):
        for qj, b, b_dag, nb in zip(names[i:], qs[i:], qs_dag[i:], norms[i:]):
            target, rhs = (2.0 * h_arr, "2H") if qi == qj else (0.0, "0")
            if complex_charges:
                relation(f"{{{qi},{qj}^dag}} = {rhs}",
                         anti(a, b_dag) - target, na, nb)
                relation(f"{{{qi},{qj}}} = 0", anti(a, b), na, nb)
                relation(f"{{{qi}^dag,{qj}^dag}} = 0",
                         anti(a_dag, b_dag), na, nb)
            else:
                relation(f"{{{qi},{qj}}} = {rhs}", anti(a, b) - target, na, nb)
    for name, q, nq in zip(names, qs, norms):
        # Conservation of the charges follows from the algebra; verified
        # anyway so a failure report points at the right operator.
        relation(f"[H,{name}] = 0", h_arr @ q - q @ h_arr, norm_h, nq)

    flavour = "complex" if complex_charges else "real"
    # The system keeps the complex128 operands, not the checked ones.
    charges_out = tuple(frozen_copy(q) for q in ops[1:len(names) + 1])
    if not graded:
        _raise_failures(checks, f"not a valid {flavour}-supercharge system")
        return SuperchargeSystem(frozen_copy(h_in), charges_out,
                                 complex_charges, tuple(checks))
    k_times, times_k = _grading_products(k_arr)
    norm_k = residual_norm(k_arr)
    checks += _involution_checks(k_arr, k_times, policy, norm_k)
    for name, q, nq in zip(names, qs, norms):
        relation(f"{{K,{name}}} = 0", k_times(q) + times_k(q), nq)
    relation("[H,K] = 0", times_k(h_arr) - k_times(h_arr), norm_h)
    _raise_failures(checks, f"not a valid graded {flavour}-supercharge system")
    return GradedSystem(frozen_copy(h_in), Involution(frozen_copy(ops[-1])),
                        charges_out, complex_charges, tuple(checks))


def validate_real_system(h, charges: Sequence,
                         policy: NumericPolicy = DEFAULT_POLICY) -> SuperchargeSystem:
    """Validate self-adjoint charges satisfying ``{Q_i,Q_j} = 2 delta_ij H``."""
    return _validate(h, charges, policy=policy)


def validate_complex_system(h, charges: Sequence,
                            policy: NumericPolicy = DEFAULT_POLICY) -> SuperchargeSystem:
    """Validate nilpotent complex charges with ``{q_i,q_j^dag} = 2 delta_ij H``."""
    return _validate(h, charges, complex_charges=True, policy=policy)


def validate_graded_real_system(h, k, charges: Sequence,
                                policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Real-supercharge validation plus ``{K,Q_i} = 0`` for an involution K."""
    return _validate(h, charges, k, policy=policy)


def validate_graded_complex_system(h, k, charges: Sequence,
                                   policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Complex-supercharge validation plus ``{K,q_i} = 0``."""
    return _validate(h, charges, k, complex_charges=True, policy=policy)


# ---------------------------------------------------------------------------
# charge-pair conversions


def complex_from_real(q1, q2) -> np.ndarray:
    """Combine two real charges into ``q = (Q1 + i Q2) / sqrt(2)``."""
    a, b = _as_operators((("Q1", q1), ("Q2", q2)))
    return (a + 1j * b) / _SQRT2


def real_from_complex(q) -> tuple[np.ndarray, np.ndarray]:
    """Split a complex charge into its two real charges (inverse of
    :func:`complex_from_real`)."""
    arr = as_operator(q, "q")
    qd = _dagger(arr)
    return (arr + qd) / _SQRT2, -1j * (arr - qd) / _SQRT2


def second_supercharge(k, q, sign: int = 1,
                       policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Build the companion charge ``Q' = sign * i K Q`` of a single-charge
    graded system; ``sign`` is the integer ``+1`` or ``-1``.

    ``(H = Q^2, K, [Q, Q'])`` is validated as a graded two-charge system,
    which checks the input and verifies that ``Q'`` is self-adjoint, odd
    with respect to K, squares to ``H`` and anticommutes with Q.
    """
    if _require_int(sign, "sign") not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    k_arr, q_arr = _as_operators(
        (("K", k.matrix if isinstance(k, Involution) else k), ("Q", q)))
    q_prime = sign * 1j * (k_arr @ q_arr)
    validate_graded_real_system(q_arr @ q_arr, k_arr, [q_arr, q_prime], policy)
    return q_prime


def check_pairing_relation(k, q1, q2,
                           policy: NumericPolicy = DEFAULT_POLICY) -> PairingSign:
    """Report which of ``Q2 = -iKQ1`` or ``Q2 = +iKQ1`` holds.

    ``FAIL`` is reserved for systems sneaking past the validator while
    satisfying neither sign relation (possible for degenerate spectra,
    where the second charge is not unique up to sign).
    """
    a, b = _as_operators((("Q1", q1), ("Q2", q2)))
    h = a @ a
    k_arr = validate_graded_real_system(h, k, [a, b], policy).involution.matrix
    kq1 = 1j * (k_arr @ a)
    if rel_residual(b + kq1, a) <= policy.algebra_tol:
        return PairingSign.MINUS
    if rel_residual(b - kq1, a) <= policy.algebra_tol:
        return PairingSign.PLUS
    return PairingSign.FAIL


# ---------------------------------------------------------------------------
# involution construction


def construct_involution(q1, q2, d_plus: int | None = None,
                         policy: NumericPolicy = DEFAULT_POLICY) -> Involution:
    """Build an involution from two anticommuting charges.

    On the orthogonal complement of ``ker Q1`` the involution is forced:
    ``K = i Q2 Q1^+``.  On the kernel itself (whose dimension ``d`` is
    shared by both charges) any choice of signature works; the extension
    used here is diagonal in the kernel eigenbasis with ``d_plus``
    entries ``+1`` followed by ``d - d_plus`` entries ``-1``.  ``d_plus``
    defaults to ``d``; it must be an integer (numpy integers too), and a
    bool or float raises :class:`TypeError`.  The sign convention makes
    :func:`check_pairing_relation` report ``MINUS``; the opposite overall
    sign is reachable by swapping the charge order.

    The pseudo-inverse and the kernel basis are taken from one kernel
    split of Q1 at the zero cut (the rule of the
    :class:`~susyqm.core.NumericPolicy` docstring), so borderline
    eigenvalues cannot be classified inconsistently between the two
    ingredients.  No eigendecomposition is formed.  The result is
    validated as a graded system with ``H = Q1^2`` and both charges,
    which checks every relation of the pair as well: an invalid pair
    raises one :class:`ValidationError` naming each relation that fails.
    """
    a, b = _as_operators((("Q1", q1), ("Q2", q2)))
    if d_plus is not None:
        d_plus = _require_int(d_plus, "d_plus")
    h = a @ a

    q1_pinv, kernel_vecs = _pinv_and_kernel(a, policy)
    d = kernel_vecs.shape[1]
    if d_plus is None:
        d_plus = d
    if not 0 <= d_plus <= d:
        raise ValueError(
            f"d_plus must lie in [0, {d}] (dim ker Q1 = {d}), got {d_plus}")

    signature = np.concatenate(
        [np.ones(d_plus), -np.ones(d - d_plus)]).astype(np.complex128)
    k = 1j * (b @ q1_pinv) + (kernel_vecs * signature) @ _dagger(kernel_vecs)

    involution = validate_graded_real_system(h, k, [a, b], policy).involution
    pair_res = rel_residual(b + 1j * (involution.matrix @ a), a)
    if pair_res > policy.algebra_tol:
        raise CrossCheckError(
            f"constructed involution violates Q2 = -iKQ1 "
            f"(residual {pair_res:.3e})")
    return involution


# ---------------------------------------------------------------------------
# standard representation


def standard_representation(system: GradedSystem,
                            policy: NumericPolicy = DEFAULT_POLICY) -> StandardRepresentation:
    """Rotate a single-charge graded system into grading-adapted blocks.

    The map A is the lower-left block of the real charge: of ``Q``
    itself, or of ``(q + q^dag)/sqrt(2)`` for a complex charge ``q``
    (:func:`real_from_complex`).  A complex charge odd under K and
    nilpotent is ``[[0, B], [C, 0]]`` with ``BC = CB = 0``, so the cross
    terms of ``A^dag A`` and ``A A^dag`` vanish; the strictly upper form
    ``q = sqrt(2) [[0, A^dag], [0, 0]]`` is the case ``C = 0``.  The
    charge's even blocks are checked against ``||q||``, and the sector
    blocks of H against ``A^dag A`` and ``A A^dag``, divided by ``||A||``
    twice.  Every relation is checked before any raises, so one
    :class:`ValidationError` names all that fail.  A is only determined
    up to the unitary freedom of the grading basis, so its contract is
    spectral, not entrywise.
    """
    if len(system.charges) != 1:
        raise ValueError(
            f"standard representation needs exactly one charge, "
            f"got {len(system.charges)}")
    q = system.charges[0]
    h = system.hamiltonian
    basis = grading_basis(system.involution, policy)
    tol = policy.algebra_tol

    q_bb, q_bf, q_fb, q_ff = block_extract(basis, q)
    checks = [RelationCheck.judge(
        "charge odd in the grading basis",
        _relative(math.hypot(residual_norm(q_bb), residual_norm(q_ff)),
                  residual_norm(q)), tol)]
    # A complex charge's A is that of its real charge (q + q^dag)/sqrt(2)
    # (real_from_complex).  Adding q_fb^dag before the adjoint, not q_fb
    # after it, keeps every bit of A, zero signs too, when q_fb is zero.
    a_op = _dagger(q_bf + _dagger(q_fb)) / _SQRT2 if system.complex_charges else q_fb

    h_plus, _, _, h_minus = block_extract(basis, h)
    # The partner forms are checked in float64 when A and both sector
    # blocks are real; the representation keeps the complex128 blocks.
    a_w, plus_w, minus_w = _real_if_exact(a_op, h_plus, h_minus)
    norm_a = residual_norm(a_w)
    off_plus = residual_norm(plus_w - _dagger(a_w) @ a_w)
    off_minus = residual_norm(minus_w - a_w @ _dagger(a_w))
    checks += [
        RelationCheck.judge("h_plus = A^dag A",
                            _relative(off_plus, norm_a, norm_a), tol),
        RelationCheck.judge("h_minus = A A^dag",
                            _relative(off_minus, norm_a, norm_a), tol),
    ]
    _raise_failures(checks, "system does not reduce to the standard representation")
    return StandardRepresentation(
        basis, frozen_copy(a_op), frozen_copy(h_plus), frozen_copy(h_minus),
        (off_plus, off_minus))


# ---------------------------------------------------------------------------
# general single-charge and charge-pair forms


def hermitian_parts(a1) -> tuple[np.ndarray, np.ndarray]:
    """Split ``A1 = a1 + i a2`` into its Hermitian and anti-Hermitian parts.

    ``a1`` is exactly Hermitian by construction; ``a2`` is Hermitian to
    rounding and ``a1 + i a2`` reproduces ``A1`` to within one rounding
    per entry (exactly, whenever the complementary subtraction is exact).
    """
    arr = as_operator(a1, "A1")
    part1 = 0.5 * (arr + _dagger(arr))
    part2 = -1j * (arr - part1)
    return part1, part2


def _require_hermitian_parts(a1, a2, policy):
    p1, p2 = _as_operators((("a1", a1), ("a2", a2)))
    _require_self_adjoint((("a1", p1), ("a2", p2)), policy, "parts must be Hermitian")
    return p1, p2


def charges_from_parts(a1, a2,
                       policy: NumericPolicy = DEFAULT_POLICY) -> tuple[np.ndarray, np.ndarray]:
    """Assemble the canonical charge pair from two Hermitian parts.

    ``Q1 = sigma_1 (x) a1 + sigma_2 (x) a2`` and
    ``Q2 = sigma_2 (x) a1 - sigma_1 (x) a2``; the pair is odd for
    ``K = sigma_3 (x) 1`` and satisfies ``Q2 = -iKQ1``.  ``Q2`` is unique
    up to this global sign, which flips under ``(a1, a2) -> (a2, -a1)``.
    """
    p1, p2 = _require_hermitian_parts(a1, a2, policy)
    q1 = np.kron(SIGMA1, p1) + np.kron(SIGMA2, p2)
    q2 = np.kron(SIGMA2, p1) - np.kron(SIGMA1, p2)
    return q1, q2


def hamiltonian_from_parts(a1, a2,
                           policy: NumericPolicy = DEFAULT_POLICY) -> np.ndarray:
    """Hamiltonian of the :func:`charges_from_parts` pair,
    ``1 (x) (a1^2 + a2^2) + sigma_3 (x) i[a1, a2]``."""
    p1, p2 = _require_hermitian_parts(a1, a2, policy)
    even = np.kron(np.eye(2), p1 @ p1 + p2 @ p2)
    twist = np.kron(SIGMA3, 1j * (p1 @ p2 - p2 @ p1))
    return even + twist


# ---------------------------------------------------------------------------
# reparametrization freedom


def reparametrize(system, rotation,
                  policy: NumericPolicy = DEFAULT_POLICY):
    """Rotate a two-real-charge system by an orthogonal 2x2 matrix.

    The transformed charges satisfy the same algebra with the *same*
    Hamiltonian, which is passed through untouched; the result is
    revalidated.  Works for plain and graded systems alike and returns
    the same kind it was given.
    """
    if system.complex_charges or len(system.charges) != 2:
        raise ValueError("reparametrize needs a system with exactly two "
                         "real charges")
    rot = _require_numbers(rotation, "rotation")
    if rot.shape != (2, 2):
        raise ShapeError(f"rotation must be 2x2, got shape {rot.shape}")
    real = rot.real
    _raise_failures([
        RelationCheck.judge("R real", residual_norm(rot.imag), 0.0),
        RelationCheck.judge("R^T R = 1", residual_norm(real.T @ real - np.eye(2)),
                            policy.algebra_tol),
    ], "rotation R must be real and orthogonal")
    q1, q2 = system.charges
    new_charges = [real[0, 0] * q1 + real[0, 1] * q2,
                   real[1, 0] * q1 + real[1, 1] * q2]
    if isinstance(system, GradedSystem):
        return validate_graded_real_system(
            system.hamiltonian, system.involution.matrix, new_charges, policy)
    return validate_real_system(system.hamiltonian, new_charges, policy)
