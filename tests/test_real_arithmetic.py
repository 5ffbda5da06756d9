"""Real systems are checked in float64, complex ones in complex128.

A relation whose operands all have imaginary parts exactly zero is
computed on their real parts (``core._real_if_exact``); the verdicts
must be those of complex arithmetic, the residuals must agree with it to
rounding, and the stored operators must stay the complex128 inputs.
The reference here is plain numpy in complex128, independent of the
library's relation code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (
    DEFAULT_POLICY,
    SIGMA1,
    ValidationError,
    is_hermitian,
    standard_representation,
    validate_graded_complex_system,
    validate_graded_real_system,
    validate_real_system,
)
from susyqm import core, susy

from conftest import c07_system

EPS = np.finfo(np.float64).eps


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diagonal(r))


def real_graded_system(rng, db, df, nilpotent, rotate):
    """Real ``(H, K, charge)`` in block form from a real ``df x db`` map A:
    the self-adjoint ``[[0, A^T], [A, 0]]`` or the nilpotent
    ``sqrt(2) [[0, A^T], [0, 0]]``, optionally rotated by a real
    orthogonal matrix so that K is dense."""
    a = rng.normal(size=(df, db))
    n = db + df
    h = np.zeros((n, n))
    h[:db, :db] = a.T @ a
    h[db:, db:] = a @ a.T
    k = np.diag(np.concatenate([np.ones(db), -np.ones(df)]))
    q = np.zeros((n, n))
    if nilpotent:
        q[:db, db:] = np.sqrt(2.0) * a.T
    else:
        q[:db, db:] = a.T
        q[db:, :db] = a
    if rotate:
        o = _orthogonal(rng, n)
        h, k, q = (o @ m @ o.T for m in (h, k, q))
    return h, k, q


def reference_checks(h, charges, k, complex_charges, policy=DEFAULT_POLICY):
    """``name -> (residual, error scale, passed)`` of every relation that
    the validators check, in complex128.  Each residual is divided by the
    product of the norms of its relation's own operands; over a zero
    product a nonzero residual is infinite and a zero one zero.  K has
    no units, so only the charge's or H's norm divides a relation with
    K, and the involution relations divide by the dimension.  The error
    scale bounds the size of the terms that the residual's rounding comes
    from, over the residual's denominator."""
    h = np.asarray(h, dtype=complex)
    k = np.asarray(k, dtype=complex)
    qs = [np.asarray(q, dtype=complex) for q in charges]
    n = h.shape[0]
    eye = np.eye(n)

    def norm(x):
        return float(np.linalg.norm(x))

    def over(*norms):
        return math.prod(norms)

    def ratio(x, scale):
        return x / scale if scale else (math.inf if x else 0.0)

    out = {}

    def check(name, x, terms, scale, tol, must_exceed=False):
        r = ratio(norm(x), scale)
        out[name] = (r, ratio(norm(x) + terms, scale),
                     r > tol if must_exceed else r <= tol)

    def dag(x):
        return x.conj().T

    tol, h_tol = policy.algebra_tol, policy.hermiticity_tol
    nh, nk = norm(h), norm(k)
    ns = [norm(q) for q in qs]
    label = "q" if complex_charges else "Q"
    names = [f"{label}{i + 1}" for i in range(len(qs))]
    check("H self-adjoint", h - dag(h), 0.0, over(nh), h_tol)
    check("H != 0", h, 0.0, over(max(ns), max(ns)), tol, must_exceed=True)
    for name, q, nq in zip(names, qs, ns):
        if complex_charges:
            check(f"{name} not self-adjoint (a self-adjoint complex charge "
                  f"forces H = 0)", q - dag(q), 0.0, over(nq), h_tol,
                  must_exceed=True)
        else:
            check(f"{name} self-adjoint", q - dag(q), 0.0, over(nq), h_tol)
    for i in range(len(qs)):
        for j in range(i, len(qs)):
            a, b, na, nb = qs[i], qs[j], ns[i], ns[j]
            same = i == j
            target = 2.0 * h if same else 0.0
            rhs = "2H" if same else "0"
            scale = over(na, nb)
            terms = 2.0 * na * nb + (2.0 * nh if same else 0.0)
            qi, qj = names[i], names[j]
            if complex_charges:
                check(f"{{{qi},{qj}^dag}} = {rhs}", a @ dag(b) + dag(b) @ a - target,
                      terms, scale, tol)
                check(f"{{{qi},{qj}}} = 0", a @ b + b @ a, 2.0 * na * nb, scale, tol)
            else:
                check(f"{{{qi},{qj}}} = {rhs}", a @ b + b @ a - target, terms, scale, tol)
    for name, q, nq in zip(names, qs, ns):
        check(f"[H,{name}] = 0", h @ q - q @ h, 2.0 * nh * nq, over(nh, nq), tol)
    check("K self-adjoint", k - dag(k), 0.0, over(nk), h_tol)
    check("K^2 = 1", k @ k - eye, nk * nk + n**0.5, n, tol)
    check("K != +1", k - eye, 0.0, n, tol, must_exceed=True)
    check("K != -1", k + eye, 0.0, n, tol, must_exceed=True)
    for name, q, nq in zip(names, qs, ns):
        check(f"{{K,{name}}} = 0", k @ q + q @ k, 2.0 * nk * nq, over(nq), tol)
    check("[H,K] = 0", h @ k - k @ h, 2.0 * nh * nk, over(nh), tol)
    return out


CORRUPTIONS = ("none", "H entry", "H symmetric pair", "charge entry",
               "K entry", "repeated charge", "zero charge")


def _bumped(m, rng, size, symmetric=False):
    out = np.array(m)
    i, j = rng.integers(out.shape[0], size=2)
    out[i, j] += size
    if symmetric and i != j:
        out[j, i] += size
    return out


@settings(max_examples=60, deadline=None)
@given(db=st.integers(1, 6), df=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       nilpotent=st.booleans(), rotate=st.booleans(),
       corruption=st.sampled_from(CORRUPTIONS), exponent=st.floats(-6.0, 0.0))
def test_real_verdicts_and_residuals_match_complex_reference(
        db, df, seed, nilpotent, rotate, corruption, exponent):
    """Every verdict on a real graded system, valid or singly corrupted,
    with a self-adjoint or a nilpotent charge, is the complex128
    reference's, and every residual is within ``8 dim eps`` of its error
    scale from the reference's."""
    rng = np.random.default_rng(seed)
    h, k, q = real_graded_system(rng, db, df, nilpotent, rotate)
    size = 10.0**exponent * max(1.0, float(np.abs(h).max()))
    charges = [q]
    if corruption == "H entry":
        h = _bumped(h, rng, size)
    elif corruption == "H symmetric pair":
        h = _bumped(h, rng, size, symmetric=True)
    elif corruption == "charge entry":
        charges = [_bumped(q, rng, size)]
    elif corruption == "K entry":
        k = _bumped(k, rng, size)
    elif corruption == "repeated charge":
        charges = [q, q]
    elif corruption == "zero charge":
        charges = [q, np.zeros_like(q)]
    validate = validate_graded_complex_system if nilpotent else validate_graded_real_system
    ref = reference_checks(h, charges, k, nilpotent)
    failed_ref = [name for name, (_, _, passed) in ref.items() if not passed]
    try:
        got = validate(h, k, charges).checks
    except ValidationError as exc:
        got = exc.failures
    else:
        assert sorted(c.name for c in got) == sorted(ref)
    assert sorted(c.name for c in got if not c.passed) == sorted(failed_ref)
    bound = 8 * h.shape[0] * EPS
    for c in got:
        residual, scale, passed = ref[c.name]
        assert c.passed == passed, c.name
        # Over a zero norm the ratio is exactly 0 or infinite.
        assert (abs(c.residual - residual) <= bound * scale if math.isfinite(scale)
                else c.residual == residual), (c.name, c.residual, residual)


def _checks(system_or_exc):
    return [(c.name, c.residual, c.passed) for c in system_or_exc]


def _forced_complex(monkeypatch):
    """Make every relation check take complex arithmetic."""
    monkeypatch.setattr(susy, "_real_if_exact", lambda *ops: ops)
    monkeypatch.setattr(core, "_real_if_exact", lambda *ops: ops)


def _negative_zero_imag(m):
    """``m`` as complex128 whose every imaginary part is ``-0.0``."""
    out = np.empty(np.shape(m), dtype=complex)
    out.real = m
    out.imag = -0.0
    return out


def _small_real_system():
    return real_graded_system(np.random.default_rng(7), 5, 4, nilpotent=False,
                              rotate=True)


class TestArithmeticDecision:
    def test_subnormal_imaginary_part_is_complex_negative_zero_is_real(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]], dtype=complex)
        subnormal = a.copy()
        subnormal[0, 1] += 5e-324j
        negative_zero = _negative_zero_imag(a.real)
        assert np.signbit(negative_zero.imag).all()
        assert core._real_if_exact(a, subnormal) == (a, subnormal)
        for out in core._real_if_exact(a, negative_zero):
            assert out.dtype == np.float64 and out.flags.c_contiguous
            assert np.array_equal(out, a.real)

    def test_subnormal_imaginary_entry_gives_the_complex_residuals(self, monkeypatch):
        h, k, q = _small_real_system()
        h = h.astype(complex)
        h[0, 1] += 5e-324j
        plain = _checks(validate_graded_real_system(h, k, [q]).checks)
        _forced_complex(monkeypatch)
        assert plain == _checks(validate_graded_real_system(h, k, [q]).checks)
        assert core._hermiticity_residual(h) == plain[0][1]

    def test_negative_zero_imaginary_parts_give_the_real_residuals(self, monkeypatch):
        h, k, q = _small_real_system()
        signed = [_negative_zero_imag(m) for m in (h, k, q)]
        real = _checks(validate_graded_real_system(h, k, [q]).checks)
        decided = []

        def spy(*ops):
            out = core._real_if_exact(*ops)
            decided.append({op.dtype for op in out})
            return out

        monkeypatch.setattr(susy, "_real_if_exact", spy)
        assert _checks(validate_graded_real_system(
            signed[0], signed[1], [signed[2]]).checks) == real
        assert decided == [{np.dtype(np.float64)}]

    def test_one_decision_for_the_whole_system(self, monkeypatch):
        """A real H and K with an imaginary charge are checked in complex
        arithmetic throughout, H's Hermiticity included."""
        h, k, q = _small_real_system()
        charge = q.astype(complex)
        charge[0, 1] += 5e-324j
        charge[1, 0] -= 5e-324j
        plain = _checks(validate_graded_real_system(h, k, [charge]).checks)
        _forced_complex(monkeypatch)
        assert plain == _checks(validate_graded_real_system(h, k, [charge]).checks)

    def test_stored_operators_are_the_complex_inputs_bit_for_bit(self):
        h, k, q = (_negative_zero_imag(m) for m in _small_real_system())
        for system in (validate_graded_real_system(h, k, [q]),
                       validate_real_system(h, [q])):
            for stored, given_ in ((system.hamiltonian, h), (system.charges[0], q)):
                assert stored.dtype == np.complex128
                assert stored.tobytes() == given_.tobytes()
        graded = validate_graded_real_system(h, k, [q])
        assert graded.involution.matrix.dtype == np.complex128
        assert graded.involution.matrix.tobytes() == k.tobytes()
        rep = standard_representation(graded)
        for block in (rep.a_operator, rep.h_plus, rep.h_minus):
            assert block.dtype == np.complex128

    def test_c07_residuals_move_at_rounding_only(self, monkeypatch):
        system = c07_system(1)
        real = system.checks
        _forced_complex(monkeypatch)
        forced = validate_graded_real_system(
            system.hamiltonian, system.involution.matrix, system.charges).checks
        for r, c in zip(real, forced):
            assert (r.name, r.passed) == (c.name, c.passed)
            assert abs(r.residual - c.residual) <= 8 * system.dim * EPS * max(1.0, c.residual)

    def test_overflowing_product_fails_on_both_paths(self):
        """``{Q,Q}`` of entries 1e200 overflows: real arithmetic gives an
        infinite residual, complex arithmetic a NaN; both fail."""
        q_real = 1e200 * SIGMA1.real
        q_complex = 1e200 * SIGMA1
        q_complex[0, 1] += 5e-324j
        q_complex[1, 0] -= 5e-324j
        residuals = []
        for q in (q_real, q_complex):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(ValidationError) as info:
                validate_real_system(np.eye(2), [q])
            [failure] = [c for c in info.value.failures if c.name == "{Q1,Q1} = 2H"]
            residuals.append(failure.residual)
        assert residuals[0] == np.inf
        assert np.isnan(residuals[1])


def test_hermiticity_gates_decide_per_operand(monkeypatch):
    """``is_hermitian`` checks a real matrix in float64, with the residual
    of its float64 part bit for bit, and a complex one in complex128."""
    decided = []

    def spy(*ops, real_if_exact=core._real_if_exact):
        out = real_if_exact(*ops)
        decided.append([op.dtype for op in out])
        return out

    rng = np.random.default_rng(3)
    m = rng.normal(size=(9, 9))
    m = m + m.T
    m[0, 1] += 1e-12
    residual = core._hermiticity_residual(m)
    monkeypatch.setattr(core, "_real_if_exact", spy)
    assert core._hermiticity_residual(m.astype(complex)) == residual
    assert is_hermitian(m) and is_hermitian(m + 1e-3j * (m - m.T))
    assert decided == [[np.float64], [np.float64], [np.complex128]]
