"""Verdicts do not depend on units.

Scaling ``Q -> 2^e Q``, ``H -> 2^{2e} H`` with K fixed is exact in
floating point, and every residual is divided by the norms of its own
relation's operands, so every residual ratio, every verdict and both
reports must come out the same at every ``e``, bit for bit.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyqm import (
    SIGMA1,
    SIGMA3,
    CrossCheckError,
    LatticeSpec,
    ValidationError,
    construct_involution,
    io,
    is_hermitian,
    kernel_equality_check,
    random_graded_system,
    real_from_complex,
    spectral_pairing_report,
    validate_complex_system,
    validate_graded_complex_system,
    validate_graded_real_system,
    validate_real_system,
    witten_index_report,
    witten_model_lattice,
)
from susyqm.cli import main


def _scaled(a, e):
    """``a * 2**e``, entry by entry, on the real and imaginary parts."""
    a = np.asarray(a, dtype=complex)
    out = np.empty_like(a)
    out.real = np.ldexp(a.real, e)
    out.imag = np.ldexp(a.imag, e)
    return out


def _checks(validate, *args):
    """``(name, residual, passed)`` of every relation, and whether the
    system was refused."""
    try:
        checks, refused = validate(*args).checks, False
    except ValidationError as exc:
        checks, refused = exc.failures, True
    return [(c.name, c.residual, c.passed) for c in checks], refused


def _system(case, seed):
    """``(H, K, charges, validators)`` of one system of the corpus; each
    validator takes ``(H, K, charges)``."""
    if case == "lattice":
        spec = LatticeSpec(21, 0.5, "dirichlet")
        s = witten_model_lattice(spec, (-1) ** seed * spec.coordinates())
        return (s.hamiltonian, s.involution.matrix, list(s.charges),
                [validate_graded_real_system, lambda h, k, qs: validate_real_system(h, qs)])
    s = random_graded_system(1 + seed % 5, 1 + seed // 5 % 4, seed,
                             conjugate=case == "conjugated")
    h, k, [q] = s.hamiltonian, s.involution.matrix, s.charges
    if case == "real pair":
        return (h, k, list(real_from_complex(q)),
                [validate_graded_real_system, lambda h, k, qs: validate_real_system(h, qs)])
    return (h, k, [q], [validate_graded_complex_system,
                        lambda h, k, qs: validate_complex_system(h, qs)])


def _reports(system):
    pair, index = spectral_pairing_report(system), witten_index_report(system)
    return (pair.pairs, pair.unpaired_bosonic_zero_modes,
            pair.unpaired_fermionic_zero_modes, pair.witten_index, index)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["random", "conjugated", "real pair", "lattice"]),
       seed=st.integers(0, 39), e=st.integers(-60, 60))
def test_validators_and_reports_ignore_units(case, seed, e):
    h, k, charges, validators = _system(case, seed)
    h_e, charges_e = _scaled(h, 2 * e), [_scaled(q, e) for q in charges]
    for validate in validators:
        assert _checks(validate, h_e, k, charges_e) == _checks(validate, h, k, charges)
    if len(charges) == 1:
        system = validators[0](h, k, charges)
        system_e = validators[0](h_e, k, charges_e)
        assert _reports(system_e) == _reports(system)
        pair, pair_e = spectral_pairing_report(system), spectral_pairing_report(system_e)
        for ev, ev_e in ((pair.bosonic_eigenvalues, pair_e.bosonic_eigenvalues),
                         (pair.fermionic_eigenvalues, pair_e.fermionic_eigenvalues)):
            assert np.array_equal(np.ldexp(ev, 2 * e), ev_e)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 39), e=st.integers(-60, 60))
def test_constructed_involution_ignores_units(seed, e):
    system = random_graded_system(1 + seed % 5, 1 + seed // 5 % 4, seed)
    q1, q2 = real_from_complex(system.charges[0])
    q1_e, q2_e = _scaled(q1, e), _scaled(q2, e)
    k = construct_involution(q1, q2).matrix
    k_e = construct_involution(q1_e, q2_e).matrix
    assert k_e.tobytes() == k.tobytes()
    assert (_checks(validate_graded_real_system, q1_e @ q1_e, k_e, [q1_e, q2_e])
            == _checks(validate_graded_real_system, q1 @ q1, k, [q1, q2]))


def _charge_pair(case, seed):
    """A pair of self-adjoint charges: the real pair of a random graded
    system or of a Witten lattice (equal squares, shared kernels), or a
    pair that ``kernel_equality_check`` refuses on ``Q1^2 = Q2^2`` or on
    its kernel dimensions."""
    if case == "random":
        s = random_graded_system(1 + seed % 5, 1 + seed // 5 % 4, seed)
        return real_from_complex(s.charges[0])
    if case == "lattice":
        spec = LatticeSpec(21, 0.5, "dirichlet")
        s = witten_model_lattice(spec, (-1) ** seed * spec.coordinates())
        q1 = np.asarray(s.charges[0])
        return q1, -1j * (np.asarray(s.involution.matrix) @ q1)
    return {"unequal squares": (SIGMA1, 2.0 * SIGMA3),
            "zero charge": (SIGMA1, np.zeros((2, 2))),
            "kernels differ": (np.diag([1.0, 4e-8]), np.diag([1.0, 0.0]))}[case]


def _kernel_equality(q1, q2, e):
    """``kernel_equality_check`` of the pair scaled by ``2**e``: its kernel
    dims and residuals, in the units of the unscaled pair, or its
    refusal."""
    try:
        r = kernel_equality_check(_scaled(q1, e), _scaled(q2, e))
    except ValidationError as exc:
        return [(c.name, c.residual, c.passed) for c in exc.failures]
    except CrossCheckError as exc:
        return str(exc)
    return (r.dim_kernel_q1, r.dim_kernel_q2, math.ldexp(r.max_residual_q2_on_ker_q1, -e),
            math.ldexp(r.max_residual_q1_on_ker_q2, -e))


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(["random", "lattice", "unequal squares", "zero charge",
                             "kernels differ"]),
       seed=st.integers(0, 39),
       e=st.one_of(st.integers(-600, 600), st.integers(-600, -512)))
@example(case="unequal squares", seed=0, e=-565)
@example(case="zero charge", seed=0, e=-565)
def test_kernel_equality_ignores_units(case, seed, e):
    # Below 2**-512 the squares of the bare charges underflow to zero; the
    # check squares them scaled by one power of two, both ways.
    q1, q2 = _charge_pair(case, seed)
    assert _kernel_equality(q1, q2, e) == _kernel_equality(q1, q2, 0)


def _bumped(e):
    """``random_graded_system(5, 3, 1)`` scaled by ``2**e``, with H's
    diagonal raised by 5%."""
    s = random_graded_system(5, 3, 1)
    h = _scaled(s.hamiltonian, 2 * e)
    return h + 0.05 * np.diag(np.diag(h)), s.involution.matrix, [_scaled(s.charges[0], e)]


@pytest.mark.parametrize("e", [-40, -20, -17, 0, 8, 20])
def test_unit_scale_systems_validate_at_every_scale(e):
    h, k, [q] = _bumped(e)
    s = random_graded_system(5, 3, 1)
    validate_graded_complex_system(_scaled(s.hamiltonian, 2 * e), k, [q])
    with pytest.raises(ValidationError) as excinfo:
        validate_graded_complex_system(h, k, [q])
    assert [c.name for c in excinfo.value.failures] == ["{q1,q1^dag} = 2H", "[H,q1] = 0"]


@pytest.mark.parametrize("verb", ["validate", "index", "pair"])
def test_bumped_system_exits_one_from_every_verb(tmp_path, verb):
    h, k, charges = _bumped(-17)
    path = tmp_path / "bumped.json"
    io.save_system(path, io.SystemFile(h, k, tuple(charges), True))
    assert main([verb, str(path)]) == 1


@pytest.mark.parametrize("e", [-40, -20, -17, 0, 8, 20])
def test_zero_charge_beside_a_valid_one_is_refused_at_every_scale(e):
    """``{Q2,Q2} = 2H`` with ``Q2 = 0`` leaves ``2||H||`` over a zero norm:
    infinite at every scale, never an absolute residual that a small
    enough H would pass."""
    q1, _ = real_from_complex(random_graded_system(5, 3, 1).charges[0])
    q1_e = _scaled(q1, e)
    zero = np.zeros_like(q1_e)
    with pytest.raises(ValidationError) as excinfo:
        validate_real_system(q1_e @ q1_e, [q1_e, zero])
    assert [(c.name, c.residual) for c in excinfo.value.failures] == [
        ("{Q2,Q2} = 2H", np.inf)]
    s = random_graded_system(5, 3, 1)
    q = _scaled(s.charges[0], e)
    with pytest.raises(ValidationError) as excinfo:
        validate_complex_system(_scaled(s.hamiltonian, 2 * e), [q, np.zeros_like(q)])
    assert [(c.name, c.residual) for c in excinfo.value.failures] == [
        ("q2 not self-adjoint (a self-adjoint complex charge forces H = 0)", 0.0),
        ("{q2,q2^dag} = 2H", np.inf)]


def test_zero_hamiltonian_with_zero_charges_is_refused():
    zero = np.zeros((2, 2))
    with pytest.raises(ValidationError) as excinfo:
        validate_real_system(zero, [zero])
    assert [c.name for c in excinfo.value.failures] == ["H != 0"]
    with pytest.raises(ValidationError) as excinfo:
        validate_graded_real_system(zero, SIGMA3, [zero])
    assert [c.name for c in excinfo.value.failures] == ["H != 0"]


def test_zero_matrix_is_hermitian():
    assert is_hermitian(np.zeros((3, 3)))
