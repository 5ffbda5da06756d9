"""Every refusal of an input at an operator boundary takes one of two
forms: a broken relation raises ValidationError carrying a RelationCheck
for each failure, and a wrong shape raises ShapeError naming the operand."""
import math

import numpy as np
import pytest

from susyqm import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    NumericPolicy,
    ShapeError,
    ValidationError,
    anticommutator,
    block_extract,
    charges_from_parts,
    check_pairing_relation,
    classify_operator,
    commutator,
    complex_from_real,
    construct_involution,
    eigh,
    eigvalsh,
    grading_basis,
    hamiltonian_from_parts,
    inverse_on_complement,
    kernel_basis,
    kernel_equality_check,
    reparametrize,
    second_supercharge,
    spectral_pairing_report,
    standard_representation,
    validate_complex_system,
    validate_graded_complex_system,
    validate_graded_real_system,
    validate_real_system,
    witten_index_report,
)
from susyqm import analysis
from susyqm.grading import Involution
from susyqm.models import LatticeSpec, pauli_lattice

LOOSE = NumericPolicy(hermiticity_tol=1e-3, algebra_tol=1e-3)
NOT_HERMITIAN = [[1.0, 2.0], [0.0, 1.0]]
I2 = np.eye(2)
I3 = np.eye(3)
K4 = np.diag([1.0, 1.0, -1.0, -1.0])


def _nearly_odd_charge():
    # {K, Q} = 2e-6: inside the loose algebra tolerance, far outside the
    # default one that the standard representation applies.
    q = SIGMA1 + 1e-6 * SIGMA3
    return standard_representation(
        validate_graded_real_system(q @ q, SIGMA3, [q], LOOSE))


def _lower_left_block():
    b = np.zeros((2, 2))
    b[0, 0] = 1.0
    c = np.zeros((2, 2))
    c[1, 1] = 1.0
    q = np.block([[np.zeros((2, 2)), b], [c, np.zeros((2, 2))]])
    h = 0.5 * (q @ q.T + q.T @ q)
    return standard_representation(validate_graded_complex_system(h, K4, [q]))


def _h_plus_off_partner_form():
    h = np.diag([1.0 + 1e-6, 1.0])
    return standard_representation(
        validate_graded_real_system(h, SIGMA3, [SIGMA1], LOOSE))


def _asymmetric_sector_block(report):
    # h_plus = A^T A + 1e-6 S with S antisymmetric passes the standard
    # representation at algebra_tol 1e-3 and fails a 1e-12 Hermiticity
    # tolerance on the sector block.
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    h = np.zeros((4, 4))
    h[:2, :2] = a.T @ a + 1e-6 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    h[2:, 2:] = a @ a.T
    q = np.zeros((4, 4))
    q[2:, :2] = a
    q[:2, 2:] = a.T
    system = validate_graded_real_system(h, K4, [q], LOOSE)
    return report(system, NumericPolicy(hermiticity_tol=1e-12, algebra_tol=1e-3))


def _two_charge_system():
    return validate_real_system(I2, [SIGMA1, SIGMA2])


RESIDUAL_REJECTIONS = [
    pytest.param(lambda: eigvalsh(NOT_HERMITIAN), ["A self-adjoint"],
                 id="eigvalsh"),
    pytest.param(lambda: eigh(NOT_HERMITIAN), ["A self-adjoint"], id="eigh"),
    pytest.param(lambda: inverse_on_complement(NOT_HERMITIAN), ["A self-adjoint"],
                 id="inverse_on_complement"),
    pytest.param(lambda: grading_basis(Involution(np.array([[0, 1], [0, 0]], dtype=complex))),
                 ["K self-adjoint"], id="grading_basis-hermitian"),
    pytest.param(lambda: grading_basis(Involution(np.diag([1.0, 0.5, -1.0]).astype(complex))),
                 ["K U = U diag(+-1)"], id="grading_basis-involution"),
    pytest.param(_nearly_odd_charge, ["charge odd in the grading basis"],
                 id="standard_representation-odd"),
    pytest.param(_lower_left_block, ["complex charge has no lower-left block",
                                     "h_plus = A^dag A", "h_minus = A A^dag"],
                 id="standard_representation-lower-left"),
    pytest.param(_h_plus_off_partner_form, ["h_plus = A^dag A"],
                 id="standard_representation-partner-form"),
    pytest.param(lambda: reparametrize(_two_charge_system(), [[1.0, 1e-3j], [0.0, 1.0]]),
                 ["R real"], id="reparametrize-real"),
    pytest.param(lambda: reparametrize(_two_charge_system(), [[1.0, 1.0], [0.0, 1.0]]),
                 ["R^T R = 1"], id="reparametrize-orthogonal"),
    pytest.param(lambda: kernel_equality_check(SIGMA1, 2.0 * SIGMA3), ["Q1^2 = Q2^2"],
                 id="kernel_equality_check-squares"),
    pytest.param(lambda: pauli_lattice(LatticeSpec(5, 1.0), np.zeros(25), np.ones(25)),
                 ["a_y(-r) = -a_y(r)"], id="pauli_lattice-parity"),
    pytest.param(lambda: _asymmetric_sector_block(witten_index_report),
                 ["h_plus self-adjoint"], id="sector-blocks-index"),
    pytest.param(lambda: _asymmetric_sector_block(spectral_pairing_report),
                 ["h_plus self-adjoint"], id="sector-blocks-pairing"),
    pytest.param(lambda: charges_from_parts(NOT_HERMITIAN, I2), ["a1 self-adjoint"],
                 id="charges_from_parts"),
]


@pytest.mark.parametrize("reject,names", RESIDUAL_REJECTIONS)
def test_residual_rejection_names_each_failed_relation(reject, names):
    with pytest.raises(ValidationError) as excinfo:
        reject()
    failures = excinfo.value.failures
    assert [c.name for c in failures] == names
    for check in failures:
        assert not check.passed
        assert check.name in str(excinfo.value)


def test_nan_precondition_residual_fails(monkeypatch):
    # A NaN residual fails the precondition rather than letting the
    # kernel comparison run.  Finite charges give none (they are squared
    # scaled), so the norms are made NaN.
    monkeypatch.setattr(analysis, "residual_norm", lambda x: math.nan)
    with pytest.raises(ValidationError) as excinfo:
        kernel_equality_check(SIGMA1, SIGMA3)
    [check] = excinfo.value.failures
    assert check.name == "Q1^2 = Q2^2"
    assert np.isnan(check.residual)


def test_charges_beyond_1e154_fail_the_precondition_with_a_finite_residual():
    # Squared bare, both charges would overflow to a NaN residual (and a
    # RuntimeWarning); squared scaled, the residual is the unscaled one.
    q2 = np.diag([1.0, 0.0])
    with pytest.raises(ValidationError) as excinfo:
        kernel_equality_check(SIGMA1, q2)
    [want] = excinfo.value.failures
    with pytest.raises(ValidationError) as excinfo:
        kernel_equality_check(2.0**600 * SIGMA1, 2.0**600 * q2)
    [check] = excinfo.value.failures
    assert check.name == "Q1^2 = Q2^2"
    assert check.residual == want.residual == 1 / math.sqrt(2)


SHAPE_MISMATCHES = [
    pytest.param(lambda: commutator(I2, I3), "B", id="commutator"),
    pytest.param(lambda: anticommutator(I2, I3), "B", id="anticommutator"),
    pytest.param(lambda: second_supercharge(SIGMA3, I3), "Q", id="second_supercharge"),
    pytest.param(lambda: construct_involution(SIGMA1, I3), "Q2", id="construct_involution"),
    pytest.param(lambda: kernel_equality_check(SIGMA1, I3), "Q2",
                 id="kernel_equality_check"),
    pytest.param(lambda: check_pairing_relation(SIGMA3, SIGMA1, I3), "Q2",
                 id="check_pairing_relation"),
    pytest.param(lambda: complex_from_real(SIGMA1, I3), "Q2", id="complex_from_real"),
    pytest.param(lambda: charges_from_parts(I2, I3), "a2", id="charges_from_parts"),
    pytest.param(lambda: hamiltonian_from_parts(I2, I3), "a2", id="hamiltonian_from_parts"),
    pytest.param(lambda: validate_real_system(I2, [SIGMA1, I3]), "Q2",
                 id="validate_real_system"),
    pytest.param(lambda: validate_complex_system(I2, [I3]), "q1",
                 id="validate_complex_system"),
    pytest.param(lambda: validate_graded_real_system(I2, I3, [SIGMA1]), "K",
                 id="validate_graded_real_system"),
    pytest.param(lambda: validate_graded_complex_system(I2, SIGMA3, [I3]), "q1",
                 id="validate_graded_complex_system"),
    pytest.param(lambda: classify_operator(Involution(SIGMA3.copy()), I3), "M",
                 id="classify_operator"),
    pytest.param(lambda: block_extract(grading_basis(Involution(SIGMA3.copy())), I3), "M",
                 id="block_extract"),
]


@pytest.mark.parametrize("reject,name", SHAPE_MISMATCHES)
def test_shape_mismatch_names_the_operand(reject, name):
    with pytest.raises(ShapeError, match=rf"^{name} has shape \(3, 3\), expected \(2, 2\)$"):
        reject()


def test_kernel_basis_of_a_vector_is_a_shape_error():
    with pytest.raises(ShapeError, match="expects a matrix"):
        kernel_basis(np.zeros(3))
