"""Every refusal of an input at an operator boundary takes one of three
forms: a broken relation raises ValidationError carrying a RelationCheck
for each failure, a wrong shape raises ShapeError naming the operand, and
a value that is not a finite number raises TypeError (not a number) or
ValueError (a NaN or an infinity) naming the argument."""
import dataclasses
import math
from fractions import Fraction

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
    build_model,
    decompose_vector,
    eigh,
    eigvalsh,
    grading_basis,
    hamiltonian_from_parts,
    inverse_on_complement,
    kernel_basis,
    kernel_equality_check,
    rel_residual,
    reparametrize,
    residual_norm,
    second_supercharge,
    spectral_pairing_report,
    standard_representation,
    validate_complex_system,
    validate_graded_complex_system,
    validate_graded_real_system,
    validate_involution,
    validate_real_system,
    witten_index_report,
    witten_model_lattice,
)
from susyqm import analysis, io
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


def _h_plus_off_partner_form():
    h = np.diag([1.0 + 1e-6, 1.0])
    return standard_representation(
        validate_graded_real_system(h, SIGMA3, [SIGMA1], LOOSE))


def _asymmetric_sector_block(report):
    # h_plus = A^T A + 1e-6 S with S antisymmetric passes the standard
    # representation at algebra_tol 1e-3, and H fails a 1e-12 Hermiticity
    # tolerance: the sector analysis gates H, the operator passed in.
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
    pytest.param(_h_plus_off_partner_form, ["h_plus = A^dag A"],
                 id="standard_representation-partner-form"),
    pytest.param(lambda: reparametrize(_two_charge_system(), [[1.0, 1.0], [0.0, 1.0]]),
                 ["R^T R = 1"], id="reparametrize-orthogonal"),
    pytest.param(lambda: kernel_equality_check(SIGMA1, 2.0 * SIGMA3), ["Q1^2 = Q2^2"],
                 id="kernel_equality_check-squares"),
    pytest.param(lambda: pauli_lattice(LatticeSpec(5, 1.0), np.zeros(25), np.ones(25)),
                 ["{K,Q1} = 0", "[H,K] = 0"], id="pauli_lattice-parity"),
    pytest.param(lambda: _asymmetric_sector_block(witten_index_report),
                 ["H self-adjoint"], id="sector-blocks-index"),
    pytest.param(lambda: _asymmetric_sector_block(spectral_pairing_report),
                 ["H self-adjoint"], id="sector-blocks-pairing"),
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
    # RuntimeWarning); squared scaled, the residual is the unscaled one:
    # ||Q1^2 - Q2^2|| = 1 divided twice by the larger charge norm, sqrt(2).
    q2 = np.diag([1.0, 0.0])
    with pytest.raises(ValidationError) as excinfo:
        kernel_equality_check(SIGMA1, q2)
    [want] = excinfo.value.failures
    with pytest.raises(ValidationError) as excinfo:
        kernel_equality_check(2.0**600 * SIGMA1, 2.0**600 * q2)
    [check] = excinfo.value.failures
    assert check.name == "Q1^2 = Q2^2"
    assert check.residual == want.residual == 1 / math.sqrt(2) / math.sqrt(2)


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


def _with_first(template, x):
    """``template``, a number or nested list, with its first number
    replaced by ``x``."""
    if not isinstance(template, list):
        return x
    return [_with_first(template[0], x)] + template[1:]


def _result_bytes(result):
    if isinstance(result, LatticeSpec):
        return repr(result), result.coordinates().tobytes()
    if hasattr(result, "hamiltonian"):
        return [np.asarray(op).tobytes()
                for op in (result.hamiltonian, *result.charges)]
    if isinstance(result, tuple):
        return [np.asarray(part).tobytes() for part in result]
    return np.asarray(result).tobytes()


def _outcome(call, value):
    try:
        return _result_bytes(call(value))
    except ValueError as exc:
        return type(exc)


_WITTEN3 = LatticeSpec(3, 0.5, "dirichlet")
_PAULI3 = LatticeSpec(3, 1.0)
_SIGMA3_INVOLUTION = validate_involution(SIGMA3)
_ZEROS9 = [0.0] * 9

# (entry point, the name its TypeError gives, whether it wants reals, a
# valid argument as a number or nested list, the call).
GATED = [
    ("witten_model_lattice", "superpotential", True, [1.0, 0.0, -1.0],
     lambda w: witten_model_lattice(_WITTEN3, w)),
    ("pauli_lattice", "a_x", True, _ZEROS9, lambda a: pauli_lattice(_PAULI3, a, _ZEROS9)),
    ("build_model-dx", "dx", True, 0.5,
     lambda dx: build_model({"model": "free_particle", "sites": 3, "dx": dx})),
    ("build_model-W", "W", True, [1.0, 0.0, -1.0],
     lambda w: build_model({"model": "witten", "sites": 3, "dx": 0.5, "W": w})),
    ("build_model-A_field", "A_field", True, _ZEROS9,
     lambda a: build_model({"model": "pauli", "sites": 3, "dx": 1.0,
                            "A_field": [a, _ZEROS9]})),
    ("LatticeSpec", "spacing", True, 0.5, lambda h: LatticeSpec(3, h, "dirichlet")),
    *[(f"NumericPolicy-{f.name}", f.name, True, 1e-9,
       lambda tol, name=f.name: NumericPolicy(**{name: tol}))
      for f in dataclasses.fields(NumericPolicy)],
    ("validate_real_system", "H", False, [[1.0, 0.0], [0.0, 1.0]],
     lambda h: validate_real_system(h, [SIGMA1, SIGMA2])),
    ("eigvalsh", "A", False, [[2.0, 1.0], [1.0, 2.0]], eigvalsh),
    ("kernel_basis", "kernel_basis input", False, [[1.0, 0.0], [0.0, 0.0]],
     lambda a: kernel_basis(a).basis),
    ("decompose_vector", "phi", False, [1.0, 2.0],
     lambda phi: decompose_vector(_SIGMA3_INVOLUTION, phi)),
    ("reparametrize", "rotation", True, [[1.0, 0.0], [0.0, 1.0]],
     lambda r: reparametrize(_two_charge_system(), r)),
    ("residual_norm", "residual_norm input", False, [[1.0, 2.0], [0.0, 1.0]],
     residual_norm),
    ("rel_residual", "residual_norm input", False, [[1.0, 2.0], [0.0, 1.0]],
     lambda x: rel_residual(x, I2)),
    ("rel_residual-operand", "residual_norm input", False, [[1.0, 2.0], [0.0, 1.0]],
     lambda op: rel_residual(I2, op)),
    ("matrix_to_obj", "matrix", False, [[1.0, 2.0], [0.0, 1.0]],
     lambda m: io.dump_json(io.matrix_to_obj(m))),
]

# (the argument made from a valid one, which entry points refuse it:
# "all", "real" (those that want reals) or "none").  An accepted value
# must give what its double (or complex double) gives.
NUMBER_TABLE = [
    pytest.param(lambda t: _with_first(t, True), "all", id="bool-entry"),
    pytest.param(lambda t: _with_first(t, np.bool_(False)), "all", id="numpy-bool-entry"),
    pytest.param(lambda t: np.asarray(np.asarray(t) != 0), "all", id="bool-array"),
    pytest.param(lambda t: _with_first(t, "0.5"), "all", id="numeric-string"),
    pytest.param(lambda t: np.asarray(t).astype(str), "all", id="string-array"),
    pytest.param(lambda t: _with_first(t, None), "all", id="none"),
    pytest.param(lambda t: _with_first(t, 0.5 + 0.5j), "real", id="complex-entry"),
    pytest.param(lambda t: np.asarray(t, dtype=complex), "real", id="complex-array"),
    pytest.param(lambda t: _with_first(t, 10**400), "all", id="too-large"),
    pytest.param(lambda t: _with_first(t, 2**70), "none", id="int-beyond-int64"),
    pytest.param(lambda t: _with_first(t, Fraction(1, 2)), "none", id="fraction"),
    pytest.param(lambda t: _with_first(t, np.float32(0.5)), "none", id="float32"),
    pytest.param(lambda t: _with_first(t, np.int64(1)), "none", id="int64"),
]


@pytest.mark.parametrize("make,refused_by", NUMBER_TABLE)
@pytest.mark.parametrize("entry,name,real,template,call", GATED,
                         ids=[g[0] for g in GATED])
def test_every_entry_point_gives_one_verdict_on_a_number(
        make, refused_by, entry, name, real, template, call):
    value = make(template)
    if refused_by == "all" or (refused_by == "real" and real):
        with pytest.raises(TypeError, match=rf"^{name} (must be|has a number)"):
            call(value)
        return
    cast = float if real else complex
    as_double = np.vectorize(cast, otypes=[object])(
        np.asarray(value, dtype=object)).tolist()
    assert _outcome(call, value) == _outcome(call, as_double)


# NaN and both infinities as the first entry of each entry point's valid
# argument, and an infinite imaginary part where complex values are
# allowed (a real entry point refuses any complex entry as not real).
NON_FINITE = [
    pytest.param(_with_first(template, x), name, call, id=f"{entry}-{label}")
    for entry, name, real, template, call in GATED
    for label, x in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                     ("complex-inf", complex(0.0, math.inf)))
    if not (real and isinstance(x, complex))
]


@pytest.mark.parametrize("value,name,call", NON_FINITE)
def test_every_entry_point_refuses_a_non_finite_number(value, name, call):
    # One rule, the number gate's, for every value a caller passes.
    with pytest.raises(ValueError, match=rf"^{name} contains non-finite entries$"):
        call(value)


def test_lattice_spec_and_policy_store_floats():
    spec = LatticeSpec(5, Fraction(3, 20), "dirichlet")
    assert type(spec.spacing) is float and spec.spacing == 0.15
    assert spec.coordinates().dtype == np.float64
    assert spec.coordinates().tobytes() == LatticeSpec(5, 0.15).coordinates().tobytes()
    # Samples computed from the coordinates are float64, which the
    # builders take; an object array of Fractions would be refused.
    witten_model_lattice(spec, spec.coordinates())
    policy = NumericPolicy(kernel_tol=Fraction(1, 10**9), pairing_tol=np.float32(1e-4))
    assert type(policy.kernel_tol) is float and policy.kernel_tol == 1e-9
    assert type(policy.pairing_tol) is float
