import numpy as np
import pytest

from susyqm import (
    Boundary,
    CrossCheckError,
    LatticeSpec,
    PairingSign,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    ShapeError,
    ValidationError,
    adjoint,
    charges_from_parts,
    check_pairing_relation,
    complex_from_real,
    construct_involution,
    eigvalsh,
    free_particle_lattice,
    grading_basis,
    hamiltonian_from_parts,
    hermitian_parts,
    random_graded_system,
    real_from_complex,
    reparametrize,
    residual_norm,
    second_supercharge,
    spectral_pairing_report,
    standard_representation,
    tensor_supercharge,
    validate_complex_system,
    validate_graded_complex_system,
    validate_graded_real_system,
    validate_real_system,
    validate_involution,
    witten_index,
    witten_index_report,
    witten_model_lattice,
)

from conftest import (
    block_system,
    corrupt_entry,
    haar_unitary,
    random_complex,
    random_hermitian,
    rank_deficient,
    real_pair_from_block,
)

F = np.array([[0, 1], [0, 0]], dtype=complex)
SQRT2 = np.sqrt(2.0)


class TestValidateRealSystem:
    def test_pauli_pair_valid(self):
        system = validate_real_system(np.eye(2), [SIGMA1, SIGMA2])
        assert system.dim == 2
        assert not system.complex_charges
        assert max(c.residual for c in system.checks if c.name.startswith("{")) < 1e-12

    def test_repeated_charge_fails_cross_relation(self):
        with pytest.raises(ValidationError, match=r"\{Q1,Q2\}"):
            validate_real_system(np.eye(2), [SIGMA1, SIGMA1])

    def test_zero_hamiltonian_rejected(self):
        with pytest.raises(ValidationError, match="H != 0"):
            validate_real_system(np.zeros((2, 2)), [np.zeros((2, 2))])

    def test_non_hermitian_charge_rejected(self):
        with pytest.raises(ValidationError, match="Q1 self-adjoint"):
            validate_real_system(np.eye(2), [F])


class TestValidateComplexSystem:
    def test_scaled_ladder_valid(self):
        validate_complex_system(np.eye(2), [SQRT2 * F])

    def test_hermitian_charge_rejected(self):
        with pytest.raises(ValidationError, match="forces H = 0"):
            validate_complex_system(np.eye(2), [SIGMA1])

    def test_block_charge_valid_by_direct_multiplication(self, rng):
        a = random_complex(rng, 5, 5)
        h, k, q = block_system(a)
        # oracle: the defining anticommutator computed directly
        direct = q @ adjoint(q) + adjoint(q) @ q
        assert residual_norm(direct - 2 * h) < 1e-12 * residual_norm(h)
        system = validate_complex_system(h, [q])
        assert system.complex_charges


class TestValidateGradedSystems:
    def test_single_charge(self):
        validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1])

    def test_two_charges(self):
        validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1, SIGMA2])

    def test_commuting_involution_rejected(self):
        with pytest.raises(ValidationError, match=r"\{K,Q1\}"):
            validate_graded_real_system(np.eye(2), SIGMA1, [SIGMA1])

    def test_complex_graded_block_form(self, rng):
        h, k, q = block_system(random_complex(rng, 4, 4))
        validate_graded_complex_system(h, k, [q])

    def test_complex_graded_wrong_involution(self):
        with pytest.raises(ValidationError, match=r"\{K,q1\}"):
            validate_graded_complex_system(np.eye(2), SIGMA1, [SQRT2 * F])

    def test_grading_leaves_shared_residuals_alone(self):
        # Each relation is scaled by its own operands, so adding K, whose
        # norm sqrt(8) here exceeds those of H and both charges, must not
        # move a bit of the relations that do not involve K.
        system = random_graded_system(4, 4, seed=5, conjugate=True)
        q1, q2 = (0.05 * q for q in real_from_complex(system.charges[0]))
        h = 0.0025 * system.hamiltonian
        k = system.involution.matrix
        assert residual_norm(k) > max(residual_norm(h), residual_norm(q1),
                                      residual_norm(q2))
        plain = validate_real_system(h, [q1, q2]).checks
        graded = validate_graded_real_system(h, k, [q1, q2]).checks
        assert [c.name for c in graded[:len(plain)]] == [c.name for c in plain]
        assert ([c.residual.hex() for c in graded[:len(plain)]]
                == [c.residual.hex() for c in plain])
        assert any(c.residual > 0.0 for c in plain if c.name.startswith("{"))


# Two independent fermion modes (Jordan-Wigner) on C^2 (x) C^2 with H = 1:
# q_i = sqrt(2) c_i are nilpotent complex charges, odd under the parity
# K = sigma_3 (x) sigma_3.  The real pair is sigma_1, sigma_2 with K = sigma_3.
_C1 = SQRT2 * np.kron(F, np.eye(2))
_C2 = SQRT2 * np.kron(SIGMA3, F)
_PARITY = np.kron(SIGMA3, SIGMA3)

_REAL_NAMES = [
    "H self-adjoint", "H != 0", "Q1 self-adjoint", "Q2 self-adjoint",
    "{Q1,Q1} = 2H", "{Q1,Q2} = 0", "{Q2,Q2} = 2H", "[H,Q1] = 0", "[H,Q2] = 0",
]
_COMPLEX_NAMES = [
    "H self-adjoint", "H != 0",
    "q1 not self-adjoint (a self-adjoint complex charge forces H = 0)",
    "q2 not self-adjoint (a self-adjoint complex charge forces H = 0)",
    "{q1,q1^dag} = 2H", "{q1,q1} = 0",
    "{q1,q2^dag} = 0", "{q1,q2} = 0",
    "{q2,q2^dag} = 2H", "{q2,q2} = 0",
    "[H,q1] = 0", "[H,q2] = 0",
]
_INVOLUTION_NAMES = ["K self-adjoint", "K^2 = 1", "K != +1", "K != -1"]


def _graded_names(label):
    return _INVOLUTION_NAMES + [f"{{K,{label}1}} = 0", f"{{K,{label}2}} = 0",
                                "[H,K] = 0"]


@pytest.mark.parametrize("build, expected", [
    (lambda: validate_real_system(np.eye(2), [SIGMA1, SIGMA2]), _REAL_NAMES),
    (lambda: validate_complex_system(np.eye(4), [_C1, _C2]), _COMPLEX_NAMES),
    (lambda: validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1, SIGMA2]),
     _REAL_NAMES + _graded_names("Q")),
    (lambda: validate_graded_complex_system(np.eye(4), _PARITY, [_C1, _C2]),
     _COMPLEX_NAMES + _graded_names("q")),
], ids=["real", "complex", "graded_real", "graded_complex"])
def test_check_order_of_two_charge_systems(build, expected):
    """The ordered check list is what ``susyqm validate --json`` emits."""
    assert [c.name for c in build().checks] == expected


_STACK_VALIDATORS = {
    "real": lambda h, k, qs: validate_real_system(h, qs),
    "complex": lambda h, k, qs: validate_complex_system(h, qs),
    "graded_real": lambda h, k, qs: validate_graded_real_system(h, k, qs),
    "graded_complex": lambda h, k, qs: validate_graded_complex_system(h, k, qs),
}
_STACK_SYSTEMS = {
    "real": (np.eye(2), SIGMA3, [SIGMA1, SIGMA2]),
    "complex": (np.eye(4), _PARITY, [_C1, _C2]),
    "graded_real": (np.eye(2), SIGMA3, [SIGMA1, SIGMA2]),
    "graded_complex": (np.eye(4), _PARITY, [_C1]),
}


@pytest.mark.parametrize("flavour", sorted(_STACK_VALIDATORS))
def test_stacked_charge_array_matches_charge_list(flavour):
    validate = _STACK_VALIDATORS[flavour]
    h, k, charges = _STACK_SYSTEMS[flavour]
    from_list = validate(h, k, charges)
    from_stack = validate(h, k, np.stack(charges))
    assert from_stack.checks == from_list.checks
    assert len(from_stack.charges) == len(charges)


@pytest.mark.parametrize("flavour", sorted(_STACK_VALIDATORS))
def test_empty_charge_stack_rejected(flavour):
    h, k, _ = _STACK_SYSTEMS[flavour]
    empty = np.zeros((0,) + h.shape, dtype=complex)
    with pytest.raises(ValidationError,
                       match="^at least one supercharge is required$"):
        _STACK_VALIDATORS[flavour](h, k, empty)


class TestChargeConversions:
    def test_pauli_to_ladder(self):
        q = complex_from_real(SIGMA1, SIGMA2)
        assert np.allclose(q, SQRT2 * F)

    def test_ladder_to_pauli(self):
        q1, q2 = real_from_complex(SQRT2 * F)
        assert np.allclose(q1, SIGMA1)
        assert np.allclose(q2, SIGMA2)

    def test_round_trips(self, rng):
        for _ in range(20):
            q1 = random_hermitian(rng, 4)
            q2 = random_hermitian(rng, 4)
            back1, back2 = real_from_complex(complex_from_real(q1, q2))
            scale = max(1.0, residual_norm(q1), residual_norm(q2))
            assert residual_norm(back1 - q1) < 1e-12 * scale
            assert residual_norm(back2 - q2) < 1e-12 * scale
            q = random_complex(rng, 4, 4)
            rebuilt = complex_from_real(*real_from_complex(q))
            assert residual_norm(rebuilt - q) < 1e-12 * max(1.0, residual_norm(q))

    def test_validity_equivalence(self, rng):
        valid = invalid = 0
        for trial in range(100):
            a = random_complex(rng, 3, 3)
            h, _, q1, q2 = real_pair_from_block(a)
            corrupted = trial % 2 == 1
            if corrupted:
                q1 = corrupt_entry(rng, q1)
            real_ok = True
            try:
                validate_real_system(h, [q1, q2])
            except ValidationError:
                real_ok = False
            complex_ok = True
            try:
                validate_complex_system(h, [complex_from_real(q1, q2)])
            except ValidationError:
                complex_ok = False
            assert real_ok == complex_ok == (not corrupted)
            valid += real_ok
            invalid += not real_ok
        assert valid == invalid == 50


class TestSecondSupercharge:
    def test_pauli_minus(self):
        assert np.allclose(second_supercharge(SIGMA3, SIGMA1, sign=-1), SIGMA2)

    def test_pauli_plus(self):
        assert np.allclose(second_supercharge(SIGMA3, SIGMA2, sign=+1), SIGMA1)

    def test_free_particle_lattice(self):
        system = free_particle_lattice(LatticeSpec(21, 1.0))
        k = system.involution.matrix
        q = system.charges[0]
        q_prime = second_supercharge(k, q, sign=-1)
        h = np.asarray(system.hamiltonian)
        scale = max(1.0, residual_norm(h))
        assert residual_norm(q_prime - adjoint(q_prime)) < 1e-10
        assert residual_norm(q_prime @ q_prime - h) < 1e-10 * scale
        assert residual_norm(q @ q_prime + q_prime @ q) < 1e-10 * scale
        assert residual_norm(k @ q_prime + q_prime @ k) < 1e-10 * scale

    def test_output_completes_two_charge_system(self, rng):
        a = random_complex(rng, 3, 3)
        h, k, q1, _ = real_pair_from_block(a)
        q2 = second_supercharge(k, q1, sign=-1)
        validate_graded_real_system(h, k, [q1, q2])

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError, match="sign"):
            second_supercharge(SIGMA3, SIGMA1, sign=2)

    @pytest.mark.parametrize("sign", [True, 1.0, "1"])
    def test_mistyped_sign_rejected(self, sign):
        # True == 1 and 1.0 == 1, so an unchecked sign passed the +-1 test.
        with pytest.raises(TypeError, match="^sign must be an integer"):
            second_supercharge(SIGMA3, SIGMA1, sign=sign)


class TestCheckPairingRelation:
    def test_minus_sign(self):
        assert check_pairing_relation(SIGMA3, SIGMA1, SIGMA2) is PairingSign.MINUS

    def test_plus_sign_from_negation(self):
        assert check_pairing_relation(SIGMA3, SIGMA1, -SIGMA2) is PairingSign.PLUS

    def test_swapped_charges_give_plus(self):
        assert check_pairing_relation(SIGMA3, SIGMA2, SIGMA1) is PairingSign.PLUS

    def test_degenerate_pair_can_fail_both_signs(self):
        # A valid two-charge system that satisfies neither sign relation:
        # the second charge mixes the degenerate levels independently.
        b = 1j * SIGMA3
        q1 = np.block([[np.zeros((2, 2)), np.eye(2)],
                       [np.eye(2), np.zeros((2, 2))]]).astype(complex)
        q2 = np.block([[np.zeros((2, 2)), adjoint(b)],
                       [b, np.zeros((2, 2))]])
        k = np.diag([1, 1, -1, -1]).astype(complex)
        assert check_pairing_relation(k, q1, q2) is PairingSign.FAIL


class TestConstructInvolution:
    def test_pauli_charges_give_sigma3(self):
        inv = construct_involution(SIGMA1, SIGMA2, d_plus=0)
        assert np.allclose(inv.matrix, SIGMA3)

    @pytest.mark.parametrize("df,db,rank", [(3, 3, 3), (4, 3, 2), (4, 4, 3),
                                            (2, 5, 2), (5, 2, 1)])
    def test_random_systems(self, rng, df, db, rank):
        a = rank_deficient(rng, df, db, rank)
        h, _, q1, q2 = real_pair_from_block(a)
        d = (db - rank) + (df - rank)
        for d_plus in range(d + 1):
            inv = construct_involution(q1, q2, d_plus=d_plus)
            system = validate_graded_real_system(h, inv.matrix, [q1, q2])
            assert check_pairing_relation(inv, q1, q2) is PairingSign.MINUS
            index = witten_index(
                validate_graded_real_system(h, inv.matrix, [q1]))
            assert index == 2 * d_plus - d
            assert system.dim == db + df

    def test_conjugated_basis(self, rng):
        a = rank_deficient(rng, 4, 4, 3)
        h, _, q1, q2 = real_pair_from_block(a)
        u = haar_unitary(rng, 8)
        h = u @ h @ adjoint(u)
        q1 = u @ q1 @ adjoint(u)
        q2 = u @ q2 @ adjoint(u)
        inv = construct_involution(q1, q2, d_plus=1)
        validate_graded_real_system(h, inv.matrix, [q1, q2])

    def test_default_extension_is_all_plus(self, rng):
        a = rank_deficient(rng, 3, 4, 2)
        h, _, q1, q2 = real_pair_from_block(a)
        inv_default = construct_involution(q1, q2)
        inv_explicit = construct_involution(q1, q2, d_plus=3)
        assert np.allclose(inv_default.matrix, inv_explicit.matrix)

    @pytest.mark.parametrize("d_plus", [True, 1.0, np.float64(1.0), "1"],
                             ids=["bool", "float", "numpy-float", "string"])
    def test_d_plus_must_be_an_integer(self, rng, d_plus):
        a = rank_deficient(rng, 3, 3, 2)
        h, _, q1, q2 = real_pair_from_block(a)
        with pytest.raises(TypeError, match="^d_plus must be an integer"):
            construct_involution(q1, q2, d_plus=d_plus)

    def test_d_plus_may_be_a_numpy_integer(self, rng):
        a = rank_deficient(rng, 3, 3, 2)
        h, _, q1, q2 = real_pair_from_block(a)
        assert construct_involution(q1, q2, d_plus=np.int64(1)).matrix.tobytes() == (
            construct_involution(q1, q2, d_plus=1).matrix.tobytes())

    def test_d_plus_out_of_range(self, rng):
        a = rank_deficient(rng, 3, 3, 2)
        h, _, q1, q2 = real_pair_from_block(a)
        with pytest.raises(ValueError, match="d_plus"):
            construct_involution(q1, q2, d_plus=5)

    def test_invalid_pair_rejected(self):
        with pytest.raises(ValidationError):
            construct_involution(SIGMA1, SIGMA1)

    @pytest.mark.parametrize("q2,broken", [(SIGMA1, "{Q1,Q2} = 0"),
                                           (1.001 * SIGMA2, "{Q2,Q2} = 2H")],
                             ids=["anticommutator", "square"])
    def test_invalid_pair_names_the_broken_charge_relation(self, q2, broken):
        # The validation of the result checks every relation of the pair.
        with pytest.raises(ValidationError) as info:
            construct_involution(SIGMA1, q2)
        assert broken in [c.name for c in info.value.failures]

    @pytest.mark.usefixtures("negated_pinv")
    def test_wrong_sign_is_a_cross_check_failure(self):
        q1, q2 = real_from_complex(random_graded_system(3, 2, 1).charges[0])
        with pytest.raises(CrossCheckError, match=r"^constructed involution violates "
                           r"Q2 = -iKQ1 \(residual 2\.000e\+00\)$"):
            construct_involution(q1, q2)

    def test_ill_conditioned_charge_passes_its_own_validation(self):
        # cond(Q1) = 188: a pseudo-inverse from sweeps stopped at
        # eigensolver_tol left [H, K] at 1.2e-10, above algebra_tol.
        system = random_graded_system(20, 20, 4345165276468298827)
        q1, q2 = real_from_complex(system.charges[0])
        inv = construct_involution(q1, q2)
        assert np.allclose(inv.matrix, system.involution.matrix, atol=1e-12)

    @pytest.mark.parametrize("e", np.arange(3.0, 12.25, 0.5))
    def test_near_cut_singular_value(self, e):
        # One singular value of A at 10^-e of the largest.  For e <= 6
        # the pseudo-inverse resolves it; for e >= 10.5 it falls under the
        # Gram cut (about 8e-8 at dim 16) and the kernel extension is
        # within algebra_tol.  In between either i Q2 Q1^+ amplifies
        # rounding past algebra_tol or the kernel extension breaks
        # {K, Q1} = 0 by about 10^-e relative to ||Q1|| (1.04e-10 at
        # e = 10); the construction must then refuse, never return an
        # involution it did not validate.
        rng = np.random.default_rng(8)
        u, v = haar_unitary(rng, 8), haar_unitary(rng, 8)
        s = np.linspace(1.0, 0.3, 8)
        s[-1] = 10.0**-e
        system = tensor_supercharge((u * s) @ adjoint(v))
        q1 = system.charges[0]
        q2 = second_supercharge(system.involution, q1)
        if e <= 6 or e >= 10.5:
            k = construct_involution(q1, q2).matrix
            validate_graded_real_system(q1 @ q1, k, [q1, q2])
        else:
            with pytest.raises(ValidationError):
                construct_involution(q1, q2)

    def test_superpotential_lattice_kernel_enumeration(self):
        # A = D + x on the symmetric lattice: the numerical kernel of Q1
        # holds the bulk zero mode and its boundary partner, so d = 2 and
        # the reachable indices are {-2, 0, 2}.
        spec = LatticeSpec(61, 0.25, Boundary.DIRICHLET)
        n = spec.sites
        d_fd = np.zeros((n, n), dtype=complex)
        d_fd[np.arange(n), np.arange(n)] = -1.0 / spec.spacing
        d_fd[np.arange(n - 1), np.arange(1, n)] = 1.0 / spec.spacing
        a_op = d_fd + np.diag(spec.coordinates())
        a1, a2 = hermitian_parts(a_op)
        q1, q2 = charges_from_parts(a1, a2)
        h = q1 @ q1
        indices = []
        for d_plus in (0, 1, 2):
            inv = construct_involution(q1, q2, d_plus=d_plus)
            system = validate_graded_real_system(h, inv.matrix, [q1])
            indices.append(witten_index(system))
        assert indices == [-2, 0, 2]


class TestStandardRepresentation:
    def test_minimal_system(self):
        system = validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1])
        rep = standard_representation(system)
        assert rep.a_operator.shape == (1, 1)
        assert abs(abs(rep.a_operator[0, 0]) - 1.0) < 1e-12
        assert np.allclose(rep.h_plus, [[1.0]])
        assert np.allclose(rep.h_minus, [[1.0]])

    def test_recovers_block_map_spectrally(self, rng):
        a = random_complex(rng, 4, 6)
        h, k, q = block_system(a)
        system = validate_graded_complex_system(h, k, [q])
        rep = standard_representation(system)
        assert rep.a_operator.shape == (4, 6)
        got = eigvalsh(adjoint(rep.a_operator) @ rep.a_operator)
        want = np.linalg.eigvalsh(adjoint(a) @ a)
        assert np.abs(got - want).max() < 1e-10 * max(1.0, want.max())

    def test_free_particle_sector_spectra(self):
        spec = LatticeSpec(21, 1.0)
        system = free_particle_lattice(spec)
        rep = standard_representation(system)
        n, dx = spec.sites, spec.spacing
        dispersion = np.sort(np.sin(2 * np.pi * np.arange(n) / n) ** 2
                             / (2 * dx * dx))
        merged = np.sort(np.concatenate(
            [eigvalsh(rep.h_plus), eigvalsh(rep.h_minus)]))
        assert np.abs(merged - dispersion).max() < 1e-10

    def test_rejects_multi_charge_system(self):
        system = validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1, SIGMA2])
        with pytest.raises(ValueError, match="exactly one charge"):
            standard_representation(system)

    def test_complex_charge_with_a_lower_left_block_reduces(self):
        # q = [[0, B], [C, 0]] with BC = CB = 0 and both nonzero: A is the
        # lower-left block of the real charge (q + q^dag)/sqrt(2).
        b = np.zeros((2, 2), dtype=complex)
        b[0, 0] = 1.0
        c = np.zeros((2, 2), dtype=complex)
        c[1, 1] = 1.0
        q = np.block([[np.zeros((2, 2)), b], [c, np.zeros((2, 2))]])
        k = np.diag([1, 1, -1, -1]).astype(complex)
        h = 0.5 * (q @ adjoint(q) + adjoint(q) @ q)
        system = validate_graded_complex_system(h, k, [q])
        rep = standard_representation(system)
        assert np.array_equal(rep.a_operator, np.eye(2) / np.sqrt(2.0))
        assert witten_index(system) == 0

    def test_graded_tensor_product_of_complex_systems_reduces(self):
        # H = H1 (x) 1 + 1 (x) H2, q = q1 (x) 1 + K1 (x) q2, K = K1 (x) K2:
        # a valid complex system whose charge is not strictly upper in the
        # grading basis.  Its index is the product of the factors'.
        s1 = random_graded_system(3, 1, 1)
        s2 = random_graded_system(2, 4, 2)
        (h1, k1, [q1]), (h2, k2, [q2]) = [
            (s.hamiltonian, s.involution.matrix, s.charges) for s in (s1, s2)]
        e1, e2 = np.eye(4), np.eye(6)
        system = validate_graded_complex_system(
            np.kron(h1, e2) + np.kron(e1, h2), np.kron(k1, k2),
            [np.kron(q1, e2) + np.kron(k1, q2)])
        report = witten_index_report(system)
        assert report.index == witten_index(s1) * witten_index(s2) == -4
        assert (report.dim_kernel_a, report.dim_kernel_a_dagger,
                report.bosonic_zero_modes, report.fermionic_zero_modes) == (0, 4, 0, 4)
        pairing = spectral_pairing_report(system)
        assert pairing.witten_index == -4


class TestHermitianParts:
    def test_ladder_parts(self):
        a1, a2 = hermitian_parts(F)
        assert np.allclose(a1, SIGMA1 / 2)
        assert np.allclose(a2, SIGMA2 / 2)

    def test_hermitian_input(self, rng):
        h = random_hermitian(rng, 3)
        a1, a2 = hermitian_parts(h)
        assert np.allclose(a1, h)
        assert residual_norm(a2) < 1e-14 * residual_norm(h)

    def test_anti_hermitian_input(self, rng):
        b = random_hermitian(rng, 3)
        a1, a2 = hermitian_parts(1j * b)
        assert residual_norm(a1) < 1e-14 * residual_norm(b)
        assert np.allclose(a2, b)

    def test_reconstruction_to_rounding(self, rng):
        m = random_complex(rng, 5, 5)
        a1, a2 = hermitian_parts(m)
        assert residual_norm(a1 + 1j * a2 - m) <= 1e-15 * residual_norm(m)


class TestChargesFromParts:
    def test_scalar_parts(self):
        q1, q2 = charges_from_parts(np.array([[1.0]]), np.array([[0.0]]))
        assert np.allclose(q1, SIGMA1)
        assert np.allclose(q2, SIGMA2)

    def test_random_parts_build_valid_graded_pair(self, rng):
        a1 = random_hermitian(rng, 8)
        a2 = random_hermitian(rng, 8)
        q1, q2 = charges_from_parts(a1, a2)
        k = np.kron(SIGMA3, np.eye(8))
        h = q1 @ q1
        validate_graded_real_system(h, k, [q1, q2])
        assert check_pairing_relation(k, q1, q2) is PairingSign.MINUS

    def test_global_sign_freedom(self, rng):
        a1 = random_hermitian(rng, 3)
        a2 = random_hermitian(rng, 3)
        _, q2 = charges_from_parts(a1, a2)
        q1_alt, _ = charges_from_parts(a2, -a1)
        assert np.allclose(q1_alt, -q2)

    def test_rejects_non_hermitian_parts(self, rng):
        with pytest.raises(ValidationError, match="Hermitian"):
            charges_from_parts(F, np.zeros((2, 2)))


class TestHamiltonianFromParts:
    def test_commuting_parts(self):
        a1 = np.diag([1.0, 2.0]).astype(complex)
        a2 = np.diag([3.0, -1.0]).astype(complex)
        h = hamiltonian_from_parts(a1, a2)
        assert np.allclose(h, np.kron(np.eye(2), a1 @ a1 + a2 @ a2))

    def test_scalar_parts(self):
        assert np.allclose(
            hamiltonian_from_parts(np.array([[1.0]]), np.array([[0.0]])),
            np.eye(2))

    def test_matches_charge_square(self, rng):
        a1 = random_hermitian(rng, 5)
        a2 = random_hermitian(rng, 5)
        h = hamiltonian_from_parts(a1, a2)
        q1, q2 = charges_from_parts(a1, a2)
        scale = max(1.0, residual_norm(h))
        assert residual_norm(h - q1 @ q1) < 1e-10 * scale
        assert residual_norm(h - q2 @ q2) < 1e-10 * scale


class TestReparametrize:
    def test_identity_rotation(self):
        system = validate_real_system(np.eye(2), [SIGMA1, SIGMA2])
        rotated = reparametrize(system, np.eye(2))
        assert np.array_equal(rotated.charges[0], SIGMA1)
        assert np.array_equal(rotated.charges[1], SIGMA2)

    def test_quarter_turn(self):
        system = validate_real_system(np.eye(2), [SIGMA1, SIGMA2])
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rotated = reparametrize(system, rot)
        assert np.allclose(rotated.charges[0], SIGMA2)
        assert np.allclose(rotated.charges[1], -SIGMA1)
        assert np.array_equal(rotated.hamiltonian, system.hamiltonian)

    def test_reflections_preserve_validity(self, rng):
        a = random_complex(rng, 3, 3)
        h, k, q1, q2 = real_pair_from_block(a)
        system = validate_graded_real_system(h, k, [q1, q2])
        for _ in range(10):
            angle = rng.uniform(0.0, 2 * np.pi)
            c, s = np.cos(angle), np.sin(angle)
            rot = np.array([[c, s], [-s, c]])
            if rng.uniform() < 0.5:
                rot = rot @ np.diag([1.0, -1.0])  # include reflections
            rotated = reparametrize(system, rot)
            assert np.array_equal(rotated.hamiltonian, system.hamiltonian)

    def test_rejects_non_orthogonal(self):
        system = validate_real_system(np.eye(2), [SIGMA1, SIGMA2])
        with pytest.raises(ValidationError, match=r"^rotation R must be orthogonal: R\^T R = 1 "):
            reparametrize(system, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_single_charge_system(self):
        system = validate_real_system(np.eye(2), [SIGMA1])
        with pytest.raises(ValueError, match="two real charges"):
            reparametrize(system, np.eye(2))

    def test_rejects_a_rotation_of_the_wrong_shape(self):
        system = validate_real_system(np.eye(2), [SIGMA1, SIGMA2])
        with pytest.raises(ShapeError, match=r"^rotation must be 2x2, got shape \(3, 3\)$"):
            reparametrize(system, np.eye(3))


class TestNonnegativity:
    def test_valid_system_spectrum_is_nonnegative(self, rng):
        for trial in range(5):
            a = random_complex(rng, 4, 4)
            h, k, q = block_system(a)
            system = validate_graded_complex_system(h, k, [q])
            w = eigvalsh(system.hamiltonian)
            assert w[0] >= -1e-8 * max(1.0, w[-1])
