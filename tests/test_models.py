import numpy as np
import pytest

from susyqm import (
    Boundary,
    LatticeSpec,
    Lcg,
    Parity,
    SIGMA3,
    ValidationError,
    adjoint,
    build_model,
    classify_operator,
    commutator,
    anticommutator,
    eigvalsh,
    fermionic_ladder,
    free_particle_lattice,
    pauli_lattice,
    random_graded_system,
    residual_norm,
    spectral_pairing_report,
    standard_representation,
    tensor_supercharge,
    witten_index,
    witten_index_report,
    witten_model_lattice,
)

from conftest import random_complex


def symmetric_gauge(spec, b0):
    """Parity-odd planar vector potential (-b0 y / 2, b0 x / 2)."""
    xy = spec.coordinates()
    ones = np.ones(spec.sites)
    return np.kron(ones, -b0 * xy / 2.0), np.kron(b0 * xy / 2.0, ones)


class TestLatticeSpec:
    def test_rejects_even_sites(self):
        with pytest.raises(ValueError, match="odd"):
            LatticeSpec(10, 0.1)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError, match="spacing"):
            LatticeSpec(11, 0.0)

    def test_coordinates_symmetric(self):
        x = LatticeSpec(5, 0.5).coordinates()
        assert np.allclose(x, [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_boundary_coercion(self):
        spec = LatticeSpec(5, 1.0, "dirichlet")
        assert spec.boundary is Boundary.DIRICHLET


class TestFermionicLadder:
    def test_anticommutation(self):
        f, f_dag = fermionic_ladder()
        assert np.array_equal(anticommutator(f, f_dag), np.eye(2))

    def test_nilpotent(self):
        f, _ = fermionic_ladder()
        assert residual_norm(f @ f) == 0.0

    def test_commutator_gives_grading(self):
        f, f_dag = fermionic_ladder()
        assert np.array_equal(commutator(f, f_dag), SIGMA3)


class TestTensorSupercharge:
    def test_scalar_block(self):
        system = tensor_supercharge(np.array([[1.0]]))
        assert np.allclose(system.involution.matrix, SIGMA3)
        assert np.allclose(system.charges[0], [[0, 1], [1, 0]])
        assert np.allclose(system.hamiltonian, np.eye(2))

    def test_ladder_block(self):
        f, _ = fermionic_ladder()
        system = tensor_supercharge(f)
        rep = standard_representation(system)
        assert sorted(np.round(eigvalsh(rep.h_plus), 12)) == [0.0, 1.0]
        assert sorted(np.round(eigvalsh(rep.h_minus), 12)) == [0.0, 1.0]
        assert witten_index(system) == 0

    def test_random_block_residuals(self, rng):
        a = random_complex(rng, 16, 16)
        system = tensor_supercharge(a)
        worst = max(c.residual for c in system.checks
                    if not c.name.startswith(("K !=", "H !=", "q1 not")))
        assert worst < 1e-10

    def test_matches_direct_block_assembly(self, rng):
        a = random_complex(rng, 6, 6)
        system = tensor_supercharge(a)
        direct = np.zeros((12, 12), dtype=complex)
        direct[:6, :6] = adjoint(a) @ a
        direct[6:, 6:] = a @ adjoint(a)
        assert np.array_equal(np.asarray(system.hamiltonian), direct)


class TestFreeParticleLattice:
    def test_three_site_spectrum(self):
        system = free_particle_lattice(LatticeSpec(3, 1.0))
        w = eigvalsh(system.hamiltonian)
        assert np.allclose(w, [0.0, 0.375, 0.375], atol=1e-14)
        # the zero mode is the constant vector, which is parity even
        report = spectral_pairing_report(system)
        assert report.unpaired_bosonic_zero_modes == 1
        assert report.unpaired_fermionic_zero_modes == 0

    def test_momentum_parity_antisymmetry_is_exact(self):
        system = free_particle_lattice(LatticeSpec(31, 0.7))
        k = np.asarray(system.involution.matrix)
        q = np.asarray(system.charges[0])
        assert residual_norm(k @ q + q @ k) == 0.0

    def test_hamiltonian_parity_symmetry_is_exact(self):
        system = free_particle_lattice(LatticeSpec(31, 0.7))
        k = np.asarray(system.involution.matrix)
        h = np.asarray(system.hamiltonian)
        assert residual_norm(k @ h - h @ k) == 0.0

    def test_dispersion_relation(self):
        spec = LatticeSpec(11, 0.4)
        system = free_particle_lattice(spec)
        w = eigvalsh(system.hamiltonian)
        k = np.arange(spec.sites)
        expected = np.sort(np.sin(2 * np.pi * k / spec.sites) ** 2
                           / (2 * spec.spacing**2))
        assert np.abs(w - expected).max() < 1e-12

    def test_requires_periodic_boundary(self):
        with pytest.raises(ValueError, match="periodic"):
            free_particle_lattice(LatticeSpec(5, 1.0, Boundary.DIRICHLET))


class TestWittenModelLattice:
    def test_zero_superpotential_has_trivial_kernels(self):
        spec = LatticeSpec(9, 0.5, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, np.zeros(9))
        report = witten_index_report(system)
        # the Dirichlet forward difference is upper bidiagonal with a
        # nonzero diagonal, hence invertible on both sides
        assert report.dim_kernel_a == report.dim_kernel_a_dagger == 0
        assert report.index == 0

    def test_partner_spectra_share_nonzero_levels(self):
        spec = LatticeSpec(41, 0.3, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, spec.coordinates())
        report = spectral_pairing_report(system)
        assert max(gap for _, _, gap in report.pairs) < 1e-12

    def test_requires_dirichlet_boundary(self):
        with pytest.raises(ValueError, match="Dirichlet"):
            witten_model_lattice(LatticeSpec(5, 1.0), np.zeros(5))

    def test_rejects_mismatched_samples(self):
        spec = LatticeSpec(5, 1.0, Boundary.DIRICHLET)
        with pytest.raises(ValueError, match="samples"):
            witten_model_lattice(spec, np.zeros(6))


class TestPauliLattice:
    def test_zero_field_decouples(self):
        spec = LatticeSpec(9, 0.5)
        zeros = np.zeros(81)
        system = pauli_lattice(spec, zeros, zeros)
        # sectors are the two spatial parities tensored with spin, and the
        # two constant-spinor zero modes are parity even
        report = witten_index_report(system)
        assert report.index == 2
        assert (report.bosonic_zero_modes, report.fermionic_zero_modes) == (2, 0)

    def test_symmetric_gauge_validates_exactly(self):
        spec = LatticeSpec(9, 0.5)
        ax, ay = symmetric_gauge(spec, 0.2)
        system = pauli_lattice(spec, ax, ay)
        k = np.asarray(system.involution.matrix)
        q = np.asarray(system.charges[0])
        assert residual_norm(k @ q + q @ k) == 0.0
        assert classify_operator(system.involution, q) is Parity.ODD
        w = eigvalsh(system.hamiltonian)
        assert w[0] >= -1e-8 * w[-1]

    def test_rejects_parity_even_field(self):
        spec = LatticeSpec(5, 1.0)
        bad = np.ones(25)
        with pytest.raises(ValidationError, match="parity odd"):
            pauli_lattice(spec, bad, np.zeros(25))

    def test_accepts_square_sample_layout(self):
        spec = LatticeSpec(5, 1.0)
        ax, ay = symmetric_gauge(spec, 0.1)
        system = pauli_lattice(spec, ax.reshape(5, 5), ay.reshape(5, 5))
        assert system.dim == 50


class TestRandomGradedSystem:
    def test_minimal_dims(self):
        system = random_graded_system(1, 1, seed=0)
        assert system.dim == 2
        assert system.complex_charges

    def test_block_form_validates(self):
        random_graded_system(4, 4, seed=42)

    def test_index_lies_in_reachable_range(self):
        from susyqm import index_range

        system = random_graded_system(3, 5, seed=7)
        report = witten_index_report(system)
        d = report.dim_kernel_a + report.dim_kernel_a_dagger
        assert report.index in index_range(d)

    def test_deterministic_across_calls(self):
        first = random_graded_system(3, 2, seed=123)
        second = random_graded_system(3, 2, seed=123)
        assert np.array_equal(first.hamiltonian, second.hamiltonian)
        assert np.array_equal(first.charges[0], second.charges[0])

    def test_conjugated_basis_validates(self):
        system = random_graded_system(3, 3, seed=6, conjugate=True)
        # conjugation hides the block structure but keeps the algebra
        off_diag = np.asarray(system.involution.matrix).copy()
        np.fill_diagonal(off_diag, 0.0)
        assert residual_norm(off_diag) > 0.1

    def test_stream_documented_constants(self):
        stream = Lcg(0)
        assert stream.next_u64() == 1442695040888963407
        values = [Lcg(9).uniform() for _ in range(1)]
        assert 0.0 <= values[0] < 1.0


class TestBuildModel:
    def test_free_particle_spec(self):
        system = build_model({"model": "free_particle", "sites": 5, "dx": 1.0})
        assert system.dim == 5

    def test_witten_spec_ignores_unused_fields(self):
        system = build_model({
            "model": "witten", "sites": 5, "dx": 0.5,
            "W": [0.0, 0.0, 0.0, 0.0, 0.0],
            "seed": 99, "dims": [2, 2],
        })
        assert system.dim == 10

    def test_pauli_spec(self):
        ax, ay = symmetric_gauge(LatticeSpec(5, 1.0), 0.1)
        system = build_model({
            "model": "pauli", "sites": 5, "dx": 1.0,
            "A_field": [ax.tolist(), ay.tolist()],
        })
        assert system.dim == 50

    def test_random_spec(self):
        system = build_model({"model": "random", "dims": [2, 3], "seed": 4})
        assert system.dim == 5

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            build_model({"model": "hydrogen"})

    @pytest.mark.parametrize("spec,match", [
        ({"model": "random", "dims": [2.9, 1.2]}, "dims must be an integer"),
        ({"model": "random", "dims": [True, 1]}, "dims must be an integer"),
        ({"model": "random", "dims": ["3", "2"]}, "dims must be an integer"),
        ({"model": "random", "dims": [3, 2], "seed": "5"}, "seed must be an integer"),
        ({"model": "random", "dims": [3, 2], "seed": 5.0}, "seed must be an integer"),
        ({"model": "free_particle", "sites": 5.7, "dx": 1.0}, "sites must be an integer"),
        ({"model": "free_particle", "sites": True, "dx": 1.0}, "sites must be an integer"),
        ({"model": "free_particle", "sites": 5, "dx": "0.5"}, "dx must be real"),
        ({"model": "free_particle", "sites": 5, "dx": True}, "dx must be real"),
        ({"model": "witten", "sites": 3, "dx": 0.5, "W": ["1", True, -1]},
         "W must be real"),
        ({"model": "witten", "sites": 3, "dx": 0.5, "W": [1.0, True, -1.0]},
         "W must be real"),
        ({"model": "pauli", "sites": 3, "dx": 1.0,
          "A_field": [[0.0] * 9, [False] * 9]}, "A_field must be real"),
    ])
    def test_rejects_mistyped_fields(self, spec, match):
        with pytest.raises(TypeError, match=match):
            build_model(spec)

    def test_accepts_numpy_numbers(self):
        spec = {"model": "random", "dims": [np.int64(2), np.int32(3)],
                "seed": np.uint64(4)}
        assert build_model(spec).hamiltonian.tobytes() == build_model(
            {"model": "random", "dims": [2, 3], "seed": 4}).hamiltonian.tobytes()
        spec = {"model": "witten", "sites": np.int64(5), "dx": np.float64(0.5),
                "W": np.linspace(-1.0, 1.0, 5)}
        assert build_model(spec).dim == 10
