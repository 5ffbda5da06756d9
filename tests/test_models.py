import numpy as np
import pytest

from susyqm import (
    Boundary,
    LatticeSpec,
    Lcg,
    Parity,
    SIGMA3,
    ShapeError,
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
from susyqm import models

from conftest import block_system, random_complex


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

    @pytest.mark.parametrize("sites,spacing,error,message", [
        (5.0, 0.5, TypeError, "sites must be an integer"),
        (True, 0.5, TypeError, "sites must be an integer"),
        (5, True, TypeError, "spacing must be real"),
        (5, np.bool_(True), TypeError, "spacing must be real"),
        (5, np.inf, ValueError, "spacing contains non-finite entries"),
        (5, np.nan, ValueError, "spacing contains non-finite entries"),
    ])
    def test_rejects_mistyped_and_non_finite_fields(self, sites, spacing, error,
                                                     message):
        # Refused here rather than in a builder, where a float sites fails
        # inside numpy and an infinite spacing builds H = 0.
        with pytest.raises(error, match=message):
            LatticeSpec(sites, spacing, "dirichlet")

    def test_numpy_integer_sites_are_python_ints(self):
        spec = LatticeSpec(np.int64(5), np.float64(0.5))
        assert type(spec.sites) is int and spec.sites == 5
        assert np.array_equal(spec.coordinates(), LatticeSpec(5, 0.5).coordinates())

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

    @pytest.mark.parametrize("real", [True, False])
    def test_blocks_equal_the_tensor_products(self, rng, real):
        # Written blockwise, Q and K equal f^dag (x) A + f (x) A^dag and
        # sigma_3 (x) 1 in value (only the sign of some zeros differs).
        a = random_complex(rng, 5, 5)
        a = a.real if real else a
        f, f_dag = fermionic_ladder()
        system = tensor_supercharge(a)
        assert np.array_equal(np.asarray(system.charges[0]),
                              np.kron(f_dag, a) + np.kron(f, adjoint(a)))
        assert np.array_equal(np.asarray(system.involution.matrix),
                              np.kron(SIGMA3, np.eye(5)))


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


NON_REAL_SAMPLES = [
    pytest.param(lambda n: np.full(n, 0.1 + 0.2j), id="complex"),
    pytest.param(lambda n: [True] * n, id="bool"),
    pytest.param(lambda n: ["0.1"] * n, id="string"),
]


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

    @pytest.mark.parametrize("samples", NON_REAL_SAMPLES)
    def test_rejects_non_real_samples(self, samples):
        # A cast to float would drop the imaginary parts (numpy only
        # warns) and read booleans and numeric strings as numbers.
        spec = LatticeSpec(5, 1.0, Boundary.DIRICHLET)
        with pytest.raises(TypeError, match="^superpotential must be real"):
            witten_model_lattice(spec, samples(5))


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

    @pytest.mark.parametrize("samples", NON_REAL_SAMPLES)
    @pytest.mark.parametrize("name", ["a_x", "a_y"])
    def test_rejects_non_real_samples(self, samples, name):
        spec = LatticeSpec(5, 1.0)
        fields = {"a_x": np.zeros(25), "a_y": np.zeros(25)}
        fields[name] = samples(25)
        with pytest.raises(TypeError, match=f"^{name} must be real"):
            pauli_lattice(spec, **fields)

    def test_requires_periodic_boundary(self):
        with pytest.raises(ValueError, match="^the planar spin lattice needs periodic"):
            pauli_lattice(LatticeSpec(5, 1.0, Boundary.DIRICHLET), np.zeros(25),
                          np.zeros(25))

    def test_accepts_square_sample_layout(self):
        spec = LatticeSpec(5, 1.0)
        ax, ay = symmetric_gauge(spec, 0.1)
        system = pauli_lattice(spec, ax.reshape(5, 5), ay.reshape(5, 5))
        assert system.dim == 50


class TestBlockGradedLayout:
    # K = diag(1_b, -1_f) and H = diag(A^dag A, A A^dag), byte for byte
    # as the independent conftest builder lays them out.
    @pytest.mark.parametrize("dim_b,dim_f", [(1, 1), (4, 3), (2, 5)])
    def test_random_graded_system(self, dim_b, dim_f):
        system = random_graded_system(dim_b, dim_f, seed=11)
        h, k, q = block_system(Lcg(11).complex_matrix(dim_f, dim_b))
        for got, want in ((system.hamiltonian, h), (system.involution.matrix, k),
                          (system.charges[0], q)):
            assert np.asarray(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("real", [True, False])
    def test_tensor_supercharge(self, rng, real):
        a = random_complex(rng, 6, 6)
        a = a.real if real else a
        system = tensor_supercharge(a)
        h, k, _ = block_system(a)
        assert np.asarray(system.hamiltonian).tobytes() == h.tobytes()
        assert np.asarray(system.involution.matrix).tobytes() == k.tobytes()


class TestRandomGradedSystem:
    def test_minimal_dims(self):
        system = random_graded_system(1, 1, seed=0)
        assert system.dim == 2
        assert system.complex_charges

    def test_block_form_validates(self):
        random_graded_system(4, 4, seed=42)

    def test_rejects_an_empty_sector(self):
        with pytest.raises(ValueError, match="^sector dimensions must be positive$"):
            random_graded_system(0, 2, 1)

    @pytest.mark.parametrize("args,name", [
        ((2.0, 2, 0), "dim_b"),
        ((True, 2, 0), "dim_b"),
        ((2, "2", 0), "dim_f"),
        ((2, 2, 1.5), "seed"),
        ((2, 2, None), "seed"),
    ])
    def test_mistyped_arguments_are_named(self, args, name):
        # build_model gated these; a direct call failed inside numpy or Lcg.
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            random_graded_system(*args)

    def test_index_lies_in_reachable_range(self):
        from susyqm import index_range

        system = random_graded_system(3, 5, seed=7)
        report = witten_index_report(system)
        d = report.dim_kernel_a + report.dim_kernel_a_dagger
        assert report.index in index_range(d)

    def test_deterministic_across_calls(self):
        for conjugate in (False, True):
            first = random_graded_system(3, 2, seed=123, conjugate=conjugate)
            second = random_graded_system(3, 2, seed=123, conjugate=conjugate)
            for a, b in ((first.hamiltonian, second.hamiltonian),
                         (first.involution.matrix, second.involution.matrix),
                         (first.charges[0], second.charges[0])):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("dim_b,dim_f", [(5, 3), (1, 4)])
    def test_conjugated_draw_order(self, monkeypatch, dim_b, dim_f):
        # A takes the first 2 dim_b dim_f draws and the unitary the next
        # 2 n^2; nothing else is drawn.
        streams = []

        class Recorded(Lcg):
            def __init__(self, seed):
                super().__init__(seed)
                streams.append(self)

        monkeypatch.setattr(models, "Lcg", Recorded)
        n, seed = dim_b + dim_f, 2024
        system = random_graded_system(dim_b, dim_f, seed, conjugate=True)
        reference = Lcg(seed)
        reference.complex_matrix(dim_f, dim_b)
        u = models._lcg_unitary(reference, n)
        expected = Lcg(seed)
        for _ in range(2 * (dim_b * dim_f + n * n)):
            expected.next_u64()
        assert len(streams) == 1
        assert streams[0].next_u64() == expected.next_u64()
        k = np.diag(np.r_[np.ones(dim_b), -np.ones(dim_f)]).astype(complex)
        assert np.asarray(system.involution.matrix).tobytes() == (
            u @ k @ adjoint(u)).tobytes()

    @pytest.mark.parametrize("n", [2, 7, 112, 200])
    def test_lcg_unitary_is_unitary(self, n):
        u = models._lcg_unitary(Lcg(n), n)
        error = np.abs(adjoint(u) @ u - np.eye(n)).max()
        assert error <= n * np.finfo(np.float64).eps

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

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**62 + 7, 2**64 - 1])
    def test_complex_matrix_matches_one_draw_at_a_time(self, seed):
        for rows, cols in [(48, 64), (1, 1), (3, 5), (0, 4)]:
            stream, reference = Lcg(seed), Lcg(seed)
            expected = np.empty((rows, cols), dtype=complex)
            for i in range(rows):
                for j in range(cols):
                    re = reference.symmetric()
                    expected[i, j] = complex(re, reference.symmetric())
            assert stream.complex_matrix(rows, cols).tobytes() == expected.tobytes()
            assert stream.next_u64() == reference.next_u64()


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
        ({"model": "free_particle", "sites": 5, "dx": 10**400},
         "dx has a number too large for a double"),
        ({"model": "witten", "sites": 3, "dx": 0.5, "W": [1, -10**400, -1]},
         "W has a number too large for a double"),
        ({"model": "pauli", "sites": 3, "dx": 1.0,
          "A_field": [[0] * 9, [0] * 8 + [10**400]]},
         "A_field has a number too large for a double"),
    ])
    def test_rejects_mistyped_fields(self, spec, match):
        with pytest.raises(TypeError, match=match):
            build_model(spec)

    @pytest.mark.parametrize("dx", [0, -0.5, float("inf"), float("nan")])
    def test_out_of_range_dx_is_named_dx(self, dx):
        # The spec has no field called spacing, so the error names dx.  A
        # NaN or an infinity is refused by the number gate before the range.
        refusal = ("must be positive and finite" if np.isfinite(dx)
                   else "contains non-finite entries")
        with pytest.raises(ValueError, match=f"^dx {refusal}"):
            build_model({"model": "free_particle", "sites": 5, "dx": dx})

    @pytest.mark.parametrize("build,message", [
        (lambda: build_model({"model": "witten", "sites": 3, "dx": 0.5,
                              "W": [1.0, 2.0]}),
         r"W needs 3 samples, got shape \(2,\)"),
        (lambda: build_model({"model": "pauli", "sites": 3, "dx": 1.0,
                              "A_field": [[0.0] * 9, [0.0] * 3]}),
         r"A_field needs 9 samples \(flat or 3x3\), got shape \(3,\)"),
        (lambda: witten_model_lattice(LatticeSpec(3, 0.5, "dirichlet"), [1.0, 2.0]),
         r"superpotential needs 3 samples, got shape \(2,\)"),
        (lambda: pauli_lattice(LatticeSpec(3, 1.0), [0.0] * 3, [0.0] * 9),
         r"a_x needs 9 samples \(flat or 3x3\), got shape \(3,\)"),
        (lambda: pauli_lattice(LatticeSpec(3, 1.0), [0.0] * 9, [0.0] * 3),
         r"a_y needs 9 samples \(flat or 3x3\), got shape \(3,\)"),
    ], ids=["spec-W", "spec-A_field", "superpotential", "a_x", "a_y"])
    def test_wrong_sample_count_names_the_field(self, build, message):
        # A spec names its own field, a direct call the builder's parameter.
        with pytest.raises(ShapeError, match=f"^{message}$"):
            build()

    def test_accepts_numpy_arrays(self):
        random_spec = {"model": "random", "dims": [2, 3], "seed": 4}
        built = build_model(dict(random_spec, dims=np.array([2, 3])))
        assert built.hamiltonian.tobytes() == build_model(
            random_spec).hamiltonian.tobytes()
        pauli_spec = {"model": "pauli", "sites": 3, "dx": 1.0,
                      "A_field": [[0.0] * 9, [0.0] * 9]}
        built = build_model(dict(pauli_spec, A_field=np.zeros((2, 9))))
        assert built.hamiltonian.tobytes() == build_model(
            pauli_spec).hamiltonian.tobytes()

    @pytest.mark.parametrize("dims", [np.array(5), np.array([1, 2, 3]),
                                      np.zeros((3, 2), dtype=int)])
    def test_rejects_numpy_arrays_of_the_wrong_length(self, dims):
        with pytest.raises(ValueError, match="dims must hold"):
            build_model({"model": "random", "dims": dims})

    def test_rejects_numpy_string_arrays(self):
        with pytest.raises(TypeError, match="dims must be an integer"):
            build_model({"model": "random", "dims": np.array(["2", "3"])})
        with pytest.raises(TypeError, match="A_field must be real"):
            build_model({"model": "pauli", "sites": 3, "dx": 1.0,
                         "A_field": np.array([["0.0"] * 9] * 2)})

    def test_accepts_numpy_numbers(self):
        spec = {"model": "random", "dims": [np.int64(2), np.int32(3)],
                "seed": np.uint64(4)}
        assert build_model(spec).hamiltonian.tobytes() == build_model(
            {"model": "random", "dims": [2, 3], "seed": 4}).hamiltonian.tobytes()
        spec = {"model": "witten", "sites": np.int64(5), "dx": np.float64(0.5),
                "W": np.linspace(-1.0, 1.0, 5)}
        assert build_model(spec).dim == 10

    def test_accepts_integers_wider_than_int64(self):
        # They fit in a double, so the spec takes them, although numpy
        # would hold them in an object array.
        wide = {"model": "witten", "sites": 3, "dx": 0.5, "W": [2**64, 0, -(2**64)]}
        floats = dict(wide, W=[2.0**64, 0.0, -(2.0**64)])
        assert build_model(wide).hamiltonian.tobytes() == build_model(
            floats).hamiltonian.tobytes()
