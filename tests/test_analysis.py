import numpy as np
import pytest

from susyqm import (
    Boundary,
    CrossCheckError,
    LatticeSpec,
    NumericPolicy,
    PairingError,
    SIGMA1,
    SIGMA3,
    ValidationError,
    adjoint,
    free_particle_lattice,
    index_range,
    kernel_basis,
    kernel_equality_check,
    random_graded_system,
    reparametrize,
    real_from_complex,
    spectral_pairing_report,
    standard_representation,
    validate_graded_real_system,
    witten_index,
    witten_index_report,
    witten_model_lattice,
)
from susyqm import analysis

from conftest import block_system, rank_deficient


class TestSpectralPairingReport:
    def test_minimal_system(self):
        system = validate_graded_real_system(np.eye(2), SIGMA3, [SIGMA1])
        report = spectral_pairing_report(system)
        assert report.bosonic_eigenvalues == (1.0,)
        assert report.fermionic_eigenvalues == (1.0,)
        assert len(report.pairs) == 1
        assert report.witten_index == 0
        assert report.unpaired_bosonic_zero_modes == 0

    def test_free_particle_lattice(self):
        report = spectral_pairing_report(free_particle_lattice(LatticeSpec(101, 1.0)))
        assert report.unpaired_bosonic_zero_modes == 1
        assert report.unpaired_fermionic_zero_modes == 0
        assert report.witten_index == 1
        # every positive eigenvalue appears once per sector
        assert len(report.pairs) == 50
        assert max(gap for _, _, gap in report.pairs) < 1e-10

    def test_superpotential_lattice_hosts_boundary_partner(self):
        # The confining superpotential keeps one bulk zero mode in the
        # bosonic sector; its image under the truncated difference sits in
        # the fermionic sector as a boundary mode, so the lattice index
        # vanishes even though the continuum limit would give +1.
        spec = LatticeSpec(101, 0.15, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, spec.coordinates())
        report = spectral_pairing_report(system)
        assert report.unpaired_bosonic_zero_modes == 1
        assert report.unpaired_fermionic_zero_modes == 1
        assert report.witten_index == 0
        assert len(report.pairs) == 100
        assert max(gap for _, _, gap in report.pairs) < 1e-12

    def test_pair_indices_point_at_stored_lists(self, rng):
        system = random_graded_system(3, 4, seed=11)
        report = spectral_pairing_report(system)
        for i, j, gap in report.pairs:
            vb = report.bosonic_eigenvalues[i]
            vf = report.fermionic_eigenvalues[j]
            assert abs(vb - vf) <= gap * max(vb, vf) * (1 + 1e-12)
        # every positive eigenvalue is paired exactly once
        paired_b = [i for i, _, _ in report.pairs]
        assert len(set(paired_b)) == len(paired_b)

    def test_zero_modes_never_pair(self, rng):
        system = random_graded_system(4, 4, seed=5)
        report = spectral_pairing_report(system)
        zb = report.unpaired_bosonic_zero_modes
        zf = report.unpaired_fermionic_zero_modes
        for i, j, _ in report.pairs:
            assert i >= zb and j >= zf

    def test_too_tight_pairing_tolerance_raises(self):
        system = random_graded_system(4, 4, seed=9)
        policy = NumericPolicy(pairing_tol=1e-300)
        with pytest.raises(PairingError):
            spectral_pairing_report(system, policy)


class TestWittenIndex:
    def test_invertible_block_gives_zero(self):
        q = np.sqrt(2.0) * np.array([[0, 1], [0, 0]], dtype=complex)
        system = validate_graded_real_system(
            np.eye(2), SIGMA3, [(q + adjoint(q)) / np.sqrt(2.0)])
        assert witten_index(system) == 0

    def test_zero_map_kernels_are_full_spaces(self):
        # index formula ingredients for the zero map between sectors of
        # unequal size: kernels are the whole domains
        a = np.zeros((3, 2), dtype=complex)
        assert kernel_basis(a).dim_kernel == 2
        assert kernel_basis(adjoint(a)).dim_kernel == 3

    @pytest.mark.parametrize("db,df,rank", [(3, 5, 3), (5, 2, 2), (4, 4, 2)])
    def test_rank_counting(self, rng, db, df, rank):
        h, k, q = block_system(rank_deficient(rng, df, db, rank))
        from susyqm import validate_graded_complex_system

        system = validate_graded_complex_system(h, k, [q])
        report = witten_index_report(system)
        assert report.dim_kernel_a == db - rank
        assert report.dim_kernel_a_dagger == df - rank
        assert report.index == (db - rank) - (df - rank)
        assert report.bosonic_zero_modes == db - rank
        assert report.fermionic_zero_modes == df - rank

    def test_superpotential_lattice_both_formulas_vanish(self):
        spec = LatticeSpec(101, 0.15, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, spec.coordinates())
        report = witten_index_report(system)
        assert report.index == 0
        assert (report.dim_kernel_a, report.dim_kernel_a_dagger) == (1, 1)
        assert (report.bosonic_zero_modes, report.fermionic_zero_modes) == (1, 1)

    def test_sign_flip_of_superpotential(self):
        spec = LatticeSpec(41, 0.3, Boundary.DIRICHLET)
        x = spec.coordinates()
        up = witten_index(witten_model_lattice(spec, x))
        down = witten_index(witten_model_lattice(spec, -x))
        assert up == down == 0

    def test_invariant_under_reparametrization(self, rng):
        system = random_graded_system(3, 5, seed=21)
        q1, q2 = real_from_complex(system.charges[0])
        graded = validate_graded_real_system(
            system.hamiltonian, system.involution.matrix, [q1, q2])
        base = witten_index(validate_graded_real_system(
            system.hamiltonian, system.involution.matrix, [q1]))
        for _ in range(5):
            angle = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(angle), np.sin(angle)
            rotated = reparametrize(graded, np.array([[c, s], [-s, c]]))
            single = validate_graded_real_system(
                rotated.hamiltonian, rotated.involution.matrix,
                [rotated.charges[0]])
            assert witten_index(single) == base

    def test_invariant_under_charge_phase(self):
        system = random_graded_system(2, 4, seed=3)
        base = witten_index(system)
        from susyqm import validate_graded_complex_system

        phased = validate_graded_complex_system(
            system.hamiltonian, system.involution.matrix,
            [np.exp(0.7j) * system.charges[0]])
        assert witten_index(phased) == base

    def test_formula_disagreement_raises(self, monkeypatch):
        system = random_graded_system(3, 3, seed=2)
        dims = iter([7, 0])

        class FakeKernel:
            def __init__(self):
                self.dim_kernel = next(dims)

        monkeypatch.setattr(analysis, "kernel_basis",
                            lambda a, policy: FakeKernel())
        with pytest.raises(CrossCheckError, match="disagree"):
            witten_index_report(system)


class TestIndexRange:
    def test_trivial_kernel(self):
        assert index_range(0) == [0]

    def test_two_dimensional_kernel(self):
        assert index_range(2) == [-2, 0, 2]

    def test_odd_kernel(self):
        assert index_range(3) == [-3, -1, 1, 3]

    def test_length(self):
        for d in range(7):
            assert len(index_range(d)) == d + 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            index_range(-1)


class TestKernelEqualityCheck:
    def test_pauli_pair_trivial_kernels(self):
        from susyqm import SIGMA2

        report = kernel_equality_check(SIGMA1, SIGMA2)
        assert report.dim_kernel_q1 == report.dim_kernel_q2 == 0

    def test_equal_squares_different_operators(self):
        report = kernel_equality_check(SIGMA1, SIGMA3)
        assert report.dim_kernel_q1 == report.dim_kernel_q2 == 0

    def test_superpotential_charge_pair(self):
        spec = LatticeSpec(61, 0.25, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, spec.coordinates())
        q1 = np.asarray(system.charges[0])
        q2 = -1j * (np.asarray(system.involution.matrix) @ q1)
        report = kernel_equality_check(q1, q2)
        # bulk zero mode plus its boundary partner, shared by both charges
        assert report.dim_kernel_q1 == report.dim_kernel_q2 == 2
        assert report.max_residual_q2_on_ker_q1 < 1e-8
        assert report.max_residual_q1_on_ker_q2 < 1e-8

    def test_rejects_unequal_squares(self):
        with pytest.raises(ValidationError, match="Q1\\^2 != Q2\\^2"):
            kernel_equality_check(SIGMA1, 2.0 * SIGMA3)


class TestReportInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_index_consistency_between_reports(self, seed):
        system = random_graded_system(3, 4, seed=seed)
        pair_report = spectral_pairing_report(system)
        index_report = witten_index_report(system)
        assert pair_report.witten_index == index_report.index
        assert pair_report.witten_index == (
            pair_report.unpaired_bosonic_zero_modes
            - pair_report.unpaired_fermionic_zero_modes)

    def test_positive_spectra_match_elementwise(self, rng):
        system = random_graded_system(5, 5, seed=13)
        report = spectral_pairing_report(system)
        zb = report.unpaired_bosonic_zero_modes
        zf = report.unpaired_fermionic_zero_modes
        pos_b = np.array(report.bosonic_eigenvalues[zb:])
        pos_f = np.array(report.fermionic_eigenvalues[zf:])
        assert pos_b.shape == pos_f.shape
        assert np.abs(pos_b - pos_f).max() <= 1e-8 * pos_b.max()


def _c07_system(w_sign):
    spec = LatticeSpec(101, 0.15, Boundary.DIRICHLET)
    return witten_model_lattice(spec, w_sign * spec.coordinates())


CROSS_REPORT_CASES = [
    pytest.param(lambda: _c07_system(1.0), id="c07-W=x"),
    pytest.param(lambda: _c07_system(-1.0), id="c07-W=-x"),
] + [
    pytest.param(lambda db=db, df=df, conj=conj: random_graded_system(
        db, df, seed=29, conjugate=conj),
        id=f"random-{db}x{df}{'-conjugated' if conj else ''}")
    for db, df in ((1, 4), (5, 3), (10, 10), (64, 48))
    for conj in (False, True)
]


def _svd_kernel_dim(a, policy=NumericPolicy()):
    """dim ker A from LAPACK singular values under kernel_basis's cutoff
    ``max(kernel_tol^2, 2 max(shape) eps) sigma_max^2`` on sigma^2."""
    sigma = np.linalg.svd(np.asarray(a), compute_uv=False)
    floor = 2.0 * max(a.shape) * np.finfo(np.float64).eps
    cutoff = max(policy.kernel_tol**2, floor) * float(sigma.max(initial=0.0))**2
    return a.shape[1] - int(np.count_nonzero(sigma**2 > cutoff))


@pytest.mark.parametrize("build", CROSS_REPORT_CASES)
def test_zero_counts_agree_across_reports(build):
    system = build()
    pair_report = spectral_pairing_report(system)
    index_report = witten_index_report(system)
    assert (index_report.bosonic_zero_modes,
            index_report.fermionic_zero_modes) == (
        pair_report.unpaired_bosonic_zero_modes,
        pair_report.unpaired_fermionic_zero_modes)
    a = np.asarray(standard_representation(system).a_operator)
    assert index_report.dim_kernel_a == _svd_kernel_dim(a)
    assert index_report.dim_kernel_a_dagger == _svd_kernel_dim(adjoint(a))


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _c07_system(1.0), id="c07-W=x"),
    pytest.param(lambda: _c07_system(-1.0), id="c07-W=-x"),
] + [
    pytest.param(lambda seed=seed: random_graded_system(64, 48, seed, conjugate=True),
                 id=f"random-64x48-conjugated-seed{seed}")
    for seed in (3, 17)
])
def test_zero_cut_is_shared_by_both_reports(build):
    # The pairing report cuts its bisected spectra at kernel_tol times the
    # largest magnitude; the index report takes the cut from the extreme
    # eigenvalues alone.  Both must land on the same float.
    policy = NumericPolicy()
    rep = standard_representation(build(), policy)
    _, _, pairing_cut = analysis._sector_spectra(rep, policy, "test")
    sectors = analysis._sector_tridiagonals(rep, policy, "test")
    index_cut = analysis._zero_cut(policy, *(t.radius() for t in sectors))
    assert pairing_cut == index_cut
