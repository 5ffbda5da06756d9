import dataclasses
import math

import numpy as np
import pytest

from susyqm import (
    Boundary,
    CrossCheckError,
    LatticeSpec,
    NumericPolicy,
    PairingError,
    SIGMA1,
    SIGMA2,
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
    validate_graded_complex_system,
    validate_graded_real_system,
    witten_index,
    witten_index_report,
    witten_model_lattice,
)
from susyqm import analysis
from susyqm.spectral import _Tridiagonal

from conftest import block_system, c07_system, rank_deficient, svd_kernel_dim

# Policies and a singular value that drive the pairing walk into each of
# its exits on a hand-built system: a 1e-12 bump separates partners by
# ten times pairing_tol.  Two singular values with sigma^2 = 4.9e-4 and a
# bump of 4.95e-4 on a kernel mode leave {q,q^dag} = 2H off by 9.9e-4,
# inside algebra_tol = 1e-3, and keep ||H|| = 1.1e-3 above it (H != 0).
_TIGHT = NumericPolicy(kernel_tol=1e-14, pairing_tol=1e-13)
_LOOSE = NumericPolicy(algebra_tol=1e-3)
_SIGMA_EXHAUST = np.sqrt(4.9e-4)


def _bumped_block_system(a, mode, bump, policy):
    """The graded system of ``H = diag(A^dag A, A A^dag)`` with ``bump``
    added to the diagonal entry ``mode`` of H."""
    h, k, q = block_system(a)
    h[mode, mode] += bump
    return validate_graded_complex_system(h, k, [q], policy)


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
        system = c07_system(1.0)
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

    @pytest.mark.parametrize("a,mode,bump,policy,message,orphan,sector", [
        (np.diag([1.0, 2.0]), 2, 1e-12, _TIGHT,
         "bosonic eigenvalue 1.0 has no fermionic partner "
         "(nearest gap 1.000e-12)", 1.0, "bosonic"),
        (np.diag([1.0, 2.0]), 2, -1e-12, _TIGHT,
         "fermionic eigenvalue 0.999999999999 has no bosonic partner "
         "(nearest gap 1.000e-12)", 0.999999999999, "fermionic"),
        (_SIGMA_EXHAUST * np.eye(2, 3), 2, 4.95e-4, _LOOSE,
         "bosonic eigenvalue 0.000495 has no fermionic partner "
         "(fermionic sector exhausted)", 0.000495, "bosonic"),
        (_SIGMA_EXHAUST * np.eye(3, 2), 4, 4.95e-4, _LOOSE,
         "fermionic eigenvalue 0.000495 has no bosonic partner "
         "(bosonic sector exhausted)", 0.000495, "fermionic"),
    ], ids=["gap-bosonic", "gap-fermionic", "exhausted-fermionic",
            "exhausted-bosonic"])
    def test_orphan_names_value_and_sector(self, a, mode, bump, policy,
                                           message, orphan, sector):
        system = _bumped_block_system(a, mode, bump, policy)
        with pytest.raises(PairingError) as info:
            spectral_pairing_report(system, policy)
        assert str(info.value) == message
        assert info.value.orphan == orphan
        assert info.value.sector == sector


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
        system = c07_system(1.0)
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
        monkeypatch.setattr(analysis, "_kernel_dim",
                            lambda a, policy, seeds: next(dims))
        with pytest.raises(CrossCheckError, match="disagree"):
            witten_index_report(system)

    def test_disagreement_message_gives_block_residuals_and_cut_margin(self):
        # The bump keeps the kernel mode of A out of h_plus, far from any
        # cut: the blocks, not the threshold, make the formulas differ.
        system = _bumped_block_system(_SIGMA_EXHAUST * np.eye(2, 3), 2,
                                      4.95e-4, _LOOSE)
        with pytest.raises(CrossCheckError) as info:
            witten_index_report(system, _LOOSE)
        message = str(info.value)
        assert message.startswith(
            "index formulas disagree: dim ker A - dim ker A^dag = 1 - 0 = 1, "
            "but sector zero-mode counts give 0 - 0 = 0; "
            "||h_plus - A^dag A|| = 4.5e-01 ||H||, ||h_minus - A A^dag|| = ")
        assert message.endswith(
            " ||H||; the sector eigenvalue nearest the zero cut 4.950e-12 is "
            "bosonic 4.900e-04, 9.9e+07 times the cut")
        assert "cluster" not in message


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

    @pytest.mark.parametrize("d", [True, 1.0, 2.5, "2"])
    def test_rejects_non_integers(self, d):
        with pytest.raises(TypeError, match="^d must be an integer"):
            index_range(d)

    def test_accepts_numpy_integers(self):
        assert index_range(np.int64(2)) == index_range(np.uint8(2)) == [-2, 0, 2]


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

    def test_charges_at_two_to_the_540(self):
        # Squared bare, entries of 2**540 overflow; squared scaled, the
        # kernels match and the residuals are rescaled exactly.
        spec = LatticeSpec(61, 0.25, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, spec.coordinates())
        q1 = np.asarray(system.charges[0])
        q2 = -1j * (np.asarray(system.involution.matrix) @ q1)
        report = kernel_equality_check(q1, q2)
        big = kernel_equality_check(2.0**540 * q1, 2.0**540 * q2)
        assert big.dim_kernel_q1 == big.dim_kernel_q2 == report.dim_kernel_q1 == 2
        assert big.max_residual_q2_on_ker_q1 == math.ldexp(
            report.max_residual_q2_on_ker_q1, 540)
        assert big.max_residual_q1_on_ker_q2 == math.ldexp(
            report.max_residual_q1_on_ker_q2, 540)

    @pytest.mark.parametrize("q1,q2,names", [
        ([[0, 1], [0, 0]], np.zeros((2, 2)), ["Q1 self-adjoint"]),
        (SIGMA1, [[0, 0], [1, 0]], ["Q2 self-adjoint"]),
        ([[0, 1], [0, 0]], [[0, 0], [1j, 0]], ["Q1 self-adjoint", "Q2 self-adjoint"]),
    ])
    def test_rejects_charges_that_are_not_self_adjoint(self, q1, q2, names):
        # The norm identity needs self-adjoint charges: Q1 = [[0, 1], [0, 0]]
        # squares to Q2^2 = 0, yet its kernel is one-dimensional.
        with pytest.raises(ValidationError, match="self-adjoint") as excinfo:
            kernel_equality_check(q1, q2)
        assert [c.name for c in excinfo.value.failures] == names


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


CROSS_REPORT_CASES = [
    pytest.param(lambda: c07_system(1.0), id="c07-W=x"),
    pytest.param(lambda: c07_system(-1.0), id="c07-W=-x"),
] + [
    pytest.param(lambda db=db, df=df, conj=conj: random_graded_system(
        db, df, seed=29, conjugate=conj),
        id=f"random-{db}x{df}{'-conjugated' if conj else ''}")
    for db, df in ((1, 4), (5, 3), (10, 10), (64, 48))
    for conj in (False, True)
]


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
    assert index_report.dim_kernel_a == svd_kernel_dim(a)
    assert index_report.dim_kernel_a_dagger == svd_kernel_dim(adjoint(a))


def _counts(pair, index):
    """Every integer of both reports: zero modes, pairs, both index
    formulas and the index."""
    return (pair.unpaired_bosonic_zero_modes, pair.unpaired_fermionic_zero_modes,
            len(pair.pairs), pair.witten_index,
            index.dim_kernel_a, index.dim_kernel_a_dagger,
            index.bosonic_zero_modes, index.fermionic_zero_modes, index.index)


@pytest.mark.parametrize("db,df,seed", [
    (db, df, seed)
    for db, df in ((1, 4), (5, 3), (10, 10), (20, 31), (64, 48))
    for seed in (1, 29)
])
def test_reports_do_not_depend_on_the_basis(db, df, seed):
    # Witten's triple and its index are statements about operators, so
    # they hold in any basis.  A is drawn before the unitary, so the
    # conjugated system is the plain one in a hidden basis: every count
    # must be equal and the sector spectra must agree to rounding.
    plain, rotated = (random_graded_system(db, df, seed, conjugate=c)
                      for c in (False, True))
    reports = [(spectral_pairing_report(s), witten_index_report(s))
               for s in (plain, rotated)]
    assert _counts(*reports[0]) == _counts(*reports[1])
    (pair, _), (pair_rotated, _) = reports
    lam_max = max(np.abs(pair.bosonic_eigenvalues).max(),
                  np.abs(pair.fermionic_eigenvalues).max())
    tol = 2 * (db + df) * np.finfo(np.float64).eps * lam_max
    for got, want in ((pair_rotated.bosonic_eigenvalues, pair.bosonic_eigenvalues),
                      (pair_rotated.fermionic_eigenvalues, pair.fermionic_eigenvalues)):
        assert np.abs(np.subtract(got, want)).max() <= tol


@pytest.mark.parametrize("build", [
    pytest.param(lambda: c07_system(1.0), id="c07-W=x"),
    pytest.param(lambda: c07_system(-1.0), id="c07-W=-x"),
] + [
    pytest.param(lambda seed=seed: random_graded_system(64, 48, seed, conjugate=True),
                 id=f"random-64x48-conjugated-seed{seed}")
    for seed in (3, 17)
])
def test_zero_cut_is_shared_by_both_reports(build):
    # Both reports read the cut and the zero-mode counts of one sector
    # analysis; the cut must be the float kernel_tol times the largest
    # magnitude of its stored spectra, and each count the number of
    # stored eigenvalues at or below the cut, as a Python int.
    policy = NumericPolicy()
    sectors = analysis._sector_analysis(build(), policy)
    largest = max(float(np.abs(ev).max()) for ev in (sectors.ev_b, sectors.ev_f))
    assert sectors.cut == policy.kernel_tol * largest
    for ev, zeros in ((sectors.ev_b, sectors.zeros_b),
                      (sectors.ev_f, sectors.zeros_f)):
        assert not ev.flags.writeable
        assert type(zeros) is int
        assert zeros == np.count_nonzero(ev <= sectors.cut)


@pytest.fixture
def representation_calls(monkeypatch):
    """Policies passed to ``analysis.standard_representation``, one entry
    per call."""
    calls = []

    def counted(system, policy):
        calls.append(policy)
        return standard_representation(system, policy)

    monkeypatch.setattr(analysis, "standard_representation", counted)
    return calls


def test_reports_share_one_sector_analysis_per_policy(representation_calls):
    system = random_graded_system(5, 3, seed=1)
    spectral_pairing_report(system)
    witten_index_report(system)
    witten_index(system)
    assert len(representation_calls) == 1
    other = NumericPolicy(kernel_tol=1e-9)
    spectral_pairing_report(system, other)
    witten_index_report(system, other)
    assert len(representation_calls) == 2
    copy = dataclasses.replace(system)
    assert copy._sector_analyses == {}
    witten_index(copy)
    assert len(representation_calls) == 3


def test_each_sector_is_bisected_once_per_analysis(monkeypatch):
    calls = []
    eigenvalues = _Tridiagonal.eigenvalues
    monkeypatch.setattr(_Tridiagonal, "eigenvalues",
                        lambda self, *seeds: calls.append(self.n)
                        or eigenvalues(self, *seeds))
    system = random_graded_system(5, 3, seed=1)
    spectral_pairing_report(system)
    spectral_pairing_report(system)
    witten_index_report(system)
    witten_index(system)
    assert calls == [5, 3]


@pytest.mark.parametrize("system,sectors,passes", [
    (lambda: c07_system(1.0), [(101, 0), (101, 404)], 4),
    (lambda: c07_system(-1.0), [(101, 0), (101, 404)], 4),
    (lambda: random_graded_system(64, 48, seed=1, conjugate=True),
     [(64, 0), (48, 256)], 4),
    (lambda: random_graded_system(20, 31, seed=1, conjugate=True),
     [(31, 0), (20, 124)], 2),
], ids=["c07-up", "c07-down", "scrambled-64-48", "scrambled-20-31"])
def test_larger_sector_seeds_the_other(monkeypatch, system, sectors, passes):
    # The larger sector (bosonic on ties) is bisected from the Gershgorin
    # bracket; its spectrum seeds the other, four seeds per eigenvalue
    # (K / 2 floats and the Gram floor on both sides).  The seeded
    # sector's Sturm passes are pinned: one over the seeds, then the
    # rounds; C07's one near-zero mode is finished by scalar bisection.
    calls = []
    counts = _Tridiagonal._counts
    eigenvalues = _Tridiagonal.eigenvalues

    def spy_eigenvalues(self, seeds=()):
        calls.append([self.n, len(seeds), 0])
        return eigenvalues(self, seeds)

    def spy_counts(self, xs):
        calls[-1][2] += 1
        return counts(self, xs)

    monkeypatch.setattr(_Tridiagonal, "eigenvalues", spy_eigenvalues)
    monkeypatch.setattr(_Tridiagonal, "_counts", spy_counts)
    spectral_pairing_report(system())
    assert [(n, seeds) for n, seeds, _ in calls] == sectors
    assert calls[1][2] == passes


@pytest.mark.parametrize("system,policy", [
    (lambda: c07_system(1.0), NumericPolicy()),
    (lambda: c07_system(-1.0), NumericPolicy()),
    (lambda: random_graded_system(64, 48, seed=1, conjugate=True), NumericPolicy()),
    (lambda: random_graded_system(20, 31, seed=1, conjugate=True), NumericPolicy()),
    (lambda: random_graded_system(1, 4, seed=3, conjugate=True), NumericPolicy()),
    # h_minus = diag(1 + 1e-12, 2): its partner of 1 sits about 4,500
    # floats away, outside both seed pairs.
    (lambda: _bumped_block_system(np.diag([1.0, 2.0]), 2, 1e-12, _TIGHT), _TIGHT),
], ids=["c07-up", "c07-down", "scrambled-64-48", "scrambled-20-31",
        "one-by-one-sector", "bumped-partner"])
def test_seeded_sector_spectra_match_unseeded(system, policy):
    # Seeds choose only where the brackets start: the seeded sector
    # closes on the floats a from-scratch bisection of its block gives.
    sectors = analysis._sector_analysis(system(), policy)
    for block, ev in ((sectors.rep.h_plus, sectors.ev_b),
                      (sectors.rep.h_minus, sectors.ev_f)):
        assert ev.tobytes() == _Tridiagonal(block).eigenvalues().tobytes()


def test_index_report_seeds_the_gram_lambda_max(monkeypatch):
    # The sector analysis's spectral radius, widened by the Gram floor,
    # seeds both Gram lambda_max bisections: C07's index report makes
    # two counts at the seeds, about eleven steps of bisection and one
    # count at the cutoff per Gram matrix (128 counts from Gershgorin).
    system = c07_system(1.0)
    spectral_pairing_report(system)
    calls = []
    below = _Tridiagonal._below
    monkeypatch.setattr(_Tridiagonal, "_below",
                        lambda self, x: calls.append(x) or below(self, x))
    witten_index_report(system)
    assert len(calls) <= 30


def test_index_report_builds_no_kernel_vectors(monkeypatch):
    calls = []
    lowest_vectors = _Tridiagonal.lowest_vectors
    monkeypatch.setattr(
        _Tridiagonal, "lowest_vectors",
        lambda self, *args: calls.append(self.n) or lowest_vectors(self, *args))
    report = witten_index_report(random_graded_system(9, 6, seed=3))
    assert (report.dim_kernel_a, report.dim_kernel_a_dagger) == (3, 0)
    assert calls == []


def test_failed_sector_analysis_is_not_kept(representation_calls):
    two_charges = validate_graded_real_system(np.eye(2), SIGMA3,
                                              [SIGMA1, SIGMA2])
    for report in (spectral_pairing_report, witten_index_report):
        with pytest.raises(ValueError, match="exactly one charge"):
            report(two_charges)
    assert len(representation_calls) == 2
    assert two_charges._sector_analyses == {}
