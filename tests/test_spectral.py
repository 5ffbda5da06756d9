import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (
    ConvergenceError,
    LatticeSpec,
    NumericPolicy,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    ValidationError,
    adjoint,
    construct_involution,
    eigh,
    eigvalsh,
    free_particle_lattice,
    inverse_on_complement,
    io,
    jacobi_backend,
    kernel_basis,
    spectral_pairing_report,
    standard_representation,
    tensor_supercharge,
)
from susyqm import _jacobi_py, spectral
from susyqm.cli import main
from susyqm.core import RelationCheck, residual_norm
from susyqm.spectral import _float_key, _key_float, _pinv_and_kernel, _Tridiagonal

from conftest import (
    c07_system,
    gram_cutoff,
    haar_unitary,
    random_complex,
    random_hermitian,
    rank_deficient,
    real_pair_from_block,
    svd_kernel_dim,
)

F = np.array([[0, 1], [0, 0]], dtype=complex)

# Frozen from an independent dense eigensolver (LAPACK zheevd) run on the
# 101-site, dx = 0.15 lattice with superpotential W(x) = x: two numerical
# zero modes, then the doubly degenerate cluster near 2.
WITTEN_101_CLUSTERS = [1.98865287, 3.95441029, 5.89685749]


class TestEighClosedForms:
    @pytest.mark.parametrize("mat", [SIGMA1, SIGMA2, SIGMA3])
    def test_pauli_spectra(self, mat):
        dec = eigh(mat)
        assert np.abs(dec.eigenvalues - np.array([-1.0, 1.0])).max() < 1e-12

    def test_diagonal_matrix(self):
        dec = eigh(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert dec.dim == 3
        assert np.abs(dec.eigenvalues - np.array([1.0, 2.0, 3.0])).max() < 1e-12

    def test_sigma1_eigenvectors(self):
        dec = eigh(SIGMA1)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        # eigenvectors carry arbitrary phases; compare by overlap
        assert abs(minus.conj() @ dec.eigenvectors[:, 0]) == pytest.approx(1.0)
        assert abs(plus.conj() @ dec.eigenvectors[:, 1]) == pytest.approx(1.0)

    def test_one_dimensional(self):
        dec = eigh(np.array([[2.5]], dtype=complex))
        assert dec.eigenvalues[0] == 2.5


class TestEighInvariants:
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 33, 64])
    def test_against_dense_oracle(self, rng, n):
        a = random_hermitian(rng, n)
        w = eigvalsh(a)
        w_ref = np.linalg.eigvalsh(a)  # independent oracle
        assert np.abs(w - w_ref).max() < n * 1e-12 * max(1.0, np.linalg.norm(a))

    @pytest.mark.parametrize("n", [2, 5, 16, 48])
    def test_unitarity_and_reconstruction(self, rng, n):
        a = random_hermitian(rng, n)
        dec = eigh(a)
        u = dec.eigenvectors
        tol = n * 1e-12
        assert np.linalg.norm(adjoint(u) @ u - np.eye(n)) < tol
        rebuilt = u @ np.diag(dec.eigenvalues) @ adjoint(u)
        assert np.linalg.norm(a - rebuilt) < tol * np.linalg.norm(a)

    def test_eigh_eigvalsh_agree(self, rng):
        a = random_hermitian(rng, 12)
        assert np.array_equal(eigh(a).eigenvalues, eigvalsh(a))

    def test_zero_matrix(self):
        dec = eigh(np.zeros((4, 4)))
        assert np.array_equal(dec.eigenvalues, np.zeros(4))
        assert np.array_equal(dec.eigenvectors, np.eye(4))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eigh(F)

    def test_reports_non_convergence(self):
        with pytest.raises(ConvergenceError, match="off-diagonal"):
            eigh(SIGMA1, max_sweeps=0)

    @pytest.mark.parametrize("solver", [eigh, eigvalsh])
    @pytest.mark.parametrize("max_sweeps", [True, 2.5, "3", None])
    def test_mistyped_max_sweeps_is_refused(self, solver, max_sweeps):
        # Unchecked, True and 2.5 ran as 1 and 3 sweeps and "3" failed
        # inside the kernel.
        with pytest.raises(TypeError, match="^max_sweeps must be an integer"):
            solver(SIGMA1, max_sweeps=max_sweeps)

    @pytest.mark.parametrize("solver", [eigh, eigvalsh])
    def test_negative_max_sweeps_is_refused(self, solver):
        # Unchecked, -1 ran no sweep at all.
        with pytest.raises(ValueError, match="^max_sweeps must be nonnegative"):
            solver(np.eye(2), max_sweeps=-1)


class TestExtremeScales:
    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    def test_eigvalsh_against_oracle(self, rng, scale):
        b = rng.normal(size=(6, 6))
        a = scale * (b + b.T)
        w_ref = np.linalg.eigvalsh(a)
        tol = 6 * 1e-12 * np.abs(w_ref).max()
        assert np.abs(eigvalsh(a) - w_ref).max() <= tol
        assert np.abs(eigh(a).eigenvalues - w_ref).max() <= tol

    def test_power_of_two_scaling_is_exact(self, rng):
        a = random_hermitian(rng, 9)
        dec = eigh(a)
        for e in (-500, 500):
            scaled = eigh(np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e))
            assert np.array_equal(scaled.eigenvalues, np.ldexp(dec.eigenvalues, e))
            assert np.array_equal(scaled.eigenvectors, dec.eigenvectors)

    def test_entries_near_the_float_maximum(self):
        # a + a^dag would overflow here; both paths scale before symmetrizing
        a = 5e307 * np.array([[1.0, 1.0], [1.0, 1.0]])
        for w in (eigvalsh(a), _Tridiagonal(a).eigenvalues()):
            assert w[0] == 0.0
            assert w[1] == pytest.approx(1e308, rel=1e-15)

    # At 8e307 both norms of the residual overflow: inf / inf is NaN.
    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e300, 8e307])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        with pytest.raises(ValidationError, match="Hermitian"):
            eigvalsh(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e200, 1e300])
    def test_residual_norm_does_not_overflow(self, scale):
        a = np.full((3, 4), scale * (3.0 + 4.0j))
        exact = scale * 5.0 * np.sqrt(12.0)
        assert residual_norm(a) == pytest.approx(exact, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("must_exceed", [False, True])
    def test_nan_residual_fails(self, must_exceed):
        check = RelationCheck.judge("X", float("nan"), 1e-10, must_exceed)
        assert not check.passed


class TestBackends:
    def test_fallback_matches_active_backend(self, rng):
        a = random_hermitian(rng, 24)
        work = np.ascontiguousarray(0.5 * (a + adjoint(a)))
        vt = np.eye(24, dtype=complex)
        tol = 1e-12 * np.linalg.norm(work)
        _, off = _jacobi_py.jacobi_sweeps(work, vt, tol, 100, True)
        assert off <= tol

    def test_backend_reported(self):
        assert jacobi_backend() == "python"


def _real_with_degenerate_spectrum(rng, n):
    # Integer eigenvalues in [-3, 3]: zeros, repeats and negatives for n >= 7.
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = np.round(3.0 * rng.uniform(-1.0, 1.0, size=n))
    d[0] = 0.0
    a = (q * d) @ q.T
    return 0.5 * (a + a.T)


JACOBI_REAL_CASES = {
    **{f"degenerate-{n}": functools.partial(_real_with_degenerate_spectrum, n=n)
       for n in (1, 2, 3, 7, 12, 24, 40)},
    "zero-5": lambda rng: np.zeros((5, 5)),
    "free-particle-21": lambda rng: free_particle_lattice(
        LatticeSpec(21, 0.3)).hamiltonian,
}


class TestJacobiRealWork:
    @pytest.mark.parametrize("case", sorted(JACOBI_REAL_CASES))
    def test_same_bits_as_complex_work(self, monkeypatch, rng, case):
        # Real input reaches the sweeps as float64 work, the array the
        # tridiagonal path reads; forcing complex128 work changes no bit of
        # the eigenvalues or of the (complex128) eigenvectors.
        a = JACOBI_REAL_CASES[case](rng)
        seen = []
        sweeps = spectral._kernel.jacobi_sweeps
        monkeypatch.setattr(spectral._kernel, "jacobi_sweeps",
                            lambda work, vt, *rest: seen.append((work.dtype, vt.dtype))
                            or sweeps(work, vt, *rest))
        real, real_w = eigh(a), eigvalsh(a)
        monkeypatch.setattr(spectral, "_work_array",
                            lambda a: np.asarray(a, dtype=np.complex128))
        forced, forced_w = eigh(a), eigvalsh(a)
        assert seen == [(np.float64, np.float64)] * 2 + [(np.complex128,) * 2] * 2
        assert real.eigenvectors.dtype == forced.eigenvectors.dtype == np.complex128
        assert real.eigenvalues.tobytes() == forced.eigenvalues.tobytes()
        assert real.eigenvectors.tobytes() == forced.eigenvectors.tobytes()
        assert real_w.tobytes() == forced_w.tobytes() == real.eigenvalues.tobytes()


class TestEighWittenLattice:
    def test_lowest_cluster_matches_oracle(self):
        w = eigvalsh(c07_system(1.0).hamiltonian)
        lam_max = w[-1]
        # two numerical zero modes (bulk Gaussian and boundary partner)
        assert w[0] <= 1e-8 * lam_max
        assert w[1] <= 1e-8 * lam_max
        # doubly degenerate clusters frozen from the dense oracle
        for k, value in enumerate(WITTEN_101_CLUSTERS):
            pair = w[2 + 2 * k: 4 + 2 * k]
            assert np.abs(pair - value).max() < 1e-6


class TestKernelBasis:
    def test_invertible_has_no_kernel(self):
        assert kernel_basis(SIGMA3).dim_kernel == 0

    def test_ladder_kernel(self):
        kb = kernel_basis(F)
        assert kb.dim_kernel == 1
        overlap = abs(np.array([1.0, 0.0]).conj() @ kb.basis[:, 0])
        assert overlap == pytest.approx(1.0)

    def test_zero_matrix_full_kernel(self):
        kb = kernel_basis(np.zeros((3, 3)))
        assert kb.dim_kernel == 3

    def test_rectangular_rank_counts(self, rng):
        from conftest import rank_deficient

        a = rank_deficient(rng, 3, 5, rank=2)
        assert kernel_basis(a).dim_kernel == 3
        assert kernel_basis(adjoint(a)).dim_kernel == 1

    def test_annihilation_invariant(self, rng):
        from conftest import rank_deficient

        a = rank_deficient(rng, 6, 6, rank=4)
        kb = kernel_basis(a)
        assert kb.dim_kernel == 2
        sigma_max = np.linalg.norm(a, 2)
        assert np.linalg.norm(a @ kb.basis) <= 1e-8 * sigma_max * np.sqrt(2.0)
        gram = adjoint(kb.basis) @ kb.basis
        assert np.linalg.norm(gram - np.eye(2)) < 1e-12

    def test_kernel_of_square_matches_kernel(self, rng):
        # Q phi = 0 iff Q^2 phi = 0 for self-adjoint Q
        a = random_hermitian(rng, 7)
        dec = eigh(a)
        w = dec.eigenvalues.copy()
        w[:3] = 0.0
        q = dec.eigenvectors @ np.diag(w) @ adjoint(dec.eigenvectors)
        assert kernel_basis(q).dim_kernel == 3
        assert kernel_basis(q @ q).dim_kernel == 3


class TestInverseOnComplement:
    def test_self_inverse_examples(self):
        assert np.allclose(inverse_on_complement(SIGMA3), SIGMA3)
        assert np.allclose(inverse_on_complement(SIGMA1), SIGMA1)

    def test_singular_diagonal(self):
        out = inverse_on_complement(np.diag([2.0, 0.0]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            inverse_on_complement(F)

    @pytest.mark.parametrize("n", [3, 8, 24, 64])
    def test_penrose_identities(self, rng, n):
        a = random_hermitian(rng, n)
        # make a third of the directions singular
        dec = eigh(a)
        w = dec.eigenvalues.copy()
        w[: n // 3] = 0.0
        u = dec.eigenvectors
        singular = u @ np.diag(w) @ adjoint(u)
        pinv = inverse_on_complement(singular)
        tol = n * 1e-12 * max(1.0, np.linalg.norm(singular))
        assert np.linalg.norm(pinv @ singular @ pinv - pinv) < tol
        assert np.linalg.norm(singular @ pinv @ singular - singular) < tol
        projector = pinv @ singular
        assert np.linalg.norm(projector @ projector - projector) < tol


def _hermitian_of_rank(rng, n, rank):
    """Indefinite Hermitian matrix of the given rank, nonzero eigenvalues
    of modulus in [1, 2]."""
    u = haar_unitary(rng, n)[:, :rank]
    w = rng.uniform(1.0, 2.0, rank) * rng.choice([-1.0, 1.0], rank)
    return (u * w) @ adjoint(u)


@pytest.mark.usefixtures("no_jacobi")
class TestPseudoInverseWithoutJacobi:
    """The pseudo-inverse and the involution construction built on it take
    the tridiagonal path and one pivoted elimination, never Jacobi."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_matrix_is_all_kernel(self, n):
        zero = np.zeros((n, n), dtype=complex)
        pinv, kernel = _pinv_and_kernel(zero, NumericPolicy())
        assert np.array_equal(pinv, zero)
        assert np.array_equal(kernel, np.eye(n))
        assert np.array_equal(inverse_on_complement(zero), zero)

    @pytest.mark.parametrize("x", [-4.0, 3e-200, 1e200])
    def test_one_by_one(self, x):
        pinv = inverse_on_complement(np.array([[x]]))
        assert pinv.shape == (1, 1)
        assert pinv[0, 0] == pytest.approx(1.0 / x, rel=1e-15)

    def test_full_rank_is_the_inverse(self, rng):
        a = random_hermitian(rng, 12)
        pinv = inverse_on_complement(a)
        assert np.array_equal(pinv, adjoint(pinv))
        assert np.linalg.norm(pinv @ a - np.eye(12)) < 1e-10
        assert _pinv_and_kernel(a, NumericPolicy())[1].shape == (12, 0)

    @pytest.mark.parametrize("rank", range(9))
    def test_kernel_dimension_on_a_rank_sweep(self, rng, rank):
        q = _hermitian_of_rank(rng, 8, rank)
        pinv = inverse_on_complement(q)
        assert kernel_basis(q).dim_kernel == 8 - rank
        assert kernel_basis(pinv).dim_kernel == kernel_basis(q).dim_kernel
        assert np.linalg.norm(q @ pinv @ q - q) < 1e-12
        assert np.linalg.norm(pinv @ q @ pinv - pinv) < 1e-12

    def test_power_of_two_scaling_is_exact(self, rng):
        q = _hermitian_of_rank(rng, 6, 4)
        for e in (-600, 600):
            scaled = np.ldexp(q.real, e) + 1j * np.ldexp(q.imag, e)
            out = inverse_on_complement(scaled)
            assert np.array_equal(
                np.ldexp(out.real, e) + 1j * np.ldexp(out.imag, e),
                inverse_on_complement(q))

    @pytest.mark.parametrize("d_plus", [None, 0, 1])
    def test_construct_involution(self, rng, d_plus):
        h, _, q1, q2 = real_pair_from_block(rank_deficient(rng, 3, 4, 2))
        k = construct_involution(q1, q2, d_plus=d_plus).matrix
        signature = 2 * (3 if d_plus is None else d_plus) - 3
        assert np.trace(k).real == pytest.approx(signature, abs=1e-12)
        assert np.linalg.norm(k @ q1 + q1 @ k) < 1e-12

    def test_involution_verb(self, rng, tmp_path):
        h, _, q1, q2 = real_pair_from_block(rank_deficient(rng, 3, 4, 2))
        plain = tmp_path / "plain.json"
        io.save_system(plain, io.SystemFile(h, None, (q1, q2), False))
        for extra in ([], ["--d-plus", "0"]):
            out = tmp_path / "graded.json"
            assert main(["involution", str(plain), "--output", str(out)]
                        + extra) == 0
            assert io.load_system(out).involution is not None


def _second_difference(n):
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)).astype(complex)


def _c07_sector(name):
    return getattr(standard_representation(c07_system(1.0)), name)


def _split_tridiagonal(rng, n):
    """Random real tridiagonal with a zero coupling mid-matrix, so ``T``
    is the direct sum of two blocks."""
    d = rng.normal(size=n)
    e = rng.uniform(0.5, 1.5, size=n - 1)
    e[n // 2 - 1] = 0.0
    return (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).astype(complex)


SPECTRUM_CASES = {
    "c07-h_plus": lambda rng: _c07_sector("h_plus"),
    "c07-h_minus": lambda rng: _c07_sector("h_minus"),
    "second-difference": lambda rng: _second_difference(40),
    "witten-101": lambda rng: c07_system(1.0).hamiltonian,
    "repeated-diagonal": lambda rng: np.diag([2.0, -1.0, 2.0, 0.0, 2.0, -1.0]),
    "one-by-one": lambda rng: np.array([[-3.5]]),
    "zero": lambda rng: np.zeros((5, 5)),
}
SPECTRUM_CASES.update({
    f"random-{n}": (lambda rng, n=n: random_hermitian(rng, n))
    for n in (2, 3, 8, 17, 33, 64)
})
# Dims on each side of the multisection width rule, K = 16, 8, 8 and 4,
# and a split tridiagonal at K = 2.
SPECTRUM_CASES.update({
    f"random-{n}": (lambda rng, n=n: random_hermitian(rng, n))
    for n in (48, 101, 122, 202)
})
SPECTRUM_CASES["split-tridiagonal-400"] = lambda rng: _split_tridiagonal(rng, 400)
# The float64 reduction (real dense and a real lattice sector) and the
# complex one at the largest sector dim of the benchmark.
SPECTRUM_CASES.update({
    "real-101": lambda rng: _real_symmetric(rng, 101),
    "free-particle-21": lambda rng: standard_representation(
        free_particle_lattice(LatticeSpec(21, 0.3))).h_plus,
    "complex-112": lambda rng: random_hermitian(rng, 112),
})


def _real_symmetric(rng, n):
    b = rng.normal(size=(n, n))
    return 0.5 * (b + b.T)


def _complex_tridiagonal(rng, n):
    """Hermitian tridiagonal with complex couplings, one of them zero and
    one subnormal."""
    e = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    e[n // 3] = 0.0
    e[n // 2] = complex(math.ldexp(3.0, -1060), math.ldexp(-4.0, -1060))
    t = np.diag(rng.normal(size=n)).astype(complex) + np.diag(e, -1)
    return t + np.diag(e.conj(), 1)


TRIDIAGONAL_CASES = {
    "c07-h_plus": lambda rng: _c07_sector("h_plus"),
    "c07-h_minus": lambda rng: _c07_sector("h_minus"),
    "c07-gram": lambda rng: _c07_gram(1),
    "second-difference": lambda rng: _second_difference(40),
    "split-tridiagonal": lambda rng: _split_tridiagonal(rng, 30),
    "complex-12": lambda rng: _complex_tridiagonal(rng, 12),
}


class TestTridiagonalPath:
    @pytest.mark.parametrize("n", [1, 2, 7, 33])
    def test_sturm_count_matches_oracle(self, rng, n):
        a = random_hermitian(rng, n)
        w = np.linalg.eigvalsh(a)
        tri = _Tridiagonal(a)
        probes = np.concatenate([[w[0] - 1.0], 0.5 * (w[1:] + w[:-1]),
                                 [w[-1] + 1.0]])
        for x in probes:
            assert tri.count(x) == np.count_nonzero(w <= x)

    def test_count_includes_eigenvalue_at_x(self):
        # eigenvalues 0 and 2, both exact; a pivot within the underflow
        # threshold of zero counts as zero, so the probe below 0 keeps clear
        tri = _Tridiagonal(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex))
        assert [tri.count(x) for x in (-1e-300, 0.0, np.nextafter(2.0, 0.0),
                                       2.0)] == [0, 1, 1, 2]

    def test_kernel_includes_value_at_cutoff(self):
        tol = 1e-3
        policy = NumericPolicy(kernel_tol=tol)
        assert tol * tol == tol**2
        # Gram eigenvalues 1 and tol^2: the second sits exactly at the cutoff
        assert kernel_basis(np.diag([1.0, tol]), policy).dim_kernel == 1
        above = np.diag([1.0, np.nextafter(tol, 1.0)])
        assert kernel_basis(above, policy).dim_kernel == 0

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 101])
    def test_extreme_eigenvalues_to_a_few_ulps(self, n):
        # second-difference matrix, already real tridiagonal, so the
        # reduction is exact; eigenvalues 2 - 2 cos(k pi / (n + 1))
        t = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)).astype(complex)
        exact = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
        tri = _Tridiagonal(t)
        ulp = np.spacing(exact[-1])
        for k in (0, n - 1):
            lam = tri.eigenvalue(k)
            assert abs(lam - exact[k]) <= 2 * ulp
            # bisected to adjacent floats: lam is the first float whose
            # count includes the (k+1)-th eigenvalue
            assert tri.count(lam) > k >= tri.count(np.nextafter(lam, -np.inf))

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_extreme_eigenvalues_of_dense_input(self, rng, n):
        a = random_hermitian(rng, n)
        w = np.linalg.eigvalsh(a)
        tri = _Tridiagonal(a)
        tol = 4 * n * np.spacing(np.abs(w).max())
        assert abs(tri.eigenvalue(0) - w[0]) <= tol
        assert abs(tri.eigenvalue(n - 1) - w[-1]) <= tol

    @pytest.mark.parametrize("case", sorted(SPECTRUM_CASES))
    def test_multisection_matches_scalar_bisection(self, rng, case):
        a = np.asarray(SPECTRUM_CASES[case](rng), dtype=complex)
        tri = _Tridiagonal(a)
        w = tri.eigenvalues()
        scalar = np.array([tri.eigenvalue(k) for k in range(tri.n)])
        assert w.tobytes() == scalar.tobytes()

    @pytest.mark.parametrize("case", sorted(SPECTRUM_CASES))
    def test_against_dense_oracle(self, rng, case):
        a = np.asarray(SPECTRUM_CASES[case](rng), dtype=complex)
        n = a.shape[0]
        w = _Tridiagonal(a).eigenvalues()
        w_ref = np.linalg.eigvalsh(a)
        tol = 2 * n * np.finfo(np.float64).eps * np.abs(w_ref).max()
        assert np.all(np.diff(w) >= 0.0)
        assert np.abs(w - w_ref).max() <= tol

    @pytest.mark.parametrize("case", sorted(SPECTRUM_CASES))
    def test_power_of_two_scaling_is_exact(self, rng, case):
        a = np.asarray(SPECTRUM_CASES[case](rng), dtype=complex)
        w = _Tridiagonal(a).eigenvalues()
        for e in (-500, 500):
            scaled = np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e)
            assert np.array_equal(_Tridiagonal(scaled).eigenvalues(), np.ldexp(w, e))

    @pytest.mark.parametrize("case", sorted(SPECTRUM_CASES) + ["diag-1-2-0"])
    def test_count_is_the_number_of_eigenvalues_at_or_below(self, rng, case):
        # The sector analysis counts zero modes from the stored spectrum,
        # count_nonzero(eigenvalues() <= cut), in place of count(cut).
        a = (np.diag([1.0, 2.0, 0.0]) if case == "diag-1-2-0"
             else SPECTRUM_CASES[case](rng))
        tri = _Tridiagonal(np.asarray(a, dtype=complex))
        w = tri.eigenvalues()
        cut = NumericPolicy().kernel_tol * float(np.abs(w).max())
        shifts = [0.0, cut] + [x for v in w.tolist() for x in (
            v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf))]
        # An exact zero eigenvalue is returned as 0.0, but count() includes
        # it from just above -pivmin on (the pivot guard), so negative
        # shifts within pivmin of zero count it and are left out.
        pivmin = math.ldexp(tri._pivmin, tri._exp)
        for x in shifts:
            if -pivmin <= x < 0.0:
                continue
            assert tri.count(x) == np.count_nonzero(w <= x), x

    @pytest.mark.parametrize("a", [np.zeros((4, 4)), np.ones((2, 2))],
                             ids=["zeros-4", "ones-2"])
    def test_counts_recount_guarded_shifts(self, monkeypatch, a):
        # Shifts within pivmin of an exact eigenvalue make the pivot guard
        # fire; -1 and 3 clear every eigenvalue and need no guard.  One
        # unguarded pass counts all shifts, and _below recounts exactly
        # the flagged ones.
        tri = _Tridiagonal(a.astype(complex))
        pivmin = tri._pivmin
        xs = np.array([-1.0, -pivmin / 2, 0.0, pivmin / 2, 3.0])
        want = [tri._below(x) for x in xs]
        passes, recounts = [], []
        pivots, below = tri._pivots, tri._below
        monkeypatch.setattr(tri, "_pivots", lambda x: (
            passes.append(x.tolist()) or pivots(x)))
        monkeypatch.setattr(tri, "_below", lambda x: recounts.append(x) or below(x))
        assert tri._counts(xs).tolist() == want
        assert passes == [xs.tolist()]
        assert recounts == [-pivmin / 2, 0.0, pivmin / 2]

    @pytest.mark.parametrize("case,rounds", [
        ("c07-h_plus", 22), ("c07-h_minus", 22), ("random-2", 11)])
    def test_multisection_round_count(self, monkeypatch, rng, case, rounds):
        # ceil(64 / log2 K) with K = 8 at dim 101 and K = 64 at dim 2;
        # bisection takes up to 64 rounds.
        tri = _Tridiagonal(np.asarray(SPECTRUM_CASES[case](rng), dtype=complex))
        calls = []
        counts = _Tridiagonal._counts
        monkeypatch.setattr(_Tridiagonal, "_counts",
                            lambda self, xs: calls.append(len(xs))
                            or counts(self, xs))
        tri.eigenvalues()
        assert 0 < len(calls) <= rounds

    @pytest.mark.parametrize("c,phase", [
        (math.ldexp(1.0, -1050), 1.0), (math.ldexp(-1.0, -1050) * 1j, -1j),
        (complex(math.ldexp(3.0, -1040), math.ldexp(4.0, -1040)), 0.6 + 0.8j)])
    def test_subnormal_coupling_gets_a_unit_phase(self, c, phase):
        # numpy's complex division takes the reciprocal of the divisor,
        # which overflows for a subnormal |c|.
        tri = _Tridiagonal(np.array([[1.0, np.conj(c)], [c, 0.0]]))
        assert abs(tri._phases[1] - phase) <= 1e-15

    @pytest.mark.parametrize("case", sorted(TRIDIAGONAL_CASES))
    def test_tridiagonal_input_skips_the_reduction(self, monkeypatch, rng, case):
        # Entries 2**-600 outside the band send the input through the
        # reduction loop (one tail_sq per column), where they underflow
        # in tail_sq, so every column keeps its subdiagonal entry: the
        # skip must give the same d, e and phases bit for bit.
        t = np.asarray(TRIDIAGONAL_CASES[case](rng), dtype=complex)
        outside = np.tril(np.ones(t.shape), -2) + np.triu(np.ones(t.shape), 2)
        tiny = math.ldexp(float(np.abs(t).max()), -600) * outside
        tail_sqs = []
        vdot = np.vdot
        monkeypatch.setattr(np, "vdot", lambda x, y: tail_sqs.append(1) or vdot(x, y))
        skipped = _Tridiagonal(t)
        assert tail_sqs == []
        reduced = _Tridiagonal(t + tiny)
        assert len(tail_sqs) == len(t) - 1
        assert skipped._reflectors == reduced._reflectors == []
        for name in ("_d", "_e", "_phases"):
            assert (getattr(skipped, name).tobytes()
                    == getattr(reduced, name).tobytes()), name

    @pytest.mark.parametrize("case", ["c07-h_plus", "c07-h_minus", "c07-gram",
                                      "second-difference", "split-tridiagonal"])
    def test_real_tridiagonal_gives_the_same_bits_on_either_path(
            self, monkeypatch, rng, case):
        # Tridiagonal input skips the reduction, so d = Re diag and
        # e = |subdiagonal| are exact on either path: float64 input,
        # complex input with zero imaginary parts (both take the float64
        # path) and the complex path forced give the same bits.
        t = np.ascontiguousarray(np.asarray(TRIDIAGONAL_CASES[case](rng)).real)
        real, zero_imag = _Tridiagonal(t), _Tridiagonal(t.astype(complex))
        monkeypatch.setattr(spectral, "_work_array",
                            lambda a: np.asarray(a, dtype=np.complex128))
        forced = _Tridiagonal(t)
        assert real._phases.dtype == zero_imag._phases.dtype == np.float64
        assert forced._phases.dtype == np.complex128
        for tri in (zero_imag, forced):
            for name in ("_d", "_e"):
                assert (getattr(tri, name).tobytes()
                        == getattr(real, name).tobytes()), name
            assert tri.eigenvalues().tobytes() == real.eigenvalues().tobytes()

    def test_real_input_stays_real(self, rng):
        # Imaginary parts of -0.0 count as zero, a subnormal one does not.
        a = _real_symmetric(rng, 12)
        signed = a.astype(complex)
        signed.imag = -0.0
        tiny = a.astype(complex)
        tiny[0, 1] += 5e-324j
        tiny[1, 0] -= 5e-324j
        real = _Tridiagonal(a)
        assert real._reflectors and real._phases.dtype == np.float64
        assert all(v.dtype == np.float64 for _, v, _ in real._reflectors)
        assert _Tridiagonal(signed).eigenvalues().tobytes() == real.eigenvalues().tobytes()
        assert _Tridiagonal(tiny)._phases.dtype == np.complex128
        # The public results keep their complex dtype on the float64 path.
        assert kernel_basis(rank_deficient(rng, 9, 7, 4).real).basis.dtype == np.complex128
        assert inverse_on_complement(a).dtype == np.complex128
        assert eigh(a).eigenvectors.dtype == np.complex128

    @pytest.mark.parametrize("seeds", [(), (0.0, 1.0)])
    def test_empty_matrix_has_no_eigenvalues(self, seeds):
        tri = _Tridiagonal(np.zeros((0, 0), dtype=complex))
        assert tri.eigenvalues(seeds).shape == (0,)

    def test_exact_zero_eigenvalues_are_zero(self):
        for a in (np.zeros((3, 3)), np.diag([1.0, 0.0, 2.0, 0.0])):
            tri = _Tridiagonal(a.astype(complex))
            w = tri.eigenvalues()
            zeros = w[np.abs(w) < 0.5]
            assert zeros.tobytes() == np.zeros(len(zeros)).tobytes()
            scalar = np.array([tri.eigenvalue(k) for k in range(len(zeros))])
            assert scalar.tobytes() == zeros.tobytes()

    def test_pairing_report_lists_exact_zero_modes_as_zero(self):
        report = spectral_pairing_report(tensor_supercharge(np.diag([1.0, 2.0, 0.0])))
        for sector in (report.bosonic_eigenvalues, report.fermionic_eigenvalues):
            assert np.array(sector[:1]).tobytes() == np.zeros(1).tobytes()
        assert (report.unpaired_bosonic_zero_modes,
                report.unpaired_fermionic_zero_modes) == (1, 1)


@st.composite
def _random_tridiagonals(draw):
    n = draw(st.integers(1, 12))
    entries = st.floats(-4.0, 4.0) | st.just(0.0)
    d = draw(st.lists(entries, min_size=n, max_size=n))
    e = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@st.composite
def _grams_with_zero_modes(draw):
    """``B^T B`` for an integer ``B`` with at least one zero column, so
    the Gram matrix has exact zero eigenvalues."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    b = np.array(draw(st.lists(st.integers(-3, 3), min_size=rows * cols,
                               max_size=rows * cols)), dtype=float)
    b = b.reshape(rows, cols)
    b[:, draw(st.integers(0, cols - 1))] = 0.0
    return b.T @ b


def _with_scalar_spectrum(a):
    tri = _Tridiagonal(np.asarray(a, dtype=complex))
    return tri, np.array([tri.eigenvalue(k) for k in range(tri.n)])


@functools.cache
def _c07_case(name):
    return _with_scalar_spectrum(_c07_sector(name))


@st.composite
def _tridiagonals(draw):
    """A tridiagonal with its scalar-bisected spectrum."""
    case = draw(st.sampled_from(["random", "gram", "h_plus", "h_minus"]))
    if case in ("h_plus", "h_minus"):
        return _c07_case(case)
    return _with_scalar_spectrum(draw(
        _random_tridiagonals() if case == "random" else _grams_with_zero_modes()))


_SPECIAL_SEEDS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  math.inf, -math.inf, math.nan, 1e300, -1e300]


@settings(max_examples=200, deadline=None)
@given(case=_tridiagonals(), data=st.data())
def test_seeded_multisection_matches_scalar_bisection(case, data):
    # Seeds decide only where the brackets start: any mix of the true
    # spectrum, the spectrum a few ulps off, duplicates, signed zeros,
    # subnormals, values outside the bracket and non-finite values (which
    # are dropped) gives the scalar bisection's floats.
    tri, scalar = case
    seeds = _draw_seeds(data, scalar.tolist())
    assert tri.eigenvalues(seeds).tobytes() == scalar.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=_tridiagonals(), data=st.data())
def test_seeded_scalar_bisection_matches_unseeded(case, data):
    # eigenvalue(k, seeds) counts at the seeds inside the Gershgorin
    # bracket and bisects from the narrowest bracket they give: the same
    # float as from the Gershgorin bracket, whatever the seeds.
    tri, scalar = case
    k = data.draw(st.integers(0, tri.n - 1))
    seeds = _draw_seeds(data, scalar.tolist())
    assert np.float64(tri.eigenvalue(k, seeds)).tobytes() == scalar[k].tobytes()


def _draw_seeds(data, values):
    """Seeds for a spectrum ``values``: any mix of its floats, floats a
    few ulps off them, special and arbitrary floats, in any order, with
    duplicates."""
    exact = data.draw(st.lists(st.sampled_from(values), max_size=2 * len(values)))
    near = [_key_float(_float_key(v) + data.draw(st.integers(-4, 4)))
            for v in data.draw(st.lists(st.sampled_from(values), max_size=8))]
    other = data.draw(st.lists(st.floats() | st.sampled_from(_SPECIAL_SEEDS),
                               max_size=12))
    seeds = data.draw(st.permutations(exact + near + other))
    return seeds + seeds[:data.draw(st.integers(0, len(seeds)))]


@st.composite
def _count_cases(draw):
    """A tridiagonal (real or with complex couplings, dense or not, or
    empty) and Sturm shifts in the units of its ``T``: its eigenvalues,
    shifts up to a few ``pivmin`` and a few ulps around them, its
    diagonal entries (a zero pivot, inf or NaN after it), signed zeros
    and arbitrary floats, any number of them, none included."""
    kind = draw(st.sampled_from(["random", "gram", "empty"]))
    a = (np.zeros((0, 0)) if kind == "empty" else draw(
        _random_tridiagonals() if kind == "random" else _grams_with_zero_modes()))
    if draw(st.booleans()):
        angles = draw(st.lists(st.floats(0.0, 6.0), min_size=len(a), max_size=len(a)))
        phases = np.exp(1j * np.array(angles, dtype=float))
        a = phases[:, None] * a * phases.conj()
    tri = _Tridiagonal(a)
    ev = np.ldexp(tri.eigenvalues(), -tri._exp).tolist()
    pivmin = tri._pivmin
    near = [v + j * pivmin for v in ev for j in (-2, -1, -0.5, 0, 0.5, 1, 2)]
    near += [_key_float(_float_key(v) + j) for v in ev for j in (-2, -1, 1, 2)]
    pool = ev + near + tri._d.tolist() + [0.0, -0.0, pivmin, -pivmin]
    shifts = (st.sampled_from(pool) if pool else st.nothing()) | st.floats(-20.0, 20.0)
    return tri, draw(st.lists(shifts, max_size=24))


@settings(max_examples=300, deadline=None)
@given(case=_count_cases())
def test_counts_match_the_guarded_count(case):
    # One unguarded pass, then a recount by _below of the shifts where
    # the guard would have fired, must give _below at every shift.
    tri, xs = case
    assert tri._counts(np.array(xs, dtype=float)).tolist() == [tri._below(x) for x in xs]


def _textbook_inverse(a):
    """Gaussian elimination with partial pivoting on separate ``LU`` and
    ``X`` arrays, one row at a time, then back substitution: the
    reference :func:`spectral._pivoted_inverse` must match bit for bit."""
    lu = np.array(a)
    n = len(lu)
    x = np.eye(n, dtype=lu.dtype)
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        lu[[k, p]] = lu[[p, k]]
        x[[k, p]] = x[[p, k]]
        f = lu[k + 1:, k] / lu[k, k]
        for i in range(k + 1, n):
            lu[i, k:] -= f[i - k - 1] * lu[k, k:]
            x[i] -= f[i - k - 1] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


@pytest.mark.parametrize("n", [1, 2, 7, 40])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_pivoted_inverse_matches_textbook_elimination(rng, n, dtype):
    a = rng.normal(size=(n, n)).astype(dtype)
    if dtype is np.complex128:
        a += 1j * rng.normal(size=(n, n))
    a[0] *= 1e-3  # the first pivot comes from another row
    inv = spectral._pivoted_inverse(a)
    assert inv.dtype == dtype
    assert np.ascontiguousarray(inv).tobytes() == _textbook_inverse(a).tobytes()
    assert np.linalg.norm(inv @ a - np.eye(n)) < 1e-10


def _block_with_zero_middle(rng):
    """diag(A1, 0, A2): the tridiagonal of its Gram matrix is
    diag(T1, 0, T2), so pivots are replaced partway through."""
    a = np.zeros((14, 14), dtype=complex)
    a[:6, :6] = random_complex(rng, 6, 6)
    a[9:, 9:] = random_complex(rng, 5, 5)
    return a


def _c07_map(sign):
    return standard_representation(c07_system(sign)).a_operator


KERNEL_CASES = {
    "zero": lambda rng: np.zeros((4, 4)),
    "zero-tall": lambda rng: np.zeros((5, 2)),
    "identity": lambda rng: np.eye(6),
    "row": lambda rng: random_complex(rng, 1, 9),
    "column": lambda rng: random_complex(rng, 9, 1),
    "tall-rank-deficient": lambda rng: rank_deficient(rng, 40, 25, rank=17),
    "wide-rank-deficient": lambda rng: rank_deficient(rng, 25, 40, rank=17),
    "square-corank-one": lambda rng: rank_deficient(rng, 30, 30, rank=29),
    # For the unpivoted L D L^T solve: zero pivots partway through (a zero
    # middle block, rank one) and both C07 lattice maps.
    "block-zero-middle": _block_with_zero_middle,
    "ones-row": lambda rng: np.ones((1, 9)),
    "ones-column": lambda rng: np.ones((9, 1)),
    "c07-a-w-plus": lambda rng: _c07_map(1),
    "c07-a-w-minus": lambda rng: _c07_map(-1),
}


class TestKernelBasisTridiagonal:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_against_svd_oracle(self, rng, case):
        a = np.asarray(KERNEL_CASES[case](rng), dtype=complex)
        for m in (a, adjoint(a)):
            kb = kernel_basis(m)
            assert kb.dim_kernel == svd_kernel_dim(m)
            assert kb.basis.shape == (m.shape[1], kb.dim_kernel)
            gram = adjoint(kb.basis) @ kb.basis
            assert np.linalg.norm(gram - np.eye(kb.dim_kernel)) < 1e-13
            if kb.dim_kernel:
                residual = np.linalg.norm(m @ kb.basis, axis=0).max()
                assert residual**2 <= gram_cutoff(m)
            again = kernel_basis(m)
            assert again.basis.tobytes() == kb.basis.tobytes()

    @pytest.mark.parametrize("e", [-1000, -540, 540, 1000])
    def test_power_of_two_scaling_is_exact(self, rng, e):
        # The Gram matrix of the unscaled input would overflow or underflow.
        a = rank_deficient(rng, 20, 20, rank=15)
        kb = kernel_basis(a)
        scaled = kernel_basis(np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e))
        assert scaled.dim_kernel == kb.dim_kernel == 5
        assert scaled.basis.tobytes() == kb.basis.tobytes()


def _real_orthonormal_columns(z):
    """Two-pass classical Gram-Schmidt written for real columns only: the
    reference that :func:`spectral._orthonormal_columns` must match bit
    for bit on real input."""
    q = np.empty_like(z)
    for j in range(z.shape[1]):
        col = z[:, j] / np.abs(z[:, j]).max()
        for _ in range(2):
            col = col - q[:, :j] @ (q[:, :j].T @ col)
        q[:, j] = col / math.sqrt(float(col @ col))
    return q


def _c07_gram(sign):
    a = _c07_map(sign)
    return (adjoint(a) @ a).real


ORTHONORMAL_CASES = {
    "random-tall": lambda rng: rng.standard_normal((40, 6)),
    "random-square": lambda rng: rng.standard_normal((30, 30)),
    "one-column": lambda rng: rng.standard_normal((9, 1)),
    "no-columns": lambda rng: np.zeros((5, 0)),
    "rank-deficient": lambda rng: (rng.standard_normal((40, 4))
                                   @ rng.standard_normal((4, 12))),
    "scaled-up": lambda rng: np.ldexp(rng.standard_normal((20, 5)), 600),
    "c07-gram-w-plus": lambda rng: _c07_gram(1),
    "c07-gram-w-minus": lambda rng: _c07_gram(-1),
}


class TestOrthonormalColumns:
    @pytest.mark.parametrize("case", sorted(ORTHONORMAL_CASES))
    def test_real_input_matches_real_only_reference(self, rng, case):
        z = ORTHONORMAL_CASES[case](rng)
        q = spectral._orthonormal_columns(z)
        assert q.dtype == np.float64
        assert q.tobytes() == _real_orthonormal_columns(z).tobytes()

    @pytest.mark.parametrize("case", ["tall-rank-deficient", "square-corank-one",
                                      "block-zero-middle", "ones-row"])
    def test_inverse_iteration_inputs_match_real_only_reference(
            self, monkeypatch, rng, case):
        # The real blocks kernel_basis's inverse iteration passes.
        seen = []
        helper = spectral._orthonormal_columns
        monkeypatch.setattr(spectral, "_orthonormal_columns",
                            lambda z: seen.append(z) or helper(z))
        kernel_basis(np.asarray(KERNEL_CASES[case](rng), dtype=complex))
        assert seen
        for z in seen:
            assert helper(z).tobytes() == _real_orthonormal_columns(z).tobytes()
