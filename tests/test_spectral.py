import numpy as np
import pytest

from susyqm import (
    Boundary,
    ConvergenceError,
    LatticeSpec,
    NumericPolicy,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    ValidationError,
    adjoint,
    eigh,
    eigvalsh,
    inverse_on_complement,
    jacobi_backend,
    kernel_basis,
    witten_model_lattice,
)
from susyqm import _jacobi_py
from susyqm.spectral import _Tridiagonal

from conftest import random_complex, random_hermitian, rank_deficient

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


class TestBackends:
    def test_fallback_matches_active_backend(self, rng):
        a = random_hermitian(rng, 24)
        work = np.ascontiguousarray(0.5 * (a + adjoint(a)))
        vt = np.eye(24, dtype=complex)
        tol = 1e-12 * np.linalg.norm(work)
        py_work = work.copy()
        py_vt = vt.copy()
        sweeps_py, off_py = _jacobi_py.jacobi_sweeps(py_work, py_vt, tol, 100, True)
        assert off_py <= tol
        try:
            from susyqm import _jacobi
        except ImportError:
            pytest.skip("compiled kernel not built")
        sweeps_c, off_c = _jacobi.jacobi_sweeps(work, vt, tol, 100, True)
        assert sweeps_c == sweeps_py
        assert np.allclose(np.diagonal(work).real, np.diagonal(py_work).real,
                           atol=1e-12 * np.linalg.norm(a))
        assert np.allclose(vt, py_vt, atol=1e-12)

    def test_backend_reported(self):
        assert jacobi_backend() in ("compiled", "python")


class TestEighWittenLattice:
    def test_lowest_cluster_matches_oracle(self):
        spec = LatticeSpec(101, 0.15, Boundary.DIRICHLET)
        system = witten_model_lattice(spec, spec.coordinates())
        w = eigvalsh(system.hamiltonian)
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


def _svd_kernel_dim(a, policy=NumericPolicy()):
    """dim ker A from LAPACK singular values under kernel_basis's cutoff."""
    sigma = np.linalg.svd(a, compute_uv=False)
    return a.shape[1] - int(np.count_nonzero(sigma**2 > _gram_cutoff(a, policy)))


def _gram_cutoff(a, policy=NumericPolicy()):
    floor = 2.0 * max(a.shape) * np.finfo(np.float64).eps
    return max(policy.kernel_tol**2, floor) * np.linalg.norm(a, 2)**2


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
        assert tri.radius() == max(abs(tri.eigenvalue(0)), abs(tri.eigenvalue(n - 1)))


KERNEL_CASES = {
    "zero": lambda rng: np.zeros((4, 4)),
    "zero-tall": lambda rng: np.zeros((5, 2)),
    "identity": lambda rng: np.eye(6),
    "row": lambda rng: random_complex(rng, 1, 9),
    "column": lambda rng: random_complex(rng, 9, 1),
    "tall-rank-deficient": lambda rng: rank_deficient(rng, 40, 25, rank=17),
    "wide-rank-deficient": lambda rng: rank_deficient(rng, 25, 40, rank=17),
    "square-corank-one": lambda rng: rank_deficient(rng, 30, 30, rank=29),
}


class TestKernelBasisTridiagonal:
    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_against_svd_oracle(self, rng, case):
        a = np.asarray(KERNEL_CASES[case](rng), dtype=complex)
        for m in (a, adjoint(a)):
            kb = kernel_basis(m)
            assert kb.dim_kernel == _svd_kernel_dim(m)
            assert kb.basis.shape == (m.shape[1], kb.dim_kernel)
            gram = adjoint(kb.basis) @ kb.basis
            assert np.linalg.norm(gram - np.eye(kb.dim_kernel)) < 1e-13
            if kb.dim_kernel:
                residual = np.linalg.norm(m @ kb.basis, axis=0).max()
                assert residual**2 <= _gram_cutoff(m)
            again = kernel_basis(m)
            assert again.basis.tobytes() == kb.basis.tobytes()
