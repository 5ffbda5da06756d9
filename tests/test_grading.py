import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susyqm import (
    GradingBasis,
    Involution,
    LatticeSpec,
    NumericPolicy,
    Parity,
    SIGMA1,
    SIGMA3,
    ValidationError,
    adjoint,
    block_extract,
    classify_operator,
    decompose_vector,
    free_particle_lattice,
    grading,
    grading_basis,
    io,
    pauli_lattice,
    projectors,
    random_graded_system,
    residual_norm,
    spectral_pairing_report,
    susy,
    validate_involution,
    witten_index_report,
)
from susyqm.cli import main

from conftest import block_system, c07_system, random_complex, random_hermitian


def parity_matrix(n):
    return np.eye(n)[::-1].astype(complex)


@pytest.fixture
def sigma3_involution():
    return validate_involution(SIGMA3)


class TestValidateInvolution:
    def test_sigma3_valid(self, sigma3_involution):
        gb = grading_basis(sigma3_involution)
        assert (gb.dim_bosonic, gb.dim_fermionic) == (1, 1)

    def test_identity_rejected_as_trivial(self):
        with pytest.raises(ValidationError, match="K != \\+1"):
            validate_involution(np.eye(2))

    def test_negative_identity_rejected(self):
        with pytest.raises(ValidationError, match="K != -1"):
            validate_involution(-np.eye(3))

    def test_lattice_parity_five_sites(self):
        inv = validate_involution(parity_matrix(5))
        gb = grading_basis(inv)
        assert (gb.dim_bosonic, gb.dim_fermionic) == (3, 2)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="self-adjoint"):
            validate_involution(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_non_square_root_rejected(self):
        with pytest.raises(ValidationError, match="K\\^2"):
            validate_involution(np.array([[1, 1], [1, 1]], dtype=complex) / 2)


class TestProjectors:
    def test_sigma3_projectors(self, sigma3_involution):
        p_plus, p_minus = projectors(sigma3_involution)
        assert np.allclose(p_plus, np.diag([1.0, 0.0]))
        assert np.allclose(p_minus, np.diag([0.0, 1.0]))

    def test_projector_algebra(self, rng):
        u = np.linalg.qr(random_complex(rng, 6, 6))[0]
        k = u @ np.diag([1, 1, 1, -1, -1, -1]).astype(complex) @ adjoint(u)
        inv = validate_involution(k)
        p_plus, p_minus = projectors(inv)
        assert residual_norm(p_plus + p_minus - np.eye(6)) < 1e-12
        assert residual_norm(p_plus @ p_minus) < 1e-12
        assert residual_norm(p_plus @ p_plus - p_plus) < 1e-12
        assert residual_norm(p_minus @ p_minus - p_minus) < 1e-12


class TestDecomposeVector:
    def test_sigma3_split(self, sigma3_involution):
        phi_b, phi_f = decompose_vector(sigma3_involution, np.array([1.0, 1.0]))
        assert np.allclose(phi_b, [1.0, 0.0])
        assert np.allclose(phi_f, [0.0, 1.0])

    def test_already_even_vector(self, sigma3_involution):
        phi_b, phi_f = decompose_vector(sigma3_involution, np.array([2.0, 0.0]))
        assert np.allclose(phi_b, [2.0, 0.0])
        assert residual_norm(phi_f.reshape(1, -1)) == 0.0

    def test_lattice_parity_point_mass(self):
        inv = validate_involution(parity_matrix(5))
        # j runs -2..2, so site j=1 is index 3 and j=-1 is index 1
        phi = np.zeros(5, dtype=complex)
        phi[3] = 1.0
        phi_b, phi_f = decompose_vector(inv, phi)
        expected_even = np.zeros(5)
        expected_even[[1, 3]] = 0.5
        expected_odd = np.zeros(5)
        expected_odd[1], expected_odd[3] = -0.5, 0.5
        assert np.allclose(phi_b, expected_even)
        assert np.allclose(phi_f, expected_odd)

    @settings(max_examples=40, deadline=None)
    @given(values=arrays(
        np.complex128, (6,),
        elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                    allow_infinity=False)))
    def test_sum_and_norm_split(self, values):
        inv = validate_involution(np.diag([1, 1, -1, -1, 1, -1]).astype(complex))
        phi_b, phi_f = decompose_vector(inv, values)
        scale = max(1.0, float(np.abs(values).max()))
        assert np.abs(phi_b + phi_f - values).max() <= 2e-16 * scale
        norms = (np.linalg.norm(values) ** 2
                 - np.linalg.norm(phi_b) ** 2 - np.linalg.norm(phi_f) ** 2)
        assert abs(norms) <= 1e-12 * max(1.0, np.linalg.norm(values) ** 2)
        k = inv.matrix
        assert np.linalg.norm(k @ phi_b - phi_b) <= 1e-10 * max(1.0, np.linalg.norm(phi_b))
        assert np.linalg.norm(k @ phi_f + phi_f) <= 1e-10 * max(1.0, np.linalg.norm(phi_f))


class TestClassifyOperator:
    def test_anticommuting_is_odd(self, sigma3_involution):
        assert classify_operator(sigma3_involution, SIGMA1) is Parity.ODD

    def test_commuting_is_even(self, sigma3_involution):
        assert classify_operator(sigma3_involution, SIGMA3) is Parity.EVEN

    def test_sum_is_mixed(self, sigma3_involution):
        assert classify_operator(sigma3_involution, SIGMA1 + SIGMA3) is Parity.MIXED

    def test_zero_is_even_by_convention(self, sigma3_involution):
        assert classify_operator(sigma3_involution, np.zeros((2, 2))) is Parity.EVEN


class TestGradingBasis:
    def test_sigma3_gives_identity(self, sigma3_involution):
        gb = grading_basis(sigma3_involution)
        assert np.allclose(gb.unitary, np.eye(2))

    def test_sigma1_columns(self):
        gb = grading_basis(validate_involution(SIGMA1))
        assert (gb.dim_bosonic, gb.dim_fermionic) == (1, 1)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert abs(plus.conj() @ gb.unitary[:, 0]) == pytest.approx(1.0)
        assert abs(minus.conj() @ gb.unitary[:, 1]) == pytest.approx(1.0)

    def test_lattice_parity_101_sites(self):
        gb = grading_basis(validate_involution(parity_matrix(101)))
        assert (gb.dim_bosonic, gb.dim_fermionic) == (51, 50)

    def test_block_form(self, rng):
        u = np.linalg.qr(random_complex(rng, 7, 7))[0]
        k = u @ np.diag([1, 1, 1, 1, -1, -1, -1]).astype(complex) @ adjoint(u)
        inv = validate_involution(k)
        gb = grading_basis(inv)
        conj = adjoint(gb.unitary) @ k @ gb.unitary
        expected = np.diag([1, 1, 1, 1, -1, -1, -1])
        assert residual_norm(conj - expected) < 7 * 1e-10


class TestBlockExtract:
    def test_odd_pauli_blocks(self, sigma3_involution):
        gb = grading_basis(sigma3_involution)
        a, b, c, d = block_extract(gb, SIGMA1)
        assert abs(a[0, 0]) < 1e-14 and abs(d[0, 0]) < 1e-14
        assert abs(b[0, 0] - 1.0) < 1e-14 and abs(c[0, 0] - 1.0) < 1e-14

    def test_even_diagonal_blocks(self, sigma3_involution):
        gb = grading_basis(sigma3_involution)
        h = np.diag([2.0, 5.0]).astype(complex)
        a, b, c, d = block_extract(gb, h)
        assert residual_norm(b) < 1e-14 and residual_norm(c) < 1e-14
        assert a[0, 0] == pytest.approx(2.0) and d[0, 0] == pytest.approx(5.0)

    def test_random_odd_operator_blocks_vanish(self, rng):
        u = np.linalg.qr(random_complex(rng, 8, 8))[0]
        k = u @ np.diag([1, 1, 1, -1, -1, -1, -1, -1]).astype(complex) @ adjoint(u)
        inv = validate_involution(k)
        p_plus, p_minus = projectors(inv)
        x = random_complex(rng, 8, 8)
        odd = p_plus @ x @ p_minus + p_minus @ adjoint(x) @ p_plus
        gb = grading_basis(inv)
        a, b, c, d = block_extract(gb, odd)
        scale = residual_norm(odd)
        assert residual_norm(a) <= 1e-10 * scale
        assert residual_norm(d) <= 1e-10 * scale

    def test_odd_operator_swaps_sectors(self, rng):
        # K(Qv) = -Qv for every +1 eigenvector v when Q anticommutes with K
        k = parity_matrix(9)
        inv = validate_involution(k)
        p_plus, p_minus = projectors(inv)
        x = random_hermitian(rng, 9)
        q = p_plus @ x @ p_minus + p_minus @ x @ p_plus
        gb = grading_basis(inv)
        for col in range(gb.dim_bosonic):
            v = gb.unitary[:, col]
            image = q @ v
            assert np.linalg.norm(k @ image + image) <= 1e-10 * max(
                1.0, np.linalg.norm(image))


def signed_permutation(rng, n, phases):
    """Random signed permutation of dim n: fixed points with random signs
    and 2-cycles with K_ij = z, K_ji = conj(z) for z drawn from phases."""
    k = np.zeros((n, n), dtype=complex)
    order = rng.permutation(n)
    i = 0
    while i < n:
        if i + 1 < n and rng.random() < 0.6:
            a, b = order[i], order[i + 1]
            z = phases[rng.integers(len(phases))]
            k[a, b], k[b, a] = z, np.conj(z)
            i += 2
        else:
            k[order[i], order[i]] = rng.choice([1.0, -1.0])
            i += 1
    return k


def eigenvalue_signs(gb):
    return np.concatenate([np.ones(gb.dim_bosonic), -np.ones(gb.dim_fermionic)])


def unitarity(u):
    return float(np.abs(adjoint(u) @ u - np.eye(u.shape[0])).max())


class TestGradingBasisSignedPermutation:
    @pytest.mark.parametrize("n", [2, 3, 7, 30, 101])
    def test_exact_eigenbasis(self, rng, n):
        for _ in range(5):
            k = signed_permutation(rng, n, [1.0, -1.0, 1j, -1j])
            gb = grading_basis(Involution(k))
            u = gb.unitary
            assert np.array_equal(k @ u, u * eigenvalue_signs(gb))
            assert gb.dim_bosonic == round((n + np.trace(k).real) / 2)
            assert unitarity(u) <= 4 * np.finfo(float).eps

    def test_general_phases_take_the_closed_form(self, rng):
        angles = rng.uniform(0.0, 2.0 * np.pi, size=200)
        phases = [z for z in np.exp(1j * angles) if abs(z) == 1.0]
        for n in (4, 9, 40):
            k = signed_permutation(rng, n, phases)
            gb = grading_basis(Involution(k))
            u = gb.unitary
            # Each column is e_i or a combination of the two indices of a
            # 2-cycle, never a dense vector.
            assert (np.count_nonzero(u, axis=0) <= 2).all()
            assert np.abs(k @ u - u * eigenvalue_signs(gb)).max() <= 1e-15
            assert unitarity(u) <= 4 * np.finfo(float).eps

    def test_sector_order_follows_smallest_index(self):
        k = np.zeros((4, 4), dtype=complex)
        k[0, 2], k[2, 0] = -1j, 1j
        k[1, 1], k[3, 3] = -1.0, 1.0
        gb = grading_basis(validate_involution(k))
        h = np.sqrt(0.5)
        expected = np.array([
            [h, 0, h, 0],
            [0, 0, 0, 1],
            [1j * h, 0, -1j * h, 0],
            [0, 1, 0, 0],
        ])
        assert (gb.dim_bosonic, gb.dim_fermionic) == (2, 2)
        assert np.array_equal(gb.unitary, expected)

    def test_diagonal_gives_identity_columns_bit_for_bit(self, rng):
        for n in (2, 5, 202):
            signs = rng.choice([1.0, -1.0], size=n)
            signs[:2] = (1.0, -1.0)
            gb = grading_basis(validate_involution(np.diag(signs).astype(complex)))
            order = np.concatenate([np.flatnonzero(signs > 0),
                                    np.flatnonzero(signs < 0)])
            # Conjugated identity columns, negative imaginary zeros
            # included, as the Jacobi eigenvectors this basis replaced.
            expected = np.eye(n, dtype=complex)[:, order].conj()
            assert gb.unitary.tobytes() == expected.tobytes()
            assert gb.dim_bosonic == int((signs > 0).sum())


class TestGradingBasisDense:
    @pytest.mark.parametrize("n", [2, 3, 8, 31, 64, 112])
    def test_against_numpy_eigh(self, rng, n):
        for dim_b in sorted({1, n // 2, n - 1} - {0}):
            v = np.linalg.qr(random_complex(rng, n, n))[0]
            signs = np.concatenate([np.ones(dim_b), -np.ones(n - dim_b)])
            k = (v * signs) @ adjoint(v)
            gb = grading_basis(validate_involution(k))
            w, vecs = np.linalg.eigh(k)
            assert gb.dim_bosonic == int((w > 0).sum()) == dim_b
            assert gb.dim_fermionic == n - dim_b
            p_plus = vecs[:, w > 0] @ adjoint(vecs[:, w > 0])
            u_b = gb.unitary[:, :dim_b]
            assert np.linalg.norm(u_b @ adjoint(u_b) - p_plus) <= 1e-13 * n
            assert unitarity(gb.unitary) <= 1e-14 * n

    @pytest.mark.parametrize("n", [2, 16, 64])
    def test_involution_at_the_validator_edge_passes(self, rng, n):
        # One eigenvalue off by delta: ||K^2 - 1||_F = 2 delta + delta^2,
        # just inside validate_involution's n * algebra_tol.
        tol = n * 1e-10
        delta = 0.999 * (np.sqrt(1.0 + tol) - 1.0)
        v = np.linalg.qr(random_complex(rng, n, n))[0]
        signs = np.concatenate([np.ones(n - n // 2), -np.ones(n // 2)])
        signs[0] += delta
        k = (v * signs) @ adjoint(v)
        inv = validate_involution(k)
        gb = grading_basis(inv)
        assert gb.dim_bosonic == n - n // 2
        residual = np.linalg.norm(k @ gb.unitary - gb.unitary * eigenvalue_signs(gb),
                                  axis=0).max()
        assert residual <= 0.6 * tol

    # diag(1, 0.5, -1) gives full-rank projectors with the wrong
    # eigenvalue; in diag(3, -1) and diag(5, -1) the trace promises more
    # +1 columns than (1 + K)/2 has (beyond n, for the last).
    @pytest.mark.parametrize("diagonal", [[1.0, 0.5, -1.0], [3.0, -1.0],
                                          [5.0, -1.0]])
    def test_hand_built_non_involution_rejected(self, diagonal):
        with pytest.raises(ValidationError, match="grading_basis"):
            grading_basis(Involution(np.diag(diagonal).astype(complex)))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError, match="grading_basis requires a Hermitian"):
            grading_basis(Involution(np.array([[0, 1], [0, 0]], dtype=complex)))


def _rotated_involution(rng, n, dim_b, kind):
    """K = V diag(+-1) V^dag for a complex unitary or real orthogonal V,
    or a sparse K whose 2-cycles carry general phases of modulus
    ``1 + 2^-50``, a few ulps off one, so no K is a signed permutation."""
    signs = np.concatenate([np.ones(dim_b), -np.ones(n - dim_b)])
    if kind == "sparse":
        angles = rng.uniform(0.0, 2.0 * np.pi, size=20)
        phases = list(np.exp(1j * angles) * (1.0 + 2.0**-50))
        k = signed_permutation(rng, n, phases)
        if grading._signed_permutation(k) is not None:
            # Every index a fixed point: make 0 and 1 a 2-cycle.
            k[0, 0] = k[1, 1] = 0.0
            k[0, 1], k[1, 0] = phases[0], np.conj(phases[0])
        return k
    if kind == "complex":
        v = np.linalg.qr(random_complex(rng, n, n))[0]
    else:
        v = np.linalg.qr(rng.normal(size=(n, n)))[0].astype(complex)
    return (v * signs) @ adjoint(v)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 48), data=st.data(),
       kind=st.sampled_from(["complex", "real", "sparse"]),
       seed=st.integers(0, 2**32 - 1))
def test_dense_grading_basis_property(n, data, kind, seed):
    if kind == "sparse":
        n = max(n, 2)
    dim_b = data.draw(st.integers(0, n), label="dim_b")
    k = _rotated_involution(np.random.default_rng(seed), n, dim_b, kind)
    # At n = 1, V diag(+-1) V^dag may come out exactly +-1.
    assert n == 1 or grading._signed_permutation(k) is None
    gb = grading_basis(Involution(k))
    u = gb.unitary
    assert gb.dim_bosonic == round((n + np.trace(k).real) / 2)
    if kind != "sparse":
        assert gb.dim_bosonic == dim_b
    assert unitarity(u) <= 10 * n * np.finfo(float).eps
    worst = np.linalg.norm(k @ u - u * eigenvalue_signs(gb), axis=0).max()
    assert worst <= n * NumericPolicy().algebra_tol


@pytest.mark.usefixtures("no_jacobi")
def test_grading_path_runs_no_jacobi(tmp_path, capsys):
    system = random_graded_system(9, 6, seed=3, conjugate=True)
    path = tmp_path / "system.json"
    path.write_text(io.dump_json(io.system_to_obj(system)))
    gb = grading_basis(system.involution)
    assert (gb.dim_bosonic, gb.dim_fermionic) == (9, 6)
    assert spectral_pairing_report(system).witten_index == 3
    assert witten_index_report(system).index == 3
    assert main(["index", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["witten_index"] == 3
    assert main(["pair", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["witten_index"] == 3
    assert main(["repr", str(path), "--output", str(tmp_path / "blocks")]) == 0


# ---------------------------------------------------------------------------
# Signed-permutation gradings applied by gathers: every check and block must
# be those of the dense products.


def _dense_products(k):
    return (lambda x: k @ x), (lambda x: x @ k)


def _bits(checks):
    return [(c.name, c.residual.hex(), c.tolerance.hex(), c.passed) for c in checks]


def _validation_bits(h, k, charges, complex_charges=False):
    """Check names, residual and tolerance bits and verdicts of a graded
    validation, failed or not."""
    try:
        system = susy._validate(h, charges, k, complex_charges)
    except ValidationError as exc:
        return "invalid", _bits(exc.failures)
    return "valid", _bits(system.checks)


def _dense(monkeypatch, func, *args):
    """``func(*args)`` with every product by K and by the grading basis
    taken as a dense matrix product."""
    with monkeypatch.context() as m:
        m.setattr(grading, "_grading_products", _dense_products)
        m.setattr(susy, "_grading_products", _dense_products)
        m.setattr(grading, "_permutation_rows", lambda u: None)
        return func(*args)


def _assert_dense_identity(monkeypatch, h, k, charges, complex_charges=False):
    got = _validation_bits(h, k, charges, complex_charges)
    want = _dense(monkeypatch, _validation_bits, h, k, charges, complex_charges)
    assert got == want
    assert _bits(grading.involution_checks(k)) == _bits(
        _dense(monkeypatch, grading.involution_checks, k))
    return got


def _assert_blocks_identity(basis, *operators):
    u = basis.unitary
    nb = basis.dim_bosonic
    for x in operators:
        dense = adjoint(u) @ x @ u
        want = (dense[:nb, :nb], dense[:nb, nb:], dense[nb:, :nb], dense[nb:, nb:])
        for got_block, want_block in zip(block_extract(basis, x), want):
            # Equal values; only the sign of a zero could differ.
            assert np.array_equal(got_block, want_block)


def _is_gathered(k):
    perm = grading._signed_permutation(np.asarray(k))
    return perm is not None and ((perm[1].real == 0) | (perm[1].imag == 0)).all()


def _graded_by(rng, k):
    """A random single-complex-charge system graded by K: the block
    system rotated by K's grading basis."""
    gb = grading_basis(Involution(k))
    h, _, q = block_system(random_complex(rng, gb.dim_fermionic, gb.dim_bosonic))
    u = gb.unitary
    return u @ h @ adjoint(u), u @ q @ adjoint(u)


class TestStructuredGradingIdentity:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_superpotential_lattice(self, monkeypatch, sign):
        system = c07_system(sign)
        h, k, q = system.hamiltonian, system.involution.matrix, system.charges[0]
        assert _is_gathered(k)
        verdict, _ = _assert_dense_identity(monkeypatch, h, k, [q])
        assert verdict == "valid"
        basis = grading_basis(system.involution)
        assert grading._permutation_rows(basis.unitary) is not None
        _assert_blocks_identity(basis, h, q)

    def test_free_particle_parity(self, monkeypatch):
        system = free_particle_lattice(LatticeSpec(31, 0.3))
        h, k, q = system.hamiltonian, system.involution.matrix, system.charges[0]
        assert _is_gathered(k)
        _assert_dense_identity(monkeypatch, h, k, [q])
        # 2-cycle bases keep the dense product.
        basis = grading_basis(system.involution)
        assert grading._permutation_rows(basis.unitary) is None
        _assert_blocks_identity(basis, h, q)

    def test_small_pauli_lattice(self, monkeypatch):
        spec = LatticeSpec(5, 0.5)
        x = spec.coordinates()
        xx, yy = np.meshgrid(x, x, indexing="ij")
        system = pauli_lattice(spec, -0.35 * yy, 0.35 * xx)
        h, k, q = system.hamiltonian, system.involution.matrix, system.charges[0]
        assert _is_gathered(k)
        _assert_dense_identity(monkeypatch, h, k, [q])
        _assert_blocks_identity(grading_basis(system.involution), h, q)

    def test_signed_permutations_with_imaginary_phases(self, monkeypatch, rng):
        for n in range(2, 102):
            k = signed_permutation(rng, n, [1.0, -1.0, 1j, -1j])
            if abs(np.trace(k).real) == n:
                # K = +-1 grades nothing; flip one sign so it is valid.
                k[0, 0] = -k[0, 0]
            assert _is_gathered(k)
            h, q = _graded_by(rng, k)
            verdict, _ = _assert_dense_identity(monkeypatch, h, k, [q], True)
            assert verdict == "valid"
            _assert_blocks_identity(grading_basis(Involution(k)), h, q)

    def test_diagonal_with_interleaved_signs(self, monkeypatch, rng):
        # The basis is then a permutation other than the identity.
        for n in (2, 3, 8, 31, 101):
            signs = rng.choice([1.0, -1.0], size=n)
            signs[-2:] = (-1.0, 1.0)
            k = np.diag(signs).astype(complex)
            h, q = _graded_by(rng, k)
            _assert_dense_identity(monkeypatch, h, k, [q], True)
            basis = grading_basis(Involution(k))
            assert grading._permutation_rows(basis.unitary) is not None
            _assert_blocks_identity(basis, h, q)

    @pytest.mark.parametrize("dims", [(1, 1), (3, 5), (12, 7), (32, 32)])
    def test_plain_random_system(self, monkeypatch, dims):
        system = random_graded_system(*dims, seed=11)
        h, k, q = system.hamiltonian, system.involution.matrix, system.charges[0]
        assert _is_gathered(k)
        _assert_dense_identity(monkeypatch, h, k, [q], True)
        basis = grading_basis(system.involution)
        assert grading._permutation_rows(basis.unitary) is not None
        _assert_blocks_identity(basis, h, q)


class TestStructuredGradingFallback:
    """K that are not signed permutations with exact unit phases take the
    dense products, and the checks stay those of the dense products."""

    def _block_system(self, rng, n=6):
        return _graded_by(rng, np.diag([1.0, -1.0] * (n // 2)).astype(complex))

    def test_three_cycle(self, monkeypatch, rng):
        h, q = self._block_system(rng)
        k = np.zeros((6, 6), dtype=complex)
        k[[0, 1, 2], [1, 2, 0]] = 1.0
        k[[3, 4, 5], [3, 4, 5]] = (1.0, -1.0, -1.0)
        assert grading._signed_permutation(k) is None
        verdict, failures = _assert_dense_identity(monkeypatch, h, k, [q], True)
        assert verdict == "invalid"
        assert "K^2 = 1" in [name for name, *_ in failures]

    def test_phase_modulus_one_ulp_above_one(self, monkeypatch, rng):
        h, q = self._block_system(rng)
        k = np.diag([1.0, -1.0] * 3).astype(complex)
        k[2, 2] = 1.0 + 2.0**-52
        assert grading._signed_permutation(k) is None
        verdict, _ = _assert_dense_identity(monkeypatch, h, k, [q], True)
        assert verdict == "valid"

    def test_not_conjugate_symmetric(self, monkeypatch, rng):
        h, q = self._block_system(rng)
        k = np.diag([1.0, -1.0] * 3).astype(complex)
        k[0, 0] = k[1, 1] = 0.0
        k[0, 1] = k[1, 0] = 1j
        assert grading._signed_permutation(k) is None
        verdict, failures = _assert_dense_identity(monkeypatch, h, k, [q], True)
        assert verdict == "invalid"
        assert "K self-adjoint" in [name for name, *_ in failures]

    def test_general_phases_take_dense_products(self, monkeypatch, rng):
        z = complex(0.6, 0.8)
        assert abs(z) == 1.0
        k = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        k[0, 0] = k[1, 1] = 0.0
        k[0, 1], k[1, 0] = z, z.conjugate()
        assert grading._signed_permutation(k) is not None
        assert not _is_gathered(k)
        h, q = _graded_by(rng, k)
        verdict, _ = _assert_dense_identity(monkeypatch, h, k, [q], True)
        assert verdict == "valid"

    def test_negative_zeros_count_as_zeros(self, monkeypatch, rng):
        # -1 (x) 1 and the sigma_3 (x) 1 of every superpotential lattice
        # hold -0.0 off the diagonal: still a signed permutation, and the
        # gathers still give the dense products' checks.
        k = np.kron(np.diag([-1.0, 1.0]).astype(complex), np.eye(3))
        assert np.signbit(k.real).sum() > 3
        assert _is_gathered(k)
        h, q = _graded_by(rng, k)
        verdict, _ = _assert_dense_identity(monkeypatch, h, k, [q], True)
        assert verdict == "valid"
        _assert_blocks_identity(grading_basis(Involution(k)), h, q)

    def test_two_nonzeros_in_a_row(self, monkeypatch, rng):
        # A reflection: a valid involution, not a signed permutation.
        k = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        k[:2, :2] = [[0.6, 0.8], [0.8, -0.6]]
        assert grading._signed_permutation(k) is None
        h, q = _graded_by(rng, k)
        verdict, _ = _assert_dense_identity(monkeypatch, h, k, [q], True)
        assert verdict == "valid"

    def test_conjugated_random_system(self, monkeypatch):
        system = random_graded_system(9, 6, seed=3, conjugate=True)
        h, k, q = system.hamiltonian, system.involution.matrix, system.charges[0]
        assert grading._signed_permutation(k) is None
        _assert_dense_identity(monkeypatch, h, k, [q], True)
        basis = grading_basis(system.involution)
        assert grading._permutation_rows(basis.unitary) is None
        _assert_blocks_identity(basis, h, q)

    def test_writable_matrices_changed_in_place(self, monkeypatch, rng):
        h, q = self._block_system(rng)
        k = np.diag([1.0, -1.0] * 3).astype(complex)
        inv = Involution(k)
        basis = GradingBasis(np.eye(6, dtype=complex), 3, 3)
        assert _validation_bits(h, inv, [q], True)[0] == "valid"
        block_extract(basis, h)
        # Now a reflection, and a dense unitary: the next calls must read
        # the new contents, never the structure found before.
        k[:2, :2] = [[0.6, 0.8], [0.8, -0.6]]
        basis.unitary[:] = np.linalg.qr(random_complex(rng, 6, 6))[0]
        got = _validation_bits(h, inv, [q], True)
        assert got == _dense(monkeypatch, _validation_bits, h, k, [q], True)
        assert got[0] == "invalid"
        _assert_blocks_identity(basis, h, q)
