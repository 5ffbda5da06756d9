import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from susyqm import (
    Involution,
    Parity,
    SIGMA1,
    SIGMA3,
    ValidationError,
    adjoint,
    block_extract,
    classify_operator,
    decompose_vector,
    grading_basis,
    io,
    projectors,
    random_graded_system,
    residual_norm,
    spectral,
    spectral_pairing_report,
    validate_involution,
    witten_index_report,
)
from susyqm.cli import main

from conftest import random_complex, random_hermitian


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


def test_grading_path_runs_no_jacobi(monkeypatch, tmp_path, capsys):
    system = random_graded_system(9, 6, seed=3, conjugate=True)
    path = tmp_path / "system.json"
    path.write_text(io.dump_json(io.system_to_obj(system)))

    def no_jacobi(*args, **kwargs):
        raise AssertionError("Jacobi sweeps on the grading path")

    monkeypatch.setattr(spectral._kernel, "jacobi_sweeps", no_jacobi)
    gb = grading_basis(system.involution)
    assert (gb.dim_bosonic, gb.dim_fermionic) == (9, 6)
    assert spectral_pairing_report(system).witten_index == 3
    assert witten_index_report(system).index == 3
    assert main(["index", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["witten_index"] == 3
    assert main(["pair", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["witten_index"] == 3
    assert main(["repr", str(path), "--output", str(tmp_path / "blocks")]) == 0
