"""One zero cut for every count: kernels, sector zero modes, pairing and
kernel equality.

Each system here holds one singular value of its map A near the cut,
at ``10^-e`` of the largest, or is a lattice whose lowest partner pair
sits a few times above it.  Whatever side of the cut that value falls
on, the Gram ranks of A and ``A^dag`` and the sector zero-mode counts
must agree with each other and with ``Tr K``, and every mode that is not
a zero mode must pair.
"""

import numpy as np
import pytest

from susyqm import (
    DEFAULT_POLICY,
    Boundary,
    LatticeSpec,
    NumericPolicy,
    adjoint,
    kernel_equality_check,
    second_supercharge,
    spectral_pairing_report,
    tensor_supercharge,
    validate_graded_complex_system,
    witten_index_report,
    witten_model_lattice,
)

from conftest import block_system, haar_unitary

_EXPONENTS = np.arange(3.0, 12.25, 0.5)


def _near_cut_map(rng, rows, cols, e):
    """A Haar-random (rows x cols) map with singular values evenly spaced
    from 1 to 0.3, the smallest replaced by ``10^-e``."""
    u, v = haar_unitary(rng, rows), haar_unitary(rng, cols)
    k = min(rows, cols)
    s = np.linspace(1.0, 0.3, k)
    s[-1] = 10.0**-e
    return (u[:, :k] * s) @ adjoint(v[:, :k])


def _tensor_system(seed, e):
    return tensor_supercharge(_near_cut_map(np.random.default_rng(seed), 8, 8, e))


def _block_system(shape, rotated, seed, e):
    """The block system of a near-cut map of shape ``(dim_f, dim_b)``,
    conjugated by a Haar unitary when ``rotated``."""
    rng = np.random.default_rng(seed)
    h, k, q = block_system(_near_cut_map(rng, *shape, e))
    if rotated:
        w = haar_unitary(rng, sum(shape))
        h, k, q = (w @ m @ adjoint(w) for m in (h, k, q))
    return validate_graded_complex_system(h, k, [q])


_FAMILIES = [pytest.param(_tensor_system, id="tensor-8x8")] + [
    pytest.param(lambda seed, e, shape=shape, rotated=rotated:
                 _block_system(shape, rotated, seed, e),
                 id=f"block-{shape[0]}x{shape[1]}" + ("-rotated" if rotated else ""))
    for shape in ((8, 8), (8, 6), (6, 8)) for rotated in (False, True)]


def _assert_consistent(system, policy=DEFAULT_POLICY):
    """The four zero counts agree pairwise, the index is ``Tr K`` and
    every mode that is not a zero mode pairs."""
    index = witten_index_report(system, policy)
    pair = spectral_pairing_report(system, policy)
    dim_b, dim_f = len(pair.bosonic_eigenvalues), len(pair.fermionic_eigenvalues)
    trace_k = round(float(np.trace(system.involution.matrix).real))
    assert index.trace_k == dim_b - dim_f == trace_k == index.index
    assert (index.dim_kernel_a, index.dim_kernel_a_dagger) == (
        index.bosonic_zero_modes, index.fermionic_zero_modes)
    assert len(pair.pairs) == dim_b - index.bosonic_zero_modes
    assert len(pair.pairs) == dim_f - index.fermionic_zero_modes
    return index, pair


@pytest.mark.parametrize("build", _FAMILIES)
@pytest.mark.parametrize("seed", [8, 1, 2])
def test_near_cut_singular_value_gives_consistent_counts(build, seed):
    for e in _EXPONENTS:
        _assert_consistent(build(seed, e))


@pytest.mark.parametrize("sites,dx,w", [
    (101, 0.15, lambda x: x**3),
    (101, 0.06, lambda x: x + x**3 / 10),
], ids=["x^3", "x+x^3/10"])
def test_lattice_partner_pair_above_the_cut_pairs(sites, dx, w):
    # The lowest partner pair sits a few times above the cut (for x^3,
    # 2.07e-13 against 4.5e-14 of the spectral radius), in both sectors,
    # so no sector holds a zero mode and every mode pairs.
    spec = LatticeSpec(sites, dx, Boundary.DIRICHLET)
    index, pair = _assert_consistent(witten_model_lattice(spec, w(spec.coordinates())))
    assert (index.dim_kernel_a, index.dim_kernel_a_dagger,
            index.bosonic_zero_modes, index.fermionic_zero_modes) == (0, 0, 0, 0)
    assert len(pair.pairs) == sites


@pytest.mark.parametrize("shape,mode,bump,policy", [
    ((2, 3), 2, 1e-11, DEFAULT_POLICY),
    ((2, 3), 2, -1e-11, DEFAULT_POLICY),
    ((3, 2), 4, 1e-11, DEFAULT_POLICY),
    ((2, 3), 2, 1e-4, NumericPolicy(algebra_tol=1e-3)),
], ids=["bosonic", "bosonic-down", "fermionic", "bosonic-loose"])
@pytest.mark.parametrize("rotated", [False, True], ids=["plain", "rotated"])
def test_kernel_mode_lifted_within_the_accepted_residual_stays_zero(
        shape, mode, bump, policy, rotated):
    # H = diag(A^dag A, A A^dag) for A = 1 of the given shape, with the
    # kernel mode of A (entry ``mode`` of H) moved by ``bump``: the
    # sector block is off A^dag A or A A^dag by |bump|, which the
    # validation accepts, so the mode must count as zero in both reports
    # (Tr K = +-1), with the two positive partners paired.
    h, k, q = block_system(np.eye(*shape))
    h[mode, mode] += bump
    if rotated:
        w = haar_unitary(np.random.default_rng(4), sum(shape))
        h, k, q = (w @ m @ adjoint(w) for m in (h, k, q))
    system = validate_graded_complex_system(h, k, [q], policy)
    index, pair = _assert_consistent(system, policy)
    assert index.index == shape[1] - shape[0]
    assert len(pair.pairs) == 2


@pytest.mark.parametrize("e", [7.25, 7.5])
@pytest.mark.parametrize("seed", range(6))
def test_kernel_equality_accepts_the_kernel_it_computed(seed, e):
    # sigma = 10^-e lies just under the Gram cut at dim 16 (sqrt(32 eps)
    # = 8.4e-8 of the largest), so Q1, which holds each singular value of
    # A twice, has a two-dimensional kernel on which Q2 leaves a residual
    # of about sigma; the annihilation bound must admit what the cut
    # admitted.
    system = _tensor_system(seed, e)
    q1 = system.charges[0]
    q2 = second_supercharge(system.involution, q1)
    report = kernel_equality_check(q1, q2)
    assert report.dim_kernel_q1 == report.dim_kernel_q2 == 2
    for residual in (report.max_residual_q2_on_ker_q1,
                     report.max_residual_q1_on_ker_q2):
        assert 0.0 < residual <= 1.01 * 10.0**-e
