"""Exact index identities across systems, with no oracle and no threshold.

* The direct sum ``H1 + H2``, ``Q1 + Q2``, ``K1 + K2`` has index ``ind1
  + ind2``, and its sector spectra are the unions of the summands'.
* The graded tensor product ``H1 (x) 1 + 1 (x) H2``, ``Q1 (x) 1 + K1 (x)
  Q2``, ``K1 (x) K2`` has index ``ind1 * ind2``; its bosonic spectrum
  holds the sums ``lambda + mu`` of eigenvalues of like grading, its
  fermionic one those of unlike grading.
* Reversing the grading, ``K -> -K``, negates the index and swaps the
  sectors of the pairing report.

Factors are random graded systems, plain or conjugated, with their
complex charge or the first real charge taken from it, and
``tensor_supercharge`` systems of small integer maps, whose zero modes
are exact.  A miscount in one factor cannot cancel in the sum or the
product.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyqm import (
    random_graded_system,
    real_from_complex,
    spectral_pairing_report,
    tensor_supercharge,
    validate_graded_complex_system,
    validate_graded_real_system,
    witten_index_report,
)

from conftest import direct_sum, graded_tensor


def _triple(system, real):
    """``(H, K, Q)`` of a single-charge graded system, with its complex
    charge replaced by the first real charge taken from it if ``real``."""
    q = system.charges[0]
    if real and system.complex_charges:
        q = real_from_complex(q)[0]
    return system.hamiltonian, system.involution.matrix, q


def _validate(triple, real):
    h, k, q = triple
    validate = validate_graded_real_system if real else validate_graded_complex_system
    return validate(h, k, [q])


def _reports(system):
    return witten_index_report(system), spectral_pairing_report(system)


def _assert_spectrum(values, expected, radius):
    np.testing.assert_allclose(values, np.sort(expected), rtol=0, atol=1e-11 * radius)


@st.composite
def _factors(draw, real):
    """A validated ``(H, K, Q)`` factor: a random graded system of
    sector dims 1-4, plain or conjugated, or, for a real charge, a
    ``tensor_supercharge`` system of a nonzero integer map of size 1-3."""
    if real and draw(st.booleans()):
        n = draw(st.integers(1, 3))
        a = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)),
                     dtype=float).reshape(n, n)
        assume(a.any())
        return _triple(tensor_supercharge(a), real)
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    system = random_graded_system(*dims, draw(st.integers(0, 2**16)),
                                  conjugate=draw(st.booleans()))
    return _triple(system, real)


_FLAVOURS = [pytest.param(True, id="real"), pytest.param(False, id="complex")]


@pytest.mark.parametrize("real", _FLAVOURS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_direct_sum_adds_the_indices_and_unites_the_spectra(real, data):
    first, second = (data.draw(_factors(real)) for _ in range(2))
    (ind1, spec1), (ind2, spec2) = (_reports(_validate(t, real)) for t in (first, second))
    index, spectra = _reports(_validate(direct_sum(first, second), real))
    assert index.index == spectra.witten_index == ind1.index + ind2.index
    radius = max(spectra.bosonic_eigenvalues[-1], spectra.fermionic_eigenvalues[-1])
    _assert_spectrum(spectra.bosonic_eigenvalues,
                     spec1.bosonic_eigenvalues + spec2.bosonic_eigenvalues, radius)
    _assert_spectrum(spectra.fermionic_eigenvalues,
                     spec1.fermionic_eigenvalues + spec2.fermionic_eigenvalues, radius)


@pytest.mark.parametrize("real", _FLAVOURS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_graded_tensor_product_multiplies_the_indices(real, data):
    first, second = (data.draw(_factors(real)) for _ in range(2))
    (ind1, spec1), (ind2, spec2) = (_reports(_validate(t, real)) for t in (first, second))
    index, spectra = _reports(_validate(graded_tensor(first, second), real))
    assert index.index == spectra.witten_index == ind1.index * ind2.index

    def sums(x, y):
        return np.add.outer(x, y).ravel()

    b1, f1 = spec1.bosonic_eigenvalues, spec1.fermionic_eigenvalues
    b2, f2 = spec2.bosonic_eigenvalues, spec2.fermionic_eigenvalues
    radius = max(spectra.bosonic_eigenvalues[-1], spectra.fermionic_eigenvalues[-1])
    _assert_spectrum(spectra.bosonic_eigenvalues,
                     np.concatenate([sums(b1, b2), sums(f1, f2)]), radius)
    _assert_spectrum(spectra.fermionic_eigenvalues,
                     np.concatenate([sums(b1, f2), sums(f1, b2)]), radius)


@pytest.mark.parametrize("real", _FLAVOURS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_reversed_grading_negates_the_index_and_swaps_the_sectors(real, data):
    h, k, q = data.draw(_factors(real))
    index, spectra = _reports(_validate((h, k, q), real))
    flipped_index, flipped = _reports(_validate((h, -k, q), real))
    assert flipped_index.index == flipped.witten_index == -index.index
    radius = max(spectra.bosonic_eigenvalues[-1], spectra.fermionic_eigenvalues[-1])
    _assert_spectrum(flipped.bosonic_eigenvalues, spectra.fermionic_eigenvalues, radius)
    _assert_spectrum(flipped.fermionic_eigenvalues, spectra.bosonic_eigenvalues, radius)


@pytest.mark.parametrize("dims1,dims2,index", [
    ((3, 1), (2, 4), -4),
    ((5, 3), (4, 4), 0),
    ((6, 2), (1, 3), -8),
    ((7, 4), (5, 2), 9),
    ((9, 3), (8, 5), 18),
])
def test_tensor_products_of_real_random_factors(dims1, dims2, index):
    first = _triple(random_graded_system(*dims1, 1), real=True)
    second = _triple(random_graded_system(*dims2, 2), real=True)
    system = _validate(graded_tensor(first, second), real=True)
    report, spectra = _reports(system)
    assert report.index == spectra.witten_index == report.trace_k == index
