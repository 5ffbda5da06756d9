"""Continuum anchors for the Witten lattice.

The Dirichlet lattice ``A = D + diag(W)`` (``D`` the forward difference)
approximates ``A = d/dx + W`` to second order in the spacing, so the
positive bosonic levels of ``A^dag A`` tend to the continuum levels
with errors that shrink about fourfold per halving of the spacing.  Two
superpotentials have exact continuum levels:

- ``W = x``, the harmonic oscillator: ``E_n = 2n``.
- ``W = a tanh x``, the Poeschl-Teller well: ``E_1 = a^2 - (a - 1)^2``.

Each ladder halves the spacing on a fixed box, up to 401 sites.
"""

import functools

import numpy as np
import pytest

from susyqm import (
    Boundary,
    LatticeSpec,
    spectral_pairing_report,
    witten_index_report,
    witten_model_lattice,
)

# (sites, spacing) on the boxes [-7.5, 7.5] and [-5, 5].
_OSCILLATOR = ((101, 0.15), (201, 0.075), (401, 0.0375))
_WELL = ((101, 0.1), (201, 0.05), (401, 0.025))
_A = 3.0
# Four, the ratio of second-order errors per halving, and the measured
# ratios (4.03-4.09 on the coarse pair, 4.01-4.02 on the fine one).
_RATIO_BAND = (3.9, 4.2)


@functools.cache
def _reports(superpotential: str, sites: int, spacing: float):
    spec = LatticeSpec(sites, spacing, Boundary.DIRICHLET)
    x = spec.coordinates()
    w = x if superpotential == "x" else _A * np.tanh(x)
    system = witten_model_lattice(spec, w)
    return spectral_pairing_report(system), witten_index_report(system)


def _levels(superpotential: str, sites: int, spacing: float, count: int) -> np.ndarray:
    """The ``count`` lowest positive bosonic levels."""
    report = _reports(superpotential, sites, spacing)[0]
    zeros = report.unpaired_bosonic_zero_modes
    return np.array(report.bosonic_eigenvalues[zeros:zeros + count])


def _errors(superpotential, ladder, exact):
    return [_levels(superpotential, *lattice, len(exact)) - exact for lattice in ladder]


def test_oscillator_levels_converge_at_second_order():
    exact = 2.0 * np.arange(1, 6)
    coarse, middle, fine = _errors("x", _OSCILLATOR, exact)
    for big, small in ((coarse, middle), (middle, fine)):
        ratios = big / small
        assert np.all((ratios > _RATIO_BAND[0]) & (ratios < _RATIO_BAND[1])), ratios
    # The lattice levels sit below the continuum: E1 - 2 is -0.01135,
    # -0.00282 and -0.00070.
    assert np.all(fine < 0) and abs(fine[0]) < 1e-3


def test_richardson_beats_the_finer_oscillator_lattice():
    # (4 E_201 - E_101) / 3 cancels the second-order error: its worst
    # error on E1-E5 is 0.0022, the 201-site lattice's 0.071.
    exact = 2.0 * np.arange(1, 6)
    coarse, middle, _ = _errors("x", _OSCILLATOR, exact)
    richardson = (4.0 * middle - coarse) / 3.0
    assert np.abs(richardson).max() < 0.1 * np.abs(middle).max()


@pytest.mark.parametrize("sites,spacing", _OSCILLATOR)
def test_oscillator_pairs_every_positive_level(sites, spacing):
    report = _reports("x", sites, spacing)[0]
    assert len(report.pairs) == sites - 1
    assert (report.unpaired_bosonic_zero_modes,
            report.unpaired_fermionic_zero_modes) == (1, 1)


def test_well_first_level_converges_at_second_order():
    # E2 sits 1 below the continuum edge a^2 = 9, where the box shows
    # (its ratio on the finest pair is 6.6), so only E1 is anchored.
    exact = np.array([_A**2 - (_A - 1.0)**2])
    coarse, middle, fine = (e[0] for e in _errors("tanh", _WELL, exact))
    for big, small in ((coarse, middle), (middle, fine)):
        assert _RATIO_BAND[0] < big / small < _RATIO_BAND[1], big / small
    assert -3e-3 < fine < 0


@pytest.mark.parametrize("sites,spacing", _WELL)
def test_well_index_counts(sites, spacing):
    report = _reports("tanh", sites, spacing)[1]
    assert (report.dim_kernel_a, report.dim_kernel_a_dagger,
            report.bosonic_zero_modes, report.fermionic_zero_modes) == (1, 1, 1, 1)
