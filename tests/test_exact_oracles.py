"""Exact integer oracles, with no threshold.

Inputs are integer matrices of dims 1-6 with entries in [-2, 2], so
their rank and their inertia at a rational shift are decided exactly by
elimination over :class:`fractions.Fraction`.  The package must agree
with both, because on such inputs no value lies near its cuts:

* By Cauchy-Binet, the product of the nonzero squared singular values
  of an integer A of rank r is the sum of the squares of its r x r
  minors, a positive integer.  Each factor is at most
  ``||A||_F^2 <= 6 * 6 * 4 = 144``, so every nonzero ``sigma^2`` is at
  least ``sigma_max^2 / 144^6 = sigma_max^2 * 12^-10 / 144``, about
  ``1.1e-13 * sigma_max^2``: 40 times the Gram floor at dim 6
  (``2 * 6 * eps = 2.7e-15``).  The Gram products the package forms of
  such an A are exact integers.
* For an integer symmetric S of dim n, ``2^n det(x - S)`` at a
  half-integer x is the determinant of an integer matrix with an odd
  diagonal and an even off-diagonal, hence odd: ``|det(x - S)| >=
  2^-n``.  The same holds for every leading block, so no pivot of the
  unpivoted ``L D L^T`` of ``S - x`` vanishes (as the rational root
  theorem also says), and Sylvester's law of inertia counts the
  eigenvalues below x as its negative pivots.  Every eigenvalue lies in
  ``[-12, 12]``; for x in ``[-12.5, 12.5]`` each factor of
  ``det(x - S)`` but the nearest is at most 24.5 in size, so each
  eigenvalue lies at least ``2^-6 / 24.5^5``, about ``1.8e-9``, from
  every such half-integer.

``numpy.linalg`` stays the other oracle elsewhere; these need none.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from susyqm import (
    kernel_basis,
    tensor_supercharge,
    validate_graded_complex_system,
    witten_index_report,
)
from susyqm.spectral import _Tridiagonal

from conftest import block_system

_ENTRIES = st.integers(-2, 2)


@st.composite
def integer_matrices(draw, square=False):
    rows = draw(st.integers(1, 6))
    cols = rows if square else draw(st.integers(1, 6))
    return np.array(draw(st.lists(_ENTRIES, min_size=rows * cols, max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def symmetric_integer_matrices(draw):
    a = draw(integer_matrices(square=True))
    return np.triu(a) + np.triu(a, 1).T


def exact_rank(a) -> int:
    """Rank of an integer matrix by Gaussian elimination over Fractions."""
    rows = [[Fraction(int(x)) for x in row] for row in np.asarray(a)]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_count_below(s, x: Fraction) -> int:
    """Number of eigenvalues of the integer symmetric ``s`` below ``x``:
    the negative pivots of the unpivoted ``L D L^T`` of ``s - x``, none
    of which vanishes at a half-integer ``x`` (module docstring)."""
    n = len(s)
    m = [[Fraction(int(s[i][j])) - (x if i == j else 0) for j in range(n)]
         for i in range(n)]
    below = 0
    for k in range(n):
        pivot = m[k][k]
        assert pivot != 0
        below += pivot < 0
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            for j in range(k + 1, n):
                m[i][j] -= factor * m[k][j]
    return below


def _counts(report):
    return (report.dim_kernel_a, report.dim_kernel_a_dagger,
            report.bosonic_zero_modes, report.fermionic_zero_modes)


@settings(max_examples=150, deadline=None)
@given(a=integer_matrices())
def test_kernel_dims_are_the_exact_corank(a):
    r = exact_rank(a)
    rows, cols = a.shape
    assert kernel_basis(a).dim_kernel == cols - r
    assert kernel_basis(a.T).dim_kernel == rows - r


@settings(max_examples=60, deadline=None)
@given(a=integer_matrices().filter(np.any))
def test_index_report_counts_are_the_exact_coranks(a):
    # A maps the bosonic sector (dim_b = cols) to the fermionic one.
    r = exact_rank(a)
    dim_f, dim_b = a.shape
    h, k, q = block_system(a)
    report = witten_index_report(validate_graded_complex_system(h, k, [q]))
    assert _counts(report) == (dim_b - r, dim_f - r, dim_b - r, dim_f - r)
    assert report.index == dim_b - dim_f


@settings(max_examples=40, deadline=None)
@given(a=integer_matrices(square=True).filter(np.any))
def test_tensor_supercharge_counts_are_the_exact_corank(a):
    d = len(a) - exact_rank(a)
    assert _counts(witten_index_report(tensor_supercharge(a))) == (d, d, d, d)


@settings(max_examples=100, deadline=None)
@given(s=symmetric_integer_matrices(), k=st.integers(-13, 12))
def test_sturm_count_is_the_exact_inertia(s, k):
    x = Fraction(2 * k + 1, 2)
    assert _Tridiagonal(s).count(float(x)) == exact_count_below(s, x)
