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
* The relations of a graded system built from an integer A of dims
  1-3, with one integer perturbation, have residuals whose entries are
  Gaussian integers or halves of them: every float product the
  validator forms is exact, so each residual is zero or at least 1/2 in
  norm.  Every operand norm is below 100, so a nonzero relative
  residual is above ``1/2 / 100^2 = 5e-5``, far beyond the default
  tolerances; the validator must fail exactly the relations whose exact
  residual is nonzero (zero, for the ``X != Y`` relations).

``numpy.linalg`` stays the other oracle elsewhere; these need none.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyqm import (
    DEFAULT_POLICY,
    ValidationError,
    kernel_basis,
    tensor_supercharge,
    validate_graded_complex_system,
    validate_graded_real_system,
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


class _Exact:
    """A matrix of Gaussian rationals: its real and imaginary parts as
    object arrays of Fractions, so every sum and product is exact."""

    def __init__(self, re, im):
        self.re, self.im = re, im

    @classmethod
    def of(cls, m):
        exact = np.vectorize(Fraction, otypes=[object])
        return cls(exact(m.real), exact(m.imag))

    def __add__(self, other):
        return _Exact(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Exact(self.re - other.re, self.im - other.im)

    def __rmul__(self, c: int):
        return _Exact(c * self.re, c * self.im)

    def __matmul__(self, other):
        return _Exact(self.re @ other.re - self.im @ other.im,
                      self.re @ other.im + self.im @ other.re)

    def dag(self):
        return _Exact(self.re.T, -self.im.T)

    def norm2(self) -> Fraction:
        """The squared Frobenius norm."""
        return sum((self.re**2 + self.im**2).flat, Fraction(0))


def _relative2(res2, *norms2):
    """``core._relative`` on squares: the squared residual divided by
    each squared norm in turn; over a zero norm a nonzero residual is
    infinite and a zero one stays zero."""
    for n2 in norms2:
        if n2:
            res2 /= n2
        elif res2:
            return math.inf
    return res2


def exact_relations(h, k, q, complex_charges):
    """``name -> (squared relative residual, tolerance, must_exceed)`` of
    every relation the validator checks on the single-charge graded
    system ``(h, k, [q])``, in the validator's order, computed exactly."""
    hh, kk, qq = _Exact.of(h), _Exact.of(k), _Exact.of(q)
    one = _Exact.of(np.eye(len(h)))
    n2 = len(h) ** 2
    nh, nq = hh.norm2(), qq.norm2()
    tol, h_tol = DEFAULT_POLICY.algebra_tol, DEFAULT_POLICY.hermiticity_tol
    label = "q" if complex_charges else "Q"
    herm = ("q1 not self-adjoint (a self-adjoint complex charge forces H = 0)"
            if complex_charges else "Q1 self-adjoint")
    out = {
        "H self-adjoint": (_relative2((hh - hh.dag()).norm2(), nh), h_tol, False),
        "H != 0": (_relative2(nh, nq, nq), tol, True),
        herm: (_relative2((qq - qq.dag()).norm2(), nq), h_tol, complex_charges),
    }
    if complex_charges:
        out["{q1,q1^dag} = 2H"] = (_relative2(
            (qq @ qq.dag() + qq.dag() @ qq - 2 * hh).norm2(), nq, nq), tol, False)
        out["{q1,q1} = 0"] = (_relative2((2 * (qq @ qq)).norm2(), nq, nq), tol, False)
    else:
        out["{Q1,Q1} = 2H"] = (_relative2((2 * (qq @ qq) - 2 * hh).norm2(), nq, nq),
                               tol, False)
    out[f"[H,{label}1] = 0"] = (_relative2((hh @ qq - qq @ hh).norm2(), nh, nq), tol, False)
    out["K self-adjoint"] = (_relative2((kk - kk.dag()).norm2(), kk.norm2()), h_tol, False)
    out["K^2 = 1"] = (_relative2((kk @ kk - one).norm2(), n2), tol, False)
    out["K != +1"] = (_relative2((kk - one).norm2(), n2), tol, True)
    out["K != -1"] = (_relative2((kk + one).norm2(), n2), tol, True)
    out[f"{{K,{label}1}} = 0"] = (_relative2((kk @ qq + qq @ kk).norm2(), nq), tol, False)
    out["[H,K] = 0"] = (_relative2((hh @ kk - kk @ hh).norm2(), nh), tol, False)
    return out


def integer_graded_system(a, complex_charges):
    """``(H, K, charge)`` from an integer A of shape ``(df, db)``: ``Q =
    [[0, A^T], [A, 0]]`` with ``H = Q^2``, or ``q = [[0, A^T], [0, 0]]``
    with ``H = {q, q^dag}/2``, and ``K = diag(1, -1)``."""
    df, db = a.shape
    n = db + df
    q = np.zeros((n, n), dtype=complex)
    q[:db, db:] = a.T
    if not complex_charges:
        q[db:, :db] = a
    h = (q @ q.conj().T + q.conj().T @ q) / 2 if complex_charges else q @ q
    k = np.diag(np.concatenate([np.ones(db), -np.ones(df)])).astype(complex)
    return h, k, q


@st.composite
def perturbed_graded_systems(draw):
    """``(H, K, charge, complex_charges)``: an :func:`integer_graded_system`
    of an A of dims 1-3, then one integer perturbation, Hermitian or
    not, added to H, the charge or K, or none."""
    db, df = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    a = np.array(draw(st.lists(_ENTRIES, min_size=db * df, max_size=db * df)),
                 dtype=float).reshape(df, db)
    complex_charges = draw(st.booleans())
    h, k, q = integer_graded_system(a, complex_charges)
    n = db + df
    target = draw(st.sampled_from(["none", "H", "charge", "K"]))
    if target != "none":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = draw(st.sampled_from([1, -1, 2, -2, 1j, -1j, 1 + 1j]))
        e = np.zeros((n, n), dtype=complex)
        e[i, j] += v
        if draw(st.booleans()):
            e[j, i] += np.conj(v)
        if target == "H":
            h = h + e
        elif target == "charge":
            q = q + e
        else:
            k = k + e
    return h, k, q, complex_charges


_H1, _K1, _Q1 = integer_graded_system(np.array([[1.0]]), False)


@settings(max_examples=200, deadline=None)
@given(system=perturbed_graded_systems())
# The perturbations that make K trivial, which a draw seldom makes.
@example(system=(_H1, _K1 + np.diag([0.0, 2.0]), _Q1, False))
@example(system=(_H1, _K1 - np.diag([2.0, 0.0]), _Q1, False))
def test_validator_fails_exactly_the_relations_with_a_nonzero_exact_residual(system):
    h, k, q, complex_charges = system
    exact = exact_relations(h, k, q, complex_charges)
    expected = [name for name, (rel2, tol, must_exceed) in exact.items()
                if not (rel2 > tol**2 if must_exceed else rel2 <= tol**2)]
    # No rounding band: the verdicts are those of zero and nonzero.
    assert expected == [name for name, (rel2, _, must_exceed) in exact.items()
                        if (rel2 == 0) == must_exceed]
    validate = validate_graded_complex_system if complex_charges else validate_graded_real_system
    try:
        checks = validate(h, k, [q]).checks
    except ValidationError as exc:
        failed = [c.name for c in exc.failures]
        for name in failed:
            assert str(exc).count(f"{name} (residual ") == 1, name
    else:
        assert [c.name for c in checks] == list(exact)
        failed = []
    assert failed == expected
