"""Lattice realizations and seeded random generators of graded systems.

Discretization choices keep the supersymmetry algebra exact and let only
the spectra carry discretization error:

* the free particle uses the periodic central difference, whose exact
  antisymmetry under the site-reversal parity gives ``{K, p} = 0`` to
  the last bit;
* the one-dimensional superpotential model uses the forward difference
  with Dirichlet truncation, so the partner blocks ``A^dag A`` and
  ``A A^dag`` are exact partners by construction;
* site counts are odd so the symmetric lattice ``j = -m..m`` carries a
  single parity-even zero mode of the momentum (an even periodic lattice
  would add a second, parity-even alternating zero mode).

The random generator draws from an explicit 64-bit linear congruential
stream (Knuth's MMIX multiplier), so its draws are bit for bit the same
across platforms and numpy versions.  The operators built from them are
products summed through BLAS, and a conjugated system's unitary is
orthonormalized through BLAS too, so those reproduce bit for bit on one
machine and to rounding across platforms.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import (
    DEFAULT_POLICY,
    NumericPolicy,
    SIGMA1,
    SIGMA2,
    RelationCheck,
    _raise_failures,
    _require_int,
    adjoint,
    as_operator,
)
from .susy import (
    GradedSystem,
    validate_graded_complex_system,
    validate_graded_real_system,
)
from .spectral import _orthonormal_columns

__all__ = [
    "Boundary",
    "LatticeSpec",
    "Lcg",
    "build_model",
    "fermionic_ladder",
    "free_particle_lattice",
    "pauli_lattice",
    "random_graded_system",
    "tensor_supercharge",
    "witten_model_lattice",
]

_SQRT2 = math.sqrt(2.0)


class Boundary(str, enum.Enum):
    PERIODIC = "periodic"
    DIRICHLET = "dirichlet"


@dataclass(frozen=True)
class LatticeSpec:
    """Symmetric one-dimensional lattice ``x_j = j * spacing``, ``j = -m..m``.

    ``sites`` must be an odd integer so the site-reversal parity has
    well-defined sector dimensions ``(m + 1, m)``; ``spacing`` a positive finite real.
    """

    sites: int
    spacing: float
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        object.__setattr__(self, "sites", _require_int(self.sites, "sites"))
        if self.sites < 1 or self.sites % 2 == 0:
            raise ValueError(f"sites must be an odd positive integer, "
                             f"got {self.sites}")
        self._checked_spacing(self.spacing, "spacing")
        object.__setattr__(self, "boundary", Boundary(self.boundary))

    @staticmethod
    def _checked_spacing(value, name: str):
        """``value`` if it is a positive finite real; errors name the
        field ``name`` that holds it."""
        if not 0 < _spec_reals(value, name) < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
        return value

    def coordinates(self) -> np.ndarray:
        m = self.sites // 2
        return (np.arange(self.sites) - m) * self.spacing


def fermionic_ladder() -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 ladder pair ``f, f^dag`` with ``{f, f^dag} = 1`` and
    ``f^2 = 0``; note ``[f, f^dag] = sigma_3``."""
    f = np.array([[0, 1], [0, 0]], dtype=np.complex128)
    return f, adjoint(f)


def _parity_permutation(sites: int) -> np.ndarray:
    k = np.zeros((sites, sites), dtype=np.complex128)
    k[np.arange(sites), sites - 1 - np.arange(sites)] = 1.0
    return k


def _central_momentum(spec: LatticeSpec) -> np.ndarray:
    n = spec.sites
    shift_up = np.zeros((n, n), dtype=np.complex128)
    shift_up[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return -1j * (shift_up - shift_up.T) / (2.0 * spec.spacing)


def tensor_supercharge(a, policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Single real charge ``Q = f^dag (x) A + f (x) A^dag`` with the
    grading ``K = sigma_3 (x) 1``.

    All three are assembled directly in block form: ``A`` and ``A^dag``
    are written into the off-diagonal blocks of Q, ``K = diag(1, -1)``
    and ``H = diag(A^dag A, A A^dag)``; that block form equals ``Q^2``
    and the validator confirms ``{Q, Q} = 2H``.
    """
    arr = as_operator(a, "A")
    n = arr.shape[0]
    q = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    q[n:, :n] = arr
    q[:n, n:] = adjoint(arr)
    k, h = _block_graded(arr)
    return validate_graded_real_system(h, k, [q], policy)


def _block_graded(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(K, H)`` of the block-graded layout of a complex map ``a`` of
    shape ``(dim_f, dim_b)``, from the bosonic sector to the fermionic
    one: ``K = diag(1_b, -1_f)`` and ``H = diag(A^dag A, A A^dag)``."""
    dim_f, dim_b = a.shape
    k = np.diag(np.concatenate(
        [np.ones(dim_b), -np.ones(dim_f)])).astype(np.complex128)
    h = np.zeros((dim_b + dim_f, dim_b + dim_f), dtype=np.complex128)
    h[:dim_b, :dim_b] = adjoint(a) @ a
    h[dim_b:, dim_b:] = a @ adjoint(a)
    return k, h


def free_particle_lattice(spec: LatticeSpec,
                          policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Free particle graded by parity: ``Q = p / sqrt(2)``, ``H = p^2 / 2``.

    The involution is the site reversal ``(K phi)_j = phi_{-j}``; the
    momentum changes sign under it exactly, so the system is graded with
    zero algebra residual.  Eigenvalues of H are
    ``sin^2(2 pi k / sites) / (2 spacing^2)``.
    """
    if spec.boundary is not Boundary.PERIODIC:
        raise ValueError("the free-particle lattice needs periodic boundary")
    p = _central_momentum(spec)
    k = _parity_permutation(spec.sites)
    q = p / _SQRT2
    h = p @ p / 2.0
    return validate_graded_real_system(h, k, [q], policy)


def witten_model_lattice(spec: LatticeSpec, superpotential,
                         policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """One-dimensional superpotential model ``A = D + diag(W)``.

    ``D`` is the forward difference with Dirichlet truncation
    (``D[j, j] = -1/dx``, ``D[j, j+1] = +1/dx``, nothing beyond the last
    site), and ``W`` holds the superpotential samples at the lattice
    coordinates, of an integer or real floating dtype (any other raises
    :class:`TypeError`).  The system is built through
    :func:`tensor_supercharge`, so the supersymmetry is exact no matter
    how coarse the lattice.
    """
    if spec.boundary is not Boundary.DIRICHLET:
        raise ValueError("the superpotential lattice needs Dirichlet boundary")
    w = _real_samples(superpotential, "superpotential")
    if w.shape != (spec.sites,):
        raise ValueError(
            f"superpotential needs {spec.sites} samples, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("superpotential contains non-finite samples")
    n = spec.sites
    d = np.zeros((n, n), dtype=np.complex128)
    d[np.arange(n), np.arange(n)] = -1.0 / spec.spacing
    d[np.arange(n - 1), np.arange(1, n)] = 1.0 / spec.spacing
    return tensor_supercharge(d + np.diag(w), policy)


def pauli_lattice(spec: LatticeSpec, a_x, a_y,
                  policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Planar spin-1/2 particle in a magnetic field, graded by parity.

    On a periodic ``sites x sites`` lattice the charge is
    ``sqrt(2) Q = (p_x - a_x) (x) sigma_1 + (p_y - a_y) (x) sigma_2`` and
    ``K = (spatial parity) (x) 1_2``; the magnetic term emerges from
    ``H = Q^2``, it is never inserted by hand.  The vector potential must
    be parity odd, ``a_i(-r) = -a_i(r)``, otherwise K fails to
    anticommute with Q.  Each field that violates it fails its check
    ``a_i(-r) = -a_i(r)``, whose residual is the worst sample's violation.

    ``a_x`` and ``a_y`` are real samples on the lattice, of an integer or
    real floating dtype (any other raises :class:`TypeError`), either
    shaped ``(sites, sites)`` or flat of length ``sites**2``, indexed
    row-major as ``(ix, iy)``.
    """
    if spec.boundary is not Boundary.PERIODIC:
        raise ValueError("the planar spin lattice needs periodic boundary")
    n = spec.sites
    n_sp = n * n

    fields = []
    for name, samples in (("a_x", a_x), ("a_y", a_y)):
        arr = _real_samples(samples, name)
        if arr.shape == (n, n):
            arr = arr.reshape(n_sp)
        if arr.shape != (n_sp,):
            raise ValueError(
                f"{name} needs {n_sp} samples (flat or {n}x{n}), "
                f"got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite samples")
        fields.append(arr)

    flat = np.arange(n_sp)
    reflected = (n - 1 - flat // n) * n + (n - 1 - flat % n)
    tol = policy.algebra_tol * max(
        1.0, max(float(np.abs(f).max(initial=0.0)) for f in fields))
    _raise_failures([RelationCheck.judge(f"{name}(-r) = -{name}(r)",
                                         float(np.abs(arr + arr[reflected]).max()), tol)
                     for name, arr in zip(("a_x", "a_y"), fields)],
                    "vector potential must be parity odd")

    p1 = _central_momentum(spec)
    eye = np.eye(n)
    p_x = np.kron(p1, eye)
    p_y = np.kron(eye, p1)
    pi_x = p_x - np.diag(fields[0])
    pi_y = p_y - np.diag(fields[1])
    q = (np.kron(pi_x, SIGMA1) + np.kron(pi_y, SIGMA2)) / _SQRT2
    parity1 = _parity_permutation(n)
    k = np.kron(np.kron(parity1, parity1), np.eye(2))
    h = q @ q
    return validate_graded_real_system(h, k, [q], policy)


def _real_samples(samples, name: str) -> np.ndarray:
    """``samples`` as a float64 array if their dtype is an integer or real
    floating one; complex, boolean, string and object samples raise
    :class:`TypeError` naming ``name``, before any cast could drop an
    imaginary part or read a string as a number."""
    arr = np.asarray(samples)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"{name} must be real, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


class Lcg:
    """64-bit linear congruential stream, documented for reproducibility.

    ``state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64``
    (Knuth's MMIX constants); doubles take the top 53 bits.  Identical
    seeds give identical draws, so identical matrices from
    :meth:`complex_matrix`, on every platform.  Anything computed from
    them through BLAS (the unitary of a conjugated
    :func:`random_graded_system` among it) agrees across platforms only
    to rounding.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self.MASK

    def next_u64(self) -> int:
        self._state = (self._state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self._state

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def symmetric(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def complex_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of ``complex(symmetric(), symmetric())`` in row-major
        order, all drawn at once.

        The k-th state after ``s`` is
        ``a^k s + c (1 + a + ... + a^(k-1)) mod 2^64``; uint64 arithmetic
        wraps modulo ``2^64``, so cumulative products and sums give every
        state, and the doubles are the same as one draw at a time.
        """
        count = 2 * rows * cols
        out = np.empty((rows, cols), dtype=np.complex128)
        if count == 0:
            return out
        powers = np.cumprod(np.full(count, self.MULTIPLIER, dtype=np.uint64))
        series = np.cumsum(np.concatenate(
            [np.ones(1, dtype=np.uint64), powers[:-1]]))
        states = (powers * np.uint64(self._state)
                  + series * np.uint64(self.INCREMENT))
        self._state = int(states[-1])
        draws = 2.0 * ((states >> np.uint64(11)).astype(np.float64) * 2.0**-53) - 1.0
        out.real = draws[0::2].reshape(rows, cols)
        out.imag = draws[1::2].reshape(rows, cols)
        return out


def _lcg_unitary(stream: Lcg, n: int) -> np.ndarray:
    """Unitary from the next ``n x n`` complex draws of ``stream``,
    orthonormalized column by column with two-pass classical Gram-Schmidt
    (:func:`susyqm.spectral._orthonormal_columns`)."""
    return _orthonormal_columns(stream.complex_matrix(n, n))


def random_graded_system(dim_b: int, dim_f: int, seed: int,
                         conjugate: bool = False,
                         policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Random graded system with one complex charge in block form.

    Draws ``A`` of shape ``(dim_f, dim_b)`` from the seeded stream and
    assembles ``K = diag(1_b, -1_f)``, ``q = sqrt(2) [[0, A^dag], [0, 0]]``
    and ``H = diag(A^dag A, A A^dag)``.  With ``conjugate=True`` the whole
    triple is rotated by a random unitary to exercise non-standard bases;
    the unitary orthonormalizes the next ``n x n`` complex draws of the
    same stream, ``n = dim_b + dim_f``, after those of ``A``.

    The draws are bit for bit the same on every platform.  ``H`` and,
    with ``conjugate=True``, the unitary and the rotated triple are
    summed through BLAS, so they reproduce bit for bit on one machine
    and to rounding across platforms; counts and the index do not move.
    """
    if dim_b < 1 or dim_f < 1:
        raise ValueError("sector dimensions must be positive")
    stream = Lcg(seed)
    a = stream.complex_matrix(dim_f, dim_b)
    n = dim_b + dim_f
    q = np.zeros((n, n), dtype=np.complex128)
    q[:dim_b, dim_b:] = _SQRT2 * adjoint(a)
    k, h = _block_graded(a)
    if conjugate:
        u = _lcg_unitary(stream, n)
        q = u @ q @ adjoint(u)
        k = u @ k @ adjoint(u)
        h = u @ h @ adjoint(u)
    return validate_graded_complex_system(h, k, [q], policy)


def _spec_reals(value, name: str):
    """A model-spec number or array of samples: every entry a real number
    (numpy ones too) that fits in a double, never a boolean or string."""
    entries = np.asarray(value, dtype=object).reshape(-1)
    for x in entries:
        if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
            raise TypeError(f"{name} must be real, got {x!r}")
        try:
            float(x)
        except OverflowError:
            raise TypeError(f"{name} has a number too large for a "
                            f"double") from None
    return value


def _spec_samples(value, name: str) -> np.ndarray:
    """Model-spec samples checked by :func:`_spec_reals`, as float64: a
    Python integer too wide for int64 would otherwise make an object
    array, which the lattice builders refuse."""
    return np.asarray(_spec_reals(value, name), dtype=np.float64)


def _spec_pair(value, message: str):
    """A model-spec field of two entries: a sequence or a numpy array
    (its rows, for a matrix) of length two; the entries are checked by
    the caller."""
    array = isinstance(value, np.ndarray) and value.ndim > 0
    if not (array or isinstance(value, Sequence)) or len(value) != 2:
        raise ValueError(message)
    return value


def build_model(spec: Mapping, policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Build a graded system from a model description mapping.

    The ``"model"`` key selects the builder (``free_particle``,
    ``witten``, ``pauli`` or ``random``); each builder reads only the
    fields it needs (``sites``, ``dx``, ``W``, ``A_field``, ``dims``,
    ``seed``) and ignores the rest.  Sizes and the seed must be integers;
    ``dx`` and the ``W`` and ``A_field`` samples must be real numbers
    that fit in a double.  Booleans, strings and integers too large for a
    double are rejected with :class:`TypeError`.
    """
    kind = spec.get("model")
    if kind == "random":
        dims = _spec_pair(spec["dims"], "dims must hold the two sector dimensions")
        return random_graded_system(_require_int(dims[0], "dims"),
                                    _require_int(dims[1], "dims"),
                                    _require_int(spec.get("seed", 0), "seed"),
                                    policy=policy)
    if kind not in ("free_particle", "witten", "pauli"):
        raise ValueError(f"unknown model kind: {kind!r}")
    boundary = Boundary.DIRICHLET if kind == "witten" else Boundary.PERIODIC
    lattice = LatticeSpec(spec["sites"],
                          float(LatticeSpec._checked_spacing(spec["dx"], "dx")),
                          boundary)
    if kind == "free_particle":
        return free_particle_lattice(lattice, policy)
    if kind == "witten":
        return witten_model_lattice(lattice, _spec_samples(spec["W"], "W"), policy)
    field = _spec_pair(spec["A_field"], "A_field must hold two sample arrays")
    return pauli_lattice(lattice, _spec_samples(field[0], "A_field"),
                         _spec_samples(field[1], "A_field"), policy)
