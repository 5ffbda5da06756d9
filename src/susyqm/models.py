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
stream (Knuth's MMIX multiplier), so property tests reproduce across
platforms and numpy versions.
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
    SIGMA3,
    ValidationError,
    adjoint,
    as_operator,
)
from .susy import (
    GradedSystem,
    validate_graded_complex_system,
    validate_graded_real_system,
)

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

    ``sites`` must be odd so the site-reversal parity has well-defined
    sector dimensions ``(m + 1, m)``.
    """

    sites: int
    spacing: float
    boundary: Boundary = Boundary.PERIODIC

    def __post_init__(self):
        if self.sites < 1 or self.sites % 2 == 0:
            raise ValueError(f"sites must be an odd positive integer, "
                             f"got {self.sites}")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be positive, got {self.spacing}")
        object.__setattr__(self, "boundary", Boundary(self.boundary))

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

    H is assembled directly as ``diag(A^dag A, A A^dag)``; that block
    form equals ``Q^2`` and the validator confirms ``{Q, Q} = 2H``.
    """
    arr = as_operator(a, "A")
    n = arr.shape[0]
    f, f_dag = fermionic_ladder()
    q = np.kron(f_dag, arr) + np.kron(f, adjoint(arr))
    k = np.kron(SIGMA3, np.eye(n))
    h = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    h[:n, :n] = adjoint(arr) @ arr
    h[n:, n:] = arr @ adjoint(arr)
    return validate_graded_real_system(h, k, [q], policy)


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
    coordinates.  The system is built through :func:`tensor_supercharge`,
    so the supersymmetry is exact no matter how coarse the lattice.
    """
    if spec.boundary is not Boundary.DIRICHLET:
        raise ValueError("the superpotential lattice needs Dirichlet boundary")
    w = np.asarray(superpotential, dtype=float)
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
    anticommute with Q; violations are rejected naming the worst sample.

    ``a_x`` and ``a_y`` are real samples on the lattice, either shaped
    ``(sites, sites)`` or flat of length ``sites**2``, indexed row-major
    as ``(ix, iy)``.
    """
    if spec.boundary is not Boundary.PERIODIC:
        raise ValueError("the planar spin lattice needs periodic boundary")
    n = spec.sites
    n_sp = n * n

    fields = []
    for name, samples in (("a_x", a_x), ("a_y", a_y)):
        arr = np.asarray(samples, dtype=float)
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
    for name, arr in zip(("a_x", "a_y"), fields):
        violation = np.abs(arr + arr[reflected])
        worst = int(np.argmax(violation))
        if violation[worst] > tol:
            ix, iy = divmod(worst, n)
            raise ValidationError(
                f"vector potential must be parity odd: {name} at site "
                f"(ix={ix}, iy={iy}) violates a(-r) = -a(r) by "
                f"{violation[worst]:.3e}")

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


class Lcg:
    """64-bit linear congruential stream, documented for reproducibility.

    ``state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64``
    (Knuth's MMIX constants); doubles take the top 53 bits.  Identical
    seeds give identical matrices on every platform.
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
        out = np.empty((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = complex(self.symmetric(), self.symmetric())
        return out


def _lcg_unitary(stream: Lcg, n: int) -> np.ndarray:
    """Unitary from modified Gram-Schmidt on a random complex matrix."""
    m = stream.complex_matrix(n, n)
    u = np.zeros_like(m)
    for j in range(n):
        v = m[:, j].copy()
        for i in range(j):
            v -= (u[:, i].conj() @ v) * u[:, i]
        # second orthogonalization pass for numerical safety
        for i in range(j):
            v -= (u[:, i].conj() @ v) * u[:, i]
        u[:, j] = v / np.linalg.norm(v)
    return u


def random_graded_system(dim_b: int, dim_f: int, seed: int,
                         conjugate: bool = False,
                         policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Random graded system with one complex charge in block form.

    Draws ``A`` of shape ``(dim_f, dim_b)`` from the seeded stream and
    assembles ``K = diag(1_b, -1_f)``, ``q = sqrt(2) [[0, A^dag], [0, 0]]``
    and ``H = diag(A^dag A, A A^dag)``.  With ``conjugate=True`` the whole
    triple is rotated by a random unitary to exercise non-standard bases.
    """
    if dim_b < 1 or dim_f < 1:
        raise ValueError("sector dimensions must be positive")
    stream = Lcg(seed)
    a = stream.complex_matrix(dim_f, dim_b)
    n = dim_b + dim_f
    q = np.zeros((n, n), dtype=np.complex128)
    q[:dim_b, dim_b:] = _SQRT2 * adjoint(a)
    k = np.diag(np.concatenate(
        [np.ones(dim_b), -np.ones(dim_f)])).astype(np.complex128)
    h = np.zeros((n, n), dtype=np.complex128)
    h[:dim_b, :dim_b] = adjoint(a) @ a
    h[dim_b:, dim_b:] = a @ adjoint(a)
    if conjugate:
        u = _lcg_unitary(stream, n)
        q = u @ q @ adjoint(u)
        k = u @ k @ adjoint(u)
        h = u @ h @ adjoint(u)
    return validate_graded_complex_system(h, k, [q], policy)


def _spec_int(value, name: str) -> int:
    """A model-spec size or seed: an integer (numpy integers too), never a
    boolean, string or float, not even an integral one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _spec_reals(value, name: str):
    """A model-spec number or array of samples: every entry a real number
    (numpy ones too), never a boolean or string."""
    entries = np.asarray(value, dtype=object).reshape(-1)
    for x in entries:
        if isinstance(x, (bool, np.bool_)) or not isinstance(x, numbers.Real):
            raise TypeError(f"{name} must be real, got {x!r}")
    return value


def build_model(spec: Mapping, policy: NumericPolicy = DEFAULT_POLICY) -> GradedSystem:
    """Build a graded system from a model description mapping.

    The ``"model"`` key selects the builder (``free_particle``,
    ``witten``, ``pauli`` or ``random``); each builder reads only the
    fields it needs (``sites``, ``dx``, ``W``, ``A_field``, ``dims``,
    ``seed``) and ignores the rest.  Sizes and the seed must be integers;
    ``dx`` and the ``W`` and ``A_field`` samples must be real numbers.
    Booleans and strings are rejected with :class:`TypeError`.
    """
    kind = spec.get("model")
    if kind == "random":
        dims = spec["dims"]
        if not isinstance(dims, Sequence) or len(dims) != 2:
            raise ValueError("dims must hold the two sector dimensions")
        return random_graded_system(_spec_int(dims[0], "dims"),
                                    _spec_int(dims[1], "dims"),
                                    _spec_int(spec.get("seed", 0), "seed"),
                                    policy=policy)
    if kind not in ("free_particle", "witten", "pauli"):
        raise ValueError(f"unknown model kind: {kind!r}")
    boundary = Boundary.DIRICHLET if kind == "witten" else Boundary.PERIODIC
    lattice = LatticeSpec(_spec_int(spec["sites"], "sites"),
                          float(_spec_reals(spec["dx"], "dx")), boundary)
    if kind == "free_particle":
        return free_particle_lattice(lattice, policy)
    if kind == "witten":
        return witten_model_lattice(lattice, _spec_reals(spec["W"], "W"), policy)
    field = spec["A_field"]
    if not isinstance(field, Sequence) or len(field) != 2:
        raise ValueError("A_field must hold two sample arrays")
    return pauli_lattice(lattice, _spec_reals(field[0], "A_field"),
                         _spec_reals(field[1], "A_field"), policy)
