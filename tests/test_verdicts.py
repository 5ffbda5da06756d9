"""A system that validates reaches its spectral consequences.

Two seeded corpora of random graded systems (sector dims 1-6, plain and
conjugated) carry one defect each, a Hermitian or an anti-Hermitian pair
of entries of relative size ``10^U(-10.5, -9.6)``, so that it falls just
below or just above the tolerances:

* single-charge systems, complex or real (``real_from_complex``), with
  the defect on H, on the charge or on K.  Whenever the validators
  accept one, the standard representation and both reports must not
  refuse it; a ``PairingError`` is the pairing report's verdict on the
  input, and is allowed.
* real pairs ``(Q1, Q2)``, with the defect on Q1, on Q2 or on both.
  Whenever a pair validates with its H, ``kernel_equality_check`` must
  accept it.

A third corpus holds Pauli lattices (5x5 and 7x7 sites) whose
parity-odd fields carry a bump of relative size ``10^U(-14, -6)`` on one
sample: ``pauli_lattice`` must give the verdict, and the residuals, of
``validate_graded_real_system`` on the system assembled here from the
same fields.

A later stage that judges an operand on a scale of its own, or judges
blocks it derived instead of the operator passed in, refuses some of
them.
"""

import functools
import math

import numpy as np

from susyqm import (
    SIGMA1,
    SIGMA2,
    LatticeSpec,
    PairingError,
    ValidationError,
    kernel_equality_check,
    pauli_lattice,
    random_graded_system,
    real_from_complex,
    spectral_pairing_report,
    standard_representation,
    validate_graded_complex_system,
    validate_graded_real_system,
    validate_real_system,
    witten_index_report,
)

from conftest import adj

_CASES = 300


def _defect(rng, m):
    """A Hermitian or an anti-Hermitian pair of entries of ``m``'s shape,
    at a random position, of Frobenius norm ``10^U(-10.5, -9.6) *
    ||m||``."""
    i, j = rng.integers(len(m), size=2)
    e = np.zeros(m.shape, dtype=complex)
    e[i, j] = rng.normal() + 1j * rng.normal()
    part = e + adj(e) if rng.random() < 0.5 else e - adj(e)
    size = 10.0 ** rng.uniform(-10.5, -9.6) * np.linalg.norm(m)
    return size / np.linalg.norm(part) * part


def _draw(rng, seed):
    """A random graded system of sector dims 1-6, conjugated or not, and
    its charges: the complex one, or the real pair taken from it."""
    dim_b, dim_f = (int(d) for d in rng.integers(1, 7, size=2))
    s = random_graded_system(dim_b, dim_f, seed, conjugate=bool(rng.random() < 0.5))
    q = s.charges[0]
    return s, (real_from_complex(q) if rng.random() < 0.5 else (q,))


@functools.lru_cache(maxsize=None)
def _systems():
    """Each graded single-charge system that validates with its defect."""
    rng = np.random.default_rng(31)
    out = []
    for seed in range(_CASES):
        s, charges = _draw(rng, seed)
        ops = [s.hamiltonian, charges[0], s.involution.matrix]
        target = int(rng.integers(3))
        ops[target] = ops[target] + _defect(rng, ops[target])
        h, q, k = ops
        validate = (validate_graded_real_system if len(charges) == 2
                    else validate_graded_complex_system)
        try:
            out.append(validate(h, k, [q]))
        except ValidationError:
            pass
    return out


@functools.lru_cache(maxsize=None)
def _pairs():
    """Each real pair ``(Q1, Q2)`` that validates with its H after a
    defect on Q1, on Q2 or on both."""
    rng = np.random.default_rng(32)
    out = []
    for seed in range(_CASES):
        s, _ = _draw(rng, seed)
        charges = [c + _defect(rng, c) if hit else c
                   for c, hit in zip(real_from_complex(s.charges[0]),
                                     [(1, 0), (0, 1), (1, 1)][rng.integers(3)])]
        try:
            out.append(validate_real_system(s.hamiltonian, charges).charges)
        except ValidationError:
            pass
    return out


def test_corpus_straddles_the_tolerances():
    assert 0.2 * _CASES < len(_systems()) < 0.8 * _CASES
    assert 0.2 * _CASES < len(_pairs()) < 0.8 * _CASES


def test_a_validated_system_reaches_both_reports():
    refused = []
    for system in _systems():
        try:
            standard_representation(system)
            witten_index_report(system)
            spectral_pairing_report(system)
        except PairingError:
            pass
        except ValidationError as exc:
            refused.append(str(exc))
    assert refused == []


def test_a_validated_pair_shares_its_kernel():
    refused = []
    for pair in _pairs():
        try:
            kernel_equality_check(*pair)
        except ValidationError as exc:
            refused.append(str(exc))
    assert refused == []


def _pauli_assembled(n, ax, ay):
    """``(H, K, Q)`` of the planar spin lattice on ``n x n`` sites of unit
    spacing, assembled from the fields as the model defines it:
    ``sqrt(2) Q = (p_x - a_x) (x) sigma_1 + (p_y - a_y) (x) sigma_2``
    with the periodic central difference ``p``, ``K = R (x) R (x) 1_2``
    with the site reversal ``R``, and ``H = Q^2``."""
    shift = np.zeros((n, n), dtype=complex)
    shift[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    p = -1j * (shift - shift.T) / 2.0
    eye = np.eye(n)
    q = (np.kron(np.kron(p, eye) - np.diag(ax), SIGMA1)
         + np.kron(np.kron(eye, p) - np.diag(ay), SIGMA2)) / math.sqrt(2.0)
    reverse = np.eye(n)[::-1].astype(complex)
    return q @ q, np.kron(np.kron(reverse, reverse), np.eye(2)), q


def _verdict(build):
    try:
        checks, refused = build().checks, False
    except ValidationError as exc:
        checks, refused = exc.failures, True
    return [(c.name, c.residual, c.passed) for c in checks], refused


def test_pauli_lattice_refuses_exactly_what_its_system_validation_refuses():
    rng = np.random.default_rng(33)
    verdicts = []
    for _ in range(60):
        n = int(rng.choice([5, 7]))
        fields = []
        for _ in range(2):
            # Row-major samples: the site -r is the flat index reversed.
            v = rng.normal(size=n * n)
            fields.append((v - v[::-1]) / 2.0 * 10.0 ** rng.uniform(-3, 1))
        bumped = fields[rng.integers(2)]
        bumped[rng.integers(n * n)] += 10.0 ** rng.uniform(-14, -6) * np.linalg.norm(bumped)
        h, k, q = _pauli_assembled(n, *fields)
        got = _verdict(lambda: pauli_lattice(LatticeSpec(n, 1.0), *fields))
        assert got == _verdict(lambda: validate_graded_real_system(h, k, [q]))
        verdicts.append(got[1])
    assert 0.2 * len(verdicts) < sum(verdicts) < 0.8 * len(verdicts)
