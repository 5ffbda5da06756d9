"""The benchmark's workloads: seeded inputs, the timed op, the oracle check.

Each workload is one client in a closed loop.  ``inputs`` is generated
from the seed before timing starts; ``op`` is the timed call into the
public API and the CLI; ``check`` runs afterwards, outside the timed
region, and returns the list of problems found (empty when the op's
output is correct).  A run ends only after a multiple of ``block`` ops.
``probe_dim`` sizes the speed probe (see ``worker.SpeedProbe``) like the
workload's typical matrices.
The oracles use ``numpy.linalg``, which the package itself never calls,
and the exact, threshold-free anchor ``Tr K = dim_b - dim_f`` for the
Witten index.  See README.md for why these three workloads were chosen.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from susyqm import analysis, cli, io, models, susy
from susyqm.core import DEFAULT_POLICY, ValidationError

# Enough distinct inputs that a run never cycles through them all.
N_INPUTS = 64
# Eigenvalues may differ from LAPACK's by this share of the largest one.
EIG_RTOL = 1e-9
# Residual allowed in the relations a constructed involution must satisfy.
RELATION_RTOL = 1e-8


def _sector_eigenvalues(h, k):
    """LAPACK spectra of H restricted to the +1 and -1 eigenspaces of K."""
    w, v = np.linalg.eigh(np.asarray(k))
    sectors = []
    for basis in (v[:, w > 0], v[:, w < 0]):
        block = basis.conj().T @ np.asarray(h) @ basis
        sectors.append(np.linalg.eigvalsh(0.5 * (block + block.conj().T)))
    return sectors


def trace_index(k) -> tuple[int, float]:
    """``Tr K`` rounded to the nearest integer, with the rounding distance."""
    tr = float(np.trace(np.asarray(k)).real)
    return round(tr), abs(tr - round(tr))


def check_reports(system, pair, index, expected_index: int,
                  policy=DEFAULT_POLICY) -> list[str]:
    """Compare a pairing report and an index report with a LAPACK oracle.

    Sector eigenvalues must match ``numpy.linalg.eigvalsh``; zero-mode and
    pair counts must match the oracle's counts under the documented cutoff
    (``kernel_tol`` times the largest sector eigenvalue); the index must
    equal ``Tr K``, which must equal the index the input was built with.
    """
    problems = []
    eb, ef = _sector_eigenvalues(system.hamiltonian, system.involution.matrix)
    lam_max = max(float(np.abs(eb).max(initial=0.0)),
                  float(np.abs(ef).max(initial=0.0)))
    for sector, got, want in (("bosonic", pair.bosonic_eigenvalues, eb),
                              ("fermionic", pair.fermionic_eigenvalues, ef)):
        if len(got) != len(want):
            problems.append(f"{sector} sector has {len(got)} eigenvalues, "
                            f"oracle {len(want)}")
            continue
        err = float(np.abs(np.asarray(got) - want).max(initial=0.0))
        if err > EIG_RTOL * max(1.0, lam_max):
            problems.append(f"{sector} eigenvalues off by {err:.3e}")
    cut = policy.kernel_tol * lam_max
    zb = int(np.count_nonzero(eb <= cut))
    zf = int(np.count_nonzero(ef <= cut))
    if (pair.unpaired_bosonic_zero_modes, pair.unpaired_fermionic_zero_modes) != (zb, zf):
        problems.append(
            f"pairing report zero modes ({pair.unpaired_bosonic_zero_modes}, "
            f"{pair.unpaired_fermionic_zero_modes}), oracle ({zb}, {zf})")
    if (index.bosonic_zero_modes, index.fermionic_zero_modes) != (zb, zf):
        problems.append(
            f"index report zero modes ({index.bosonic_zero_modes}, "
            f"{index.fermionic_zero_modes}), oracle ({zb}, {zf})")
    if not len(pair.pairs) == len(eb) - zb == len(ef) - zf:
        problems.append(f"{len(pair.pairs)} pairs, oracle {len(eb) - zb} "
                        f"bosonic and {len(ef) - zf} fermionic positive modes")
    if any(gap > policy.pairing_tol for _, _, gap in pair.pairs):
        problems.append("a pair gap exceeds pairing_tol")
    tr_k, frac = trace_index(system.involution.matrix)
    if frac > 1e-6 or tr_k != expected_index:
        problems.append(f"Tr K = {tr_k} (+{frac:.1e}), built with index "
                        f"{expected_index}")
    for name, got in (("index report", index.index),
                      ("dim ker A - dim ker A^dag",
                       index.dim_kernel_a - index.dim_kernel_a_dagger),
                      ("pairing report", pair.witten_index)):
        if got != tr_k:
            problems.append(f"{name} gives index {got}, Tr K = {tr_k}")
    return problems


@dataclass(frozen=True)
class ReportResult:
    system: object
    pair: object
    index: object


def _reports(system) -> ReportResult:
    return ReportResult(system, analysis.spectral_pairing_report(system),
                        analysis.witten_index_report(system))


class LatticeIndex:
    """C07: the 101-site Dirichlet Witten lattice with ``W = +-x``."""

    SITES = 101
    SPACING = 0.15
    probe_dim = SITES
    # A run stops only after a whole number of (+x, -x) pairs, so every
    # run times both signs equally often.
    block = 2

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        # Every consecutive pair of ops holds one W = +x and one W = -x
        # (the two differ by a sweep), in an order drawn from the seed.
        self.inputs = []
        for _ in range(N_INPUTS // 2):
            self.inputs += [(float(s), self.SITES) for s in rng.permutation([1, -1])]
        self.warmup_input = (1.0, 11)

    def op(self, inp) -> ReportResult:
        sign, sites = inp
        spec = models.LatticeSpec(sites, self.SPACING, models.Boundary.DIRICHLET)
        return _reports(models.witten_model_lattice(spec, sign * spec.coordinates()))

    def check(self, inp, result: ReportResult) -> list[str]:
        # A is square, so Tr K = 0: the lattice index is 0, never the
        # continuum +-1.
        return check_reports(result.system, result.pair, result.index, 0)


class ScrambledRandom:
    """Random graded systems rotated by a dense unitary, sectors [64, 48]."""

    DIM_B = 64
    DIM_F = 48
    block = 1
    probe_dim = DIM_B + DIM_F

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        # The sector dims are fixed, so every op pays for the same
        # full-dimension grading basis; the seed draws the matrices.
        self.inputs = [(self.DIM_B, self.DIM_F, int(s))
                       for s in rng.integers(0, 2**62, N_INPUTS)]
        self.warmup_input = (6, 4, 1)

    def op(self, inp) -> ReportResult:
        dim_b, dim_f, seed = inp
        return _reports(models.random_graded_system(dim_b, dim_f, seed,
                                                    conjugate=True))

    def check(self, inp, result: ReportResult) -> list[str]:
        dim_b, dim_f, _ = inp
        return check_reports(result.system, result.pair, result.index,
                             dim_b - dim_f)


@dataclass(frozen=True)
class BatchResult:
    system: object
    q1: np.ndarray
    q2: np.ndarray
    rejected: tuple | None
    involution: np.ndarray
    loaded: object
    exits: tuple


class BatchSmall:
    """Many small systems, each taken through the whole toolkit."""

    MAX_DIM = 32
    # Odd, so that the median op of a run of whole passes is a copy of
    # the middle-sized system, not a gap between two sizes.
    POOL = 33
    # A run times whole passes over the pool, so every run sees the same
    # mix of sizes.
    block = POOL
    # Passes drawn ahead; a 25 s run makes three to five.
    PASSES = 8
    probe_dim = MAX_DIM

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        # Every pass has the same sizes, for every seed: the total dims
        # form a log-spaced ladder from 2 to 64, and the sector difference
        # cycles through 0..3 (the charge kernel's dim), as far as parity
        # and the 1..32 range allow.  The ladder ends in three systems of
        # dim 64, so that in a run of four or more passes the ten ops
        # beyond the tail percentile and the op at it all have the
        # largest size.  For each pass the seed draws which sector is the
        # larger, the matrices, the corrupted entry and the order, so
        # that each statistic of a run spans several matrices of a size.
        self.inputs = []
        for _ in range(self.PASSES):
            batch = []
            for i in range(self.POOL):
                n = round(2 * self.MAX_DIM ** min(1.0, i / (self.POOL - 3)))
                diffs = [d for d in range(4) if (n - d) % 2 == 0
                         and d < n and (n + d) // 2 <= self.MAX_DIM]
                d = diffs[i % len(diffs)] * int(rng.choice([-1, 1]))
                batch.append(((n + d) // 2, (n - d) // 2,
                              int(rng.integers(0, 2**62)), int(rng.integers(0, 2)),
                              int(rng.integers(0, n)), int(rng.integers(0, n))))
            rng.shuffle(batch)
            self.inputs += batch
        self.warmup_input = (2, 3, 1, 0, 0, 1)
        self.paths = {name: os.path.join(workdir, f"{name}.json")
                      for name in ("pair", "bad", "graded", "valid",
                                   "invalid", "index")}

    def op(self, inp) -> BatchResult:
        dim_b, dim_f, seed, which, i, j = inp
        p = self.paths
        system = models.random_graded_system(dim_b, dim_f, seed)
        h = system.hamiltonian
        k = system.involution.matrix
        q = system.charges[0]
        q1, q2 = susy.real_from_complex(q)
        susy.validate_complex_system(h, [q])
        susy.validate_graded_complex_system(h, k, [q])
        susy.validate_real_system(h, [q1, q2])
        susy.validate_graded_real_system(h, k, [q1, q2])

        # A Hermitian perturbation of one charge breaks only the
        # relations that involve it.
        bump = np.zeros_like(q1)
        scale = 1e-4 * max(1.0, float(np.abs(q1).max()))
        bump[i, j] += scale
        bump[j, i] += scale
        corrupted = [q1, q2]
        corrupted[which] = corrupted[which] + bump
        try:
            susy.validate_real_system(h, corrupted)
            rejected = None
        except ValidationError as exc:
            rejected = tuple(c.name for c in exc.failures)

        involution = susy.construct_involution(q1, q2)
        io.save_system(p["pair"], io.SystemFile(h, None, (q1, q2), False))
        io.save_system(p["bad"], io.SystemFile(h, None, tuple(corrupted), False))
        loaded = io.load_system(p["pair"])
        exits = (
            cli.main(["involution", p["pair"], "--output", p["graded"]]),
            cli.main(["validate", p["graded"], "--json", "--output", p["valid"]]),
            cli.main(["validate", p["bad"], "--json", "--output", p["invalid"]]),
            cli.main(["index", p["graded"], "--json", "--output", p["index"]]),
        )
        return BatchResult(system, q1, q2, rejected, involution.matrix,
                           loaded, exits)

    def check(self, inp, r: BatchResult) -> list[str]:
        dim_b, dim_f, _, which, _, _ = inp
        label = f"Q{which + 1}"
        d = abs(dim_b - dim_f)
        problems = []
        if not r.rejected:
            problems.append(f"corrupted {label} was accepted")
        elif not all(label in name for name in r.rejected):
            problems.append(f"corrupted {label}, but rejected {r.rejected}")

        k, q1, q2 = r.involution, r.q1, r.q2
        n = k.shape[0]
        scale = max(1.0, float(np.linalg.norm(q1)))
        for name, res in (
                ("K self-adjoint", k - k.conj().T),
                ("K^2 = 1", k @ k - np.eye(n)),
                ("{K,Q1} = 0", k @ q1 + q1 @ k),
                ("{K,Q2} = 0", k @ q2 + q2 @ k),
                ("Q2 = -iKQ1", q2 + 1j * (k @ q1))):
            if np.linalg.norm(res) > RELATION_RTOL * scale * n:
                problems.append(f"constructed involution violates {name}")
        tr_k, frac = trace_index(k)
        if frac > 1e-6 or tr_k != d:
            problems.append(f"Tr K = {tr_k} for a charge kernel of dim {d}")

        if not (r.loaded.involution is None and not r.loaded.complex_charges
                and np.array_equal(r.loaded.hamiltonian, r.system.hamiltonian)
                and len(r.loaded.charges) == 2
                and all(np.array_equal(a, b) for a, b in zip(r.loaded.charges, (q1, q2)))):
            problems.append("JSON round trip changed the system")

        if r.exits != (0, 0, 1, 0):
            problems.append(f"CLI exit codes {r.exits}, expected (0, 0, 1, 0)")
            return problems
        out = {}
        for name in ("graded", "valid", "invalid", "index"):
            with open(self.paths[name], encoding="utf-8") as handle:
                out[name] = json.load(handle)
        kk = out["graded"]["K"]
        cli_k = np.array([complex(re, im) for re, im in kk["entries"]]).reshape(kk["dim"], -1)
        if not np.allclose(cli_k, k, rtol=0.0, atol=RELATION_RTOL):
            problems.append("CLI involution differs from the library's")
        if out["valid"].get("valid") is not True:
            problems.append("CLI rejected the graded system")
        bad = out["invalid"]
        if bad.get("valid") is not False or not bad.get("failures") or not all(
                label in f["name"] for f in bad["failures"]):
            problems.append(f"CLI verdict on corrupted {label}: {bad}")
        idx = out["index"]
        if (idx["witten_index"] != tr_k or idx["bosonic_zero_modes"]
                - idx["fermionic_zero_modes"] != tr_k):
            problems.append(f"CLI index {idx}, Tr K = {tr_k}")
        return problems


WORKLOADS = {
    "lattice_index": LatticeIndex,
    "scrambled_random": ScrambledRandom,
    "batch_small": BatchSmall,
}
