"""Batch command line: validate, transform and analyze system files.

Exit codes: 0 success, 1 validation failure, 2 unreadable or malformed
input, 3 internal cross-check failure.  The verbs mirror the library
API; ``susyqm <verb> --help`` lists the verb-specific flags.  Every verb
that reads a system validates the whole file, every charge against the
file's own H, before it acts; ``index``, ``pair``, ``spectrum`` and
``repr`` then read its first charge only.  ``involution`` writes only a
graded file that ``validate`` accepts against the file's own H (the
construction itself validates against ``Q1^2``).  ``validate --json``
writes a residual that overflowed as ``null``.  The verdicts of every
verb are asserted in ``tests/test_io_cli.py``.

Exit 3 from ``pair`` or ``index`` on a validated file is a verdict on
the input, not a fault of the package: the validation accepts each
sector block of H within ``algebra_tol`` of ``A^dag A`` or ``A A^dag``.
Partners must match within ``pairing_tol`` (see
:func:`~susyqm.analysis.spectral_pairing_report`), so a small
eigenvalue whose block residual moves it further from its partner is
an orphan.  The sector zero cut is widened by the same residuals (see
:func:`~susyqm.analysis.witten_index_report`), so a small eigenvalue can
count as zero in one sector while its partner, moved up by the
residual, does not; the sector count then leaves ``Tr K``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys

from . import io
from .analysis import (
    PairingError,
    _sector_analysis,
    spectral_pairing_report,
    witten_index_report,
)
from .core import (
    CrossCheckError,
    NumericPolicy,
    ShapeError,
    ValidationError,
)
from .models import build_model
from .susy import _validate, construct_involution, standard_representation

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_INTERNAL = 3


# The tolerance flags: ``--tol-NAME`` (``args.tol_NAME``) overrides the
# policy's ``NAME_tol``; each verb takes all three.
_TOLERANCES = {
    "algebra": "override the algebra residual tolerance",
    "kernel": "override the kernel detection tolerance",
    "pairing": "override the eigenvalue pairing tolerance",
}


def _policy_from_args(args) -> NumericPolicy:
    return NumericPolicy(**{f"{name}_tol": value for name in _TOLERANCES
                            if (value := getattr(args, f"tol_{name}")) is not None})


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _checks_table(checks) -> str:
    width = max(len(c.name) for c in checks)
    lines = [
        f"{c.name.ljust(width)}  residual {c.residual:.3e}  "
        f"tolerance {c.tolerance:.1e}  {'pass' if c.passed else 'FAIL'}"
        for c in checks
    ]
    return "\n".join(lines) + "\n"


def _check_obj(check, **extra) -> dict:
    """A :class:`~susyqm.core.RelationCheck` as ``validate --json``
    writes it, with ``extra`` fields: a residual that overflowed to an
    infinity or a NaN, which JSON cannot write, is ``None`` (JSON
    ``null``)."""
    residual = check.residual if math.isfinite(check.residual) else None
    return {"name": check.name, "tolerance": check.tolerance,
            "residual": residual, **extra}


def _graded_single_charge(path, policy: NumericPolicy):
    sf = io.load_system(path)
    if sf.involution is None:
        raise io.FormatError("this verb needs a grading operator: the "
                             "system file has \"K\": null")
    system = _validate(sf.hamiltonian, sf.charges, sf.involution,
                       sf.complex_charges, policy)
    # Spectral verbs act on a single charge; the first one is used.
    return dataclasses.replace(system, charges=system.charges[:1])


def _cmd_validate(args, policy) -> int:
    sf = io.load_system(args.input)
    try:
        system = _validate(sf.hamiltonian, sf.charges, sf.involution,
                           sf.complex_charges, policy)
    except ValidationError as exc:
        if args.json:
            _emit(args, io.dump_json({
                "valid": False,
                "failures": [_check_obj(c) for c in exc.failures]}))
        else:
            _emit(args, f"INVALID: {exc}\n")
        return EXIT_INVALID
    if args.json:
        _emit(args, io.dump_json({
            "valid": True,
            "checks": [_check_obj(c, passed=c.passed) for c in system.checks]}))
    else:
        _emit(args, _checks_table(system.checks) + "VALID\n")
    return EXIT_OK


def _cmd_involution(args, policy) -> int:
    sf = io.load_system(args.input)
    if sf.involution is not None:
        raise io.FormatError("input already carries a grading operator")
    if sf.complex_charges or len(sf.charges) != 2:
        raise io.FormatError("involution construction needs exactly two "
                             "real charges")
    # construct_involution validates against Q1^2, never the file's own
    # H: the pair is judged against H before the construction, and the
    # graded system after it, so only a file validate accepts is written.
    _validate(sf.hamiltonian, sf.charges, policy=policy)
    involution = construct_involution(
        sf.charges[0], sf.charges[1], d_plus=args.d_plus, policy=policy)
    graded = _validate(sf.hamiltonian, sf.charges, involution, False, policy)
    _emit(args, io.dump_json(io.system_to_obj(graded)))
    return EXIT_OK


def _cmd_index(args, policy) -> int:
    system = _graded_single_charge(args.input, policy)
    report = witten_index_report(system, policy)
    if args.json:
        _emit(args, io.dump_json(io.report_to_obj(report)))
    else:
        _emit(args,
              f"witten index: {report.index}\n"
              f"  dim ker A - dim ker A^dag      = {report.dim_kernel_a} - "
              f"{report.dim_kernel_a_dagger}\n"
              f"  bosonic - fermionic zero modes = {report.bosonic_zero_modes}"
              f" - {report.fermionic_zero_modes}\n")
    return EXIT_OK


def _cmd_spectrum(args, policy) -> int:
    system = _graded_single_charge(args.input, policy)
    sectors = _sector_analysis(system, policy)
    ev_b, ev_f = sectors.ev_b.tolist(), sectors.ev_f.tolist()
    if args.json:
        _emit(args, io.dump_json({"bosonic": ev_b, "fermionic": ev_f}))
    else:
        lines = ["bosonic sector:"]
        lines += [f"  {v!r}" for v in ev_b]
        lines.append("fermionic sector:")
        lines += [f"  {v!r}" for v in ev_f]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_pair(args, policy) -> int:
    system = _graded_single_charge(args.input, policy)
    report = spectral_pairing_report(system, policy)
    if args.json:
        _emit(args, io.dump_json(io.report_to_obj(report)))
    else:
        lines = [
            f"zero modes: {report.unpaired_bosonic_zero_modes} bosonic, "
            f"{report.unpaired_fermionic_zero_modes} fermionic",
            f"witten index: {report.witten_index}",
            "pairs (bosonic idx, fermionic idx, relative gap):",
        ]
        lines += [
            f"  ({i}, {j}, {gap:.3e})  E = {report.bosonic_eigenvalues[i]!r}"
            for i, j, gap in report.pairs
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_model(args, policy) -> int:
    spec = io.load_model_spec(args.input)
    try:
        system = build_model(spec, policy)
    except (KeyError, TypeError) as exc:
        raise io.FormatError(f"model spec is missing or mistypes a field: "
                             f"{exc}") from exc
    _emit(args, io.dump_json(io.system_to_obj(system)))
    return EXIT_OK


def _cmd_repr(args, policy) -> int:
    system = _graded_single_charge(args.input, policy)
    rep = standard_representation(system, policy)
    prefix = args.output
    for suffix, block in (("a", rep.a_operator), ("h_plus", rep.h_plus),
                          ("h_minus", rep.h_minus)):
        path = f"{prefix}.{suffix}.json"
        io.save_matrix(path, block)
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    fills a fresh namespace on every call, so one parser serves every
    :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="susyqm",
        description="Validate and analyze finite-dimensional supersymmetric "
                    "systems stored as JSON files.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, help_text, needs_output_prefix=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="input file path")
        for tol, tol_help in _TOLERANCES.items():
            p.add_argument(f"--tol-{tol}", type=float, default=None,
                           help=tol_help)
        p.add_argument("--json", action="store_true",
                       help="machine-readable JSON output")
        if needs_output_prefix:
            p.add_argument("--output", required=True,
                           help="output path prefix for the block files")
        else:
            p.add_argument("--output", default=None,
                           help="write the report here instead of stdout")
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate,
        "check the defining relations of a system file")
    p_inv = add("involution", _cmd_involution,
                "construct a grading operator from two real charges")
    p_inv.add_argument("--d-plus", type=int, default=None,
                       help="number of +1 eigenvalues on the charge kernel "
                            "(default: all of them)")
    add("index", _cmd_index, "print the witten index by both formulas")
    add("spectrum", _cmd_spectrum, "print the two sector spectra")
    add("pair", _cmd_pair, "print the spectral pairing report")
    add("model", _cmd_model, "build a lattice or random model from a spec file")
    add("repr", _cmd_repr,
        "write the standard-representation blocks as matrix files",
        needs_output_prefix=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A refused tolerance is a ValueError, so it exits 2 below.
        return args.func(args, _policy_from_args(args))
    except ValidationError as exc:
        sys.stderr.write(f"validation failure: {exc}\n")
        return EXIT_INVALID
    except (CrossCheckError, PairingError) as exc:
        sys.stderr.write(f"internal cross-check failure: {exc}\n")
        return EXIT_INTERNAL
    except (io.FormatError, ShapeError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
