"""Batch command line: validate, transform and analyze system files.

Exit codes: 0 success, 1 validation failure, 2 unreadable or malformed
input, 3 internal cross-check failure.  The verbs mirror the library
API; ``susyqm <verb> --help`` lists the verb-specific flags.
"""

from __future__ import annotations

import argparse
import functools
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


def _policy_from_args(args) -> NumericPolicy:
    overrides = {}
    if args.tol_algebra is not None:
        overrides["algebra_tol"] = args.tol_algebra
    if args.tol_kernel is not None:
        overrides["kernel_tol"] = args.tol_kernel
    if args.tol_pairing is not None:
        overrides["pairing_tol"] = args.tol_pairing
    return NumericPolicy(**overrides)


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


def _graded_single_charge(path, policy: NumericPolicy):
    sf = io.load_system(path)
    if sf.involution is None:
        raise io.FormatError("this verb needs a grading operator: the "
                             "system file has \"K\": null")
    # Spectral verbs act on a single charge; the first one is used.
    return _validate(sf.hamiltonian, sf.charges[:1], sf.involution,
                     sf.complex_charges, policy)


def _cmd_validate(args, policy) -> int:
    sf = io.load_system(args.input)
    try:
        system = _validate(sf.hamiltonian, sf.charges, sf.involution,
                           sf.complex_charges, policy)
    except ValidationError as exc:
        if args.json:
            _emit(args, io.dump_json({
                "valid": False,
                "failures": [
                    {"name": c.name, "residual": c.residual,
                     "tolerance": c.tolerance}
                    for c in exc.failures
                ],
            }))
        else:
            _emit(args, f"INVALID: {exc}\n")
        return EXIT_INVALID
    if args.json:
        _emit(args, io.dump_json({
            "valid": True,
            "checks": [
                {"name": c.name, "residual": c.residual,
                 "tolerance": c.tolerance, "passed": c.passed}
                for c in system.checks
            ],
        }))
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
    involution = construct_involution(
        sf.charges[0], sf.charges[1], d_plus=args.d_plus, policy=policy)
    augmented = io.SystemFile(sf.hamiltonian, involution.matrix,
                              sf.charges, False)
    _emit(args, io.dump_json(io.system_to_obj(augmented)))
    return EXIT_OK


def _cmd_index(args, policy) -> int:
    system = _graded_single_charge(args.input, policy)
    report = witten_index_report(system, policy)
    if args.json:
        _emit(args, io.dump_json({
            "witten_index": report.index,
            "dim_kernel_a": report.dim_kernel_a,
            "dim_kernel_a_dagger": report.dim_kernel_a_dagger,
            "bosonic_zero_modes": report.bosonic_zero_modes,
            "fermionic_zero_modes": report.fermionic_zero_modes,
        }))
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
        p.add_argument("--tol-algebra", type=float, default=None,
                       help="override the algebra residual tolerance")
        p.add_argument("--tol-kernel", type=float, default=None,
                       help="override the kernel detection tolerance")
        p.add_argument("--tol-pairing", type=float, default=None,
                       help="override the eigenvalue pairing tolerance")
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
        policy = _policy_from_args(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    try:
        return args.func(args, policy)
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
