"""Package-wide contracts: the pinned public name list, which refactors
keep, each name written in one module's ``__all__`` and re-exported as
the same object, and the rule that the package makes no LAPACK calls."""

import ast
from pathlib import Path

import susyqm
from susyqm import analysis, core, grading, models, spectral, susy

MODULES = (core, spectral, grading, susy, analysis, models)

PUBLIC_NAMES = [
    "Boundary", "ConvergenceError", "CrossCheckError", "DEFAULT_POLICY",
    "EigenDecomposition", "GradedSystem", "GradingBasis", "Involution",
    "KernelBasis", "KernelEqualityReport", "LatticeSpec", "Lcg",
    "NumericPolicy", "PairingError", "PairingSign", "Parity",
    "RelationCheck", "SIGMA1", "SIGMA2", "SIGMA3", "ShapeError",
    "SpectralReport", "StandardRepresentation", "SuperchargeSystem",
    "ValidationError", "WittenIndexReport", "adjoint", "anticommutator",
    "as_operator", "block_extract", "build_model", "charges_from_parts",
    "check_pairing_relation", "classify_operator", "commutator",
    "complex_from_real", "construct_involution", "decompose_vector", "eigh",
    "eigvalsh", "fermionic_ladder", "free_particle_lattice", "grading_basis",
    "hamiltonian_from_parts", "hermitian_parts", "index_range",
    "inverse_on_complement", "is_hermitian", "jacobi_backend",
    "kernel_basis", "kernel_equality_check", "pauli_lattice", "projectors",
    "random_graded_system", "real_from_complex", "rel_residual",
    "reparametrize", "residual_norm", "second_supercharge",
    "spectral_pairing_report", "standard_representation",
    "tensor_supercharge", "validate_complex_system",
    "validate_graded_complex_system", "validate_graded_real_system",
    "validate_involution", "validate_real_system", "witten_index",
    "witten_index_report", "witten_model_lattice",
]


def test_public_names_are_pinned():
    assert sorted(susyqm.__all__) == PUBLIC_NAMES


def test_each_public_name_is_written_once():
    # The package's list is the union of its modules' lists, with no
    # name in two of them.
    assert sorted(name for module in MODULES for name in module.__all__) == PUBLIC_NAMES


def test_module_names_are_the_package_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(susyqm, name) is getattr(module, name), name


def test_package_makes_no_lapack_calls():
    # numpy.linalg is a test-only oracle; inside the package only its
    # norm (no LAPACK) may appear.
    offending = []
    for path in sorted(Path(susyqm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        norm_uses = {id(node.value) for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and node.attr == "norm"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                if id(node) not in norm_uses:
                    offending.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = {alias.name for alias in node.names}
                if ((node.module.startswith("numpy.linalg") and names != {"norm"})
                        or (node.module == "numpy" and "linalg" in names)):
                    offending.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Import):
                if any(alias.name.startswith("numpy.linalg")
                       for alias in node.names):
                    offending.append(f"{path.name}:{node.lineno}")
    assert offending == []
