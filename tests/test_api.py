"""The public name list of the package is pinned, so refactors keep it."""

import susyqm

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
