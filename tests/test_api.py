import inspect

import latfold

# The package's public functions, classes and constants. Adding or removing
# a public name means editing this list.
PUBLIC_API = [
    "A2", "ConfigurationError", "DN", "DegenerateSignalError", "E8",
    "EquivalentGains", "ExperimentConfig", "ExperimentResult", "FAMILIES",
    "NonFiniteInputError", "OobOperator", "RecoveryNumericalError",
    "RecoveryResult", "ScaledLattice", "SecondMomentEstimate", "SignalConfig",
    "UnsupportedLatticeError", "ZN", "add_noise", "b2r2_recover",
    "build_oob_operator", "check_recovery", "emit_tables", "emit_trajectory_demo",
    "equivalent_gains", "estimate_second_moment", "fold", "fold_iterative",
    "fold_signal", "folds_to_zero", "hod_recover", "in_voronoi_cell",
    "is_lattice_point", "lasso_b2r2_recover", "lattice_quantize", "make_lattice",
    "make_test_signal", "mse_ratio", "nearest_point", "predicted_mse",
    "quantize_bench", "relevant_vectors", "run_sweep", "sample_uniform_cell",
    "scalar_quantize", "snap_to_lattice", "table1_report", "table3_config",
    "table4_config", "voronoi_cell_polygon",
]

# The channel and recovery stages take and return (K, n) sample arrays; the
# lattice and the solver settings are plain arguments.
PIPELINE_SIGNATURES = {
    "fold_signal": ["f", "lattice"],
    "add_noise": ["y", "snr_db", "seed", "law"],
    "scalar_quantize": ["y", "bits", "lam"],
    "lattice_quantize": ["y", "lattice", "bits"],
    "hod_recover": ["y", "lattice", "order"],
    "b2r2_recover": ["y", "lattice", "oob", "support_margin", "bound"],
    "lasso_b2r2_recover": ["y", "lattice", "oob", "mu", "max_iters"],
    "check_recovery": ["p_hat", "p_true", "lattice"],
}


def test_public_api():
    assert sorted(latfold.__all__) == PUBLIC_API


def test_pipeline_signatures():
    for name, params in PIPELINE_SIGNATURES.items():
        assert list(inspect.signature(getattr(latfold, name)).parameters) == params, name
