import latfold

# The package's public names. ``__all__`` is built from the package namespace,
# so it also lists the submodules that ``latfold/__init__.py`` imports from.
# Adding or removing a public name means editing this list.
PUBLIC_API = [
    "A2", "B2R2Options", "ConfigurationError", "DN", "DegenerateSignalError",
    "E8", "EquivalentGains", "ExperimentConfig", "ExperimentResult", "FAMILIES",
    "FoldedRecord", "LassoOptions", "NonFiniteInputError", "OobOperator",
    "RecoveryCheck", "RecoveryNumericalError", "RecoveryResult", "ScaledLattice",
    "SecondMomentEstimate", "SignalConfig", "UnsupportedLatticeError", "ZN",
    "add_noise", "b2r2_recover", "build_oob_operator", "channels",
    "check_recovery", "emit_tables", "emit_trajectory_demo", "equivalent_gains",
    "estimate_second_moment", "experiments", "fold", "fold_iterative",
    "fold_signal", "folds_to_zero", "hod_recover", "in_voronoi_cell",
    "is_lattice_point", "lasso_b2r2_recover", "lattice_quantize", "lattices",
    "make_lattice", "make_test_signal", "moments", "mse_ratio", "nearest_point",
    "predicted_mse", "quantize_bench", "recovery", "relevant_vectors",
    "run_sweep", "sample_uniform_cell", "scalar_quantize", "signals",
    "snap_to_lattice", "table1_report", "table3_config", "table4_config",
    "voronoi_cell_polygon",
]


def test_public_api():
    assert sorted(latfold.__all__) == PUBLIC_API
