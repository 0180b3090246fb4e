"""Lattice-modulo folding and recovery of multichannel bandlimited signals."""

import os as _os

# One BLAS/OpenMP thread, set before numpy loads; a value already set wins.
# Extra BLAS threads spin on the small products and solves here: on 2 cores
# they made the additive sweep take 1.12-1.29x the wall and 2.3x the CPU
# time, and serial table1 1.6x its wall time in CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _var

from types import ModuleType as _ModuleType

from .lattices import (A2, DN, E8, FAMILIES, ZN, ConfigurationError,
                       InputRangeError, NonFiniteInputError, ScaledLattice,
                       UnsupportedLatticeError, fold, fold_iterative,
                       folds_to_zero, in_voronoi_cell, is_lattice_point,
                       make_lattice, nearest_point, relevant_vectors,
                       snap_to_lattice, voronoi_cell_polygon)
from .moments import (EquivalentGains, SecondMomentEstimate, equivalent_gains,
                      estimate_second_moment, mse_ratio, predicted_mse,
                      sample_uniform_cell, table1_report)
from .signals import DegenerateSignalError, SignalConfig, make_test_signal
from .channels import add_noise, fold_signal, lattice_quantize, scalar_quantize
from .recovery import (OobOperator, RecoveryNumericalError, RecoveryResult,
                       b2r2_recover, build_oob_operator, check_recovery,
                       hod_recover, lasso_b2r2_recover)
from .experiments import (ExperimentConfig, ExperimentResult, emit_tables,
                          emit_trajectory_demo, quantize_bench, run_sweep,
                          table3_config, table4_config)

# the names imported above; the submodules they bind are not part of the API
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
