"""Lattice-modulo folding and recovery of multichannel bandlimited signals."""

import os as _os
import sys as _sys

# One BLAS/OpenMP thread, set before numpy loads; a value already set wins.
# Extra BLAS threads spin on the small products and solves here: on 2 cores
# they made the additive sweep take 1.12-1.29x the wall and 2.3x the CPU
# time, and serial table1 1.6x its wall time in CPU time.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_preset = [_os.environ.get(_var) for _var in _BLAS_VARS]
for _var in _BLAS_VARS:
    _os.environ.setdefault(_var, "1")
# Whether the pin holds: numpy loaded after every variable read 1. Only then
# does run_sweep fork its workers, each of which would otherwise spin up its
# own BLAS threads (2-7x slower cells on 2 cores).
_blas_one_thread = all(_os.environ[_var] == "1" for _var in _BLAS_VARS) and \
    ("numpy" not in _sys.modules or _preset == ["1"] * len(_BLAS_VARS))
del _var, _preset

from types import ModuleType as _ModuleType

from .lattices import (A2, DN, E8, FAMILIES, ZN, ConfigurationError,
                       InputRangeError, NonFiniteInputError, ScaledLattice,
                       UnsupportedLatticeError, fold, fold_iterative,
                       folds_to_zero, in_voronoi_cell, make_lattice,
                       nearest_point, relevant_vectors, snap_to_lattice,
                       voronoi_cell_polygon)
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
