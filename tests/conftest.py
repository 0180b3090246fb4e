# Imported before any test module loads numpy, so the suite runs BLAS on one
# thread as `latfold` and `python -m latfold` do, and sweeps fork workers.
import latfold  # noqa: F401
