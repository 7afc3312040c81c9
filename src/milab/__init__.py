"""Desk-scale laboratory for label-only membership inference with adaptive
data poisoning."""

__version__ = "0.1.0"

# The BLAS thread-count variables. The CLI sets each to 1 unless the caller's
# environment has it, and every run records them in run_manifest.json.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
