"""Desk-scale supervised ViT training recipe, self-contained on numpy."""

import os

# One BLAS thread unless the caller chose a count, set before numpy loads:
# OpenBLAS's threaded gemm sums a weight gradient's rows in other pieces
# than its one-thread gemm. `numerics` splits the heavy ops itself instead.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
