"""Suite-wide checks."""

import multiprocessing
import os

# One BLAS thread, set before numpy loads, as perfbench/run.py does. The
# heavy numerics ops already split their rows onto a helper thread, and the
# training loader process takes its share of the cores too, so a second
# OpenBLAS thread would only compete with them for the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest


@pytest.fixture(autouse=True)
def no_live_child_process():
    """Fail a test that leaves a child process running (the training loader
    must end on every exit path). Leftovers are ended here, so one leak is
    reported once."""
    yield
    live = multiprocessing.active_children()
    for child in live:
        child.terminate()
        child.join()
    assert not live, f"the test left live child processes: {live}"
