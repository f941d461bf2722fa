"""Suite-wide checks."""

import multiprocessing

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
