import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive, as a pool not shut down
    would: the command line and the benchmark must end with nothing running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"
