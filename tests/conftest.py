import ctypes
import glob
import multiprocessing
import os

import pytest


def _host():
    """The host's numeric kernels: the golden hashes depend on numpy's SIMD
    dispatch and on OpenBLAS's core as well as on the pinned builds."""
    import numpy as np

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    simd = [group for group in umath.__cpu_dispatch__ if umath.__cpu_features__.get(group)]
    core = "unknown"
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return f"numpy {np.__version__}, SIMD dispatch {' '.join(simd) or 'none'}, OpenBLAS core {core}"


def pytest_report_header(config):
    return _host()


def pytest_terminal_summary(terminalreporter, config):
    if config.get_verbosity() < 0:  # -q hides the report header
        terminalreporter.write_line(_host())


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process alive, as a pool not shut down
    would: the command line and the benchmark must end with nothing running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"processes left running: {left}"
