import os

import pytest

from pcldetect import blas


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process was left " + ("running" if pid == 0 else f"unreaped ({pid})"))


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test that leaves numpy's OpenBLAS on another thread count."""
    before = blas.threads()
    yield
    after = blas.threads()
    if after != before:
        pytest.fail(f"the OpenBLAS thread count was left at {after}, not {before}")
