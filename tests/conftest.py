import os

import pytest

from pcldetect import native


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
def no_file_descriptor_left():
    """Fail a test that leaves more file descriptors open than it found, such
    as a forgotten end of a helper process's pipe; no check where the
    platform has no /proc/self/fd."""
    fds = "/proc/self/fd"
    if not os.path.isdir(fds):
        yield
        return
    before = len(os.listdir(fds))
    yield
    after = len(os.listdir(fds))
    if after > before:
        pytest.fail(f"{after - before} file descriptor(s) were left open")


@pytest.fixture(autouse=True)
def blas_threads_unchanged():
    """Fail a test that leaves numpy's OpenBLAS on another thread count."""
    before = native.threads()
    yield
    after = native.threads()
    if after != before:
        pytest.fail(f"the OpenBLAS thread count was left at {after}, not {before}")
