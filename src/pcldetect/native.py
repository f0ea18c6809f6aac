"""The process state that training and prediction run under.

`Child` is the one lifecycle and fork policy of every forked child. `compute`
is the one guard that `train_fold` and `predict_records` enter:

- One BLAS thread. Training and prediction run forked children
  (`Child`) beside the calling process, so the cores belong to
  those processes, and BLAS threads on top of them compete for the same
  cores. `compute` sets numpy's bundled OpenBLAS
  (`numpy.libs/libscipy_openblas64_-*.so`) to one thread for its body and
  restores the previous count after it; with another BLAS it does nothing.
- Freed memory stays in glibc's heap. A step allocates and frees the same
  few megabytes of arrays over and over. By default glibc serves the larger
  ones with fresh `mmap`s and hands the heap's free top back to the kernel
  past a threshold that moves with the program's history, so the next step
  faults the same pages in again, and the time of a fold follows its fault
  count. `compute` fixes both thresholds with `mallopt`: blocks below
  32 MiB come from the heap and up to 1 GiB of free heap top stays mapped.
  glibc has no getter for these settings, so they cannot be restored, and
  setting them turns off glibc's dynamic thresholds for the rest of the
  process: the policy stays in force after the body, in the caller and in
  any child it forks. Without `mallopt` (another C library) it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import mmap
import os
import signal
import threading
from pathlib import Path

import numpy as np

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # where glibc's dynamic threshold stops growing on 64-bit systems
TRIM_THRESHOLD = 1 << 30

logger = logging.getLogger(__name__)


@functools.cache
def _mallopt():
    """The C library's `mallopt`, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _thread_count_calls():
    """(get, set) of the bundled OpenBLAS's thread count, or None without it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def threads() -> int | None:
    """The bundled OpenBLAS's thread count, or None where numpy uses another BLAS."""
    calls = _thread_count_calls()
    return None if calls is None else calls[0]()


@contextlib.contextmanager
def compute():
    """Keep blocks below `MMAP_THRESHOLD` and up to `TRIM_THRESHOLD` of free
    heap top in the heap, for the rest of the process, and run the body (or,
    as a decorator, the function) with one OpenBLAS thread, restoring the
    previous count after it, also on error."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    calls = _thread_count_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


class Child:
    """Work that a forked child does while this process goes on, if it may.

    It forks only if `os.fork` exists, `_cores() >= 2`, one thread runs (a
    fork copies only the calling thread), this process is not itself a
    forked child and no fork of this process was refused; otherwise `pid`
    is None. The child runs `work(shared)`, where `shared` is an anonymous
    mapping of `size` bytes that it writes its result into, and leaves
    through `os._exit`, with status 0 only if `work` returned, so no handler
    or buffer of this process runs twice. `result()` waits for the child and
    returns the mapping; if nothing forked or the child did not exit 0,
    `work` runs here instead, so an error is raised with its own type.
    `close()` kills and reaps a child not waited for and drops `work`, which
    may refer to the child's owner. The mapping is freed with its last
    reference, as a raised error may hold a view of it.
    """

    barred = False  # True in a forked child, and here once a fork was refused

    def __init__(self, name: str, work, size: int):
        self.name, self.work, self.shared = name, work, mmap.mmap(-1, size)
        self.pid = None
        if (Child.barred or not hasattr(os, "fork") or _cores() < 2
                or threading.active_count() > 1):
            return
        try:
            self.pid = os.fork()
        except OSError as exc:
            Child.barred = True
            logger.warning("the %s could not fork (%s); its work runs in process, and "
                           "nothing else in this process will fork", name, exc)
            return
        if self.pid == 0:
            Child.barred, code = True, 1
            try:
                work(self.shared)
                code = 0
            finally:
                os._exit(code)

    def result(self):
        if self.pid is not None:
            status = os.waitpid(self.pid, 0)[1]
            self.pid = None
            if status == 0:
                return self.shared
            logger.warning("the %s ended with wait status %d; its work runs in process",
                           self.name, status)
        self.work(self.shared)
        return self.shared

    def close(self) -> None:
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.work = None
