"""One BLAS thread while pcldetect runs its own parallelism.

Training and prediction run forked children (`trainer._Child`) beside
the calling process, so the cores belong to those processes: BLAS threads
on top of them compete for the same cores. `one_thread` sets numpy's
bundled OpenBLAS (`numpy.libs/libscipy_openblas64_-*.so`) to one thread
for its body. Where numpy uses another BLAS, it does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from pathlib import Path

import numpy as np


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
def one_thread():
    """Run the body (or, as a decorator, the function) with one OpenBLAS
    thread, and restore the previous count after it, also on error."""
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
