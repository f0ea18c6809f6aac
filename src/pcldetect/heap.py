"""Keep the memory a training step or a prediction batch frees in glibc's heap.

A step allocates and frees the same few megabytes of arrays over and over.
By default glibc serves the larger ones with fresh `mmap`s and hands the
heap's free top back to the kernel once it passes a threshold that moves
with the program's history, so the next step faults the same pages in
again, and the time of a fold follows its fault count. `keep_freed_memory`
fixes both thresholds with `mallopt`, so blocks below 32 MiB come from the
heap and up to 1 GiB of free heap top stays mapped.

glibc has no getter for these settings, so they cannot be restored, and
setting them turns off glibc's dynamic thresholds for the rest of the
process: the policy stays in force after the call, in the caller and in any
child it forks. Where `mallopt` is missing (another C library), it does
nothing.
"""

from __future__ import annotations

import ctypes
import functools

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # where glibc's dynamic threshold stops growing on 64-bit systems
TRIM_THRESHOLD = 1 << 30


@functools.cache
def _mallopt():
    """The C library's `mallopt`, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def keep_freed_memory() -> None:
    """Serve blocks below `MMAP_THRESHOLD` from the heap and keep up to
    `TRIM_THRESHOLD` of free heap top mapped, for the rest of the process."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
