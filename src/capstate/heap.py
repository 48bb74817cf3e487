"""Process-wide allocator policy: keep freed heap pages mapped.

The stages build and free many numpy temporaries of 0.1-2 MiB. Under
glibc's default policy a freed block that large is unmapped, or trimmed from
the top of the heap, and the next allocation faults its pages in again.
"""

import ctypes

# mallopt parameter numbers, from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Blocks below this come from the heap, which keeps their pages, not from a
# fresh mmap; 32 MiB is the largest value glibc accepts on 64-bit.
MMAP_THRESHOLD_BYTES = 32 << 20
# The heap top goes back to the kernel only once this much of it is free,
# which no stage reaches, so pages freed by one step serve the next.
TRIM_THRESHOLD_BYTES = 1 << 30


def keep_heap() -> None:
    """Set both thresholds for this process. Setting either one turns off
    glibc's dynamic adjustment of both, so the other is set with it.
    Where the C library has no ``mallopt`` (macOS), or ignores it (musl),
    nothing changes and nothing is raised."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int  # 1 when set; a value glibc refuses leaves its default
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)
