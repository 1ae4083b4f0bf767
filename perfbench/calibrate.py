"""A fixed reference kernel that tracks how fast the host runs right now.

The shared 2-core hosts this benchmark was tuned on switch between a
fast and a slow state (about 1.5x apart) for stretches of seconds to
minutes, which no amount of averaging inside one run removes. Every
timed call and set-up probe is therefore followed by this kernel, run
on as many processes as the workload keeps busy, and times are
reported scaled to a host on which the kernel takes
:data:`REFERENCE_S`: ``scaled = measured * REFERENCE_S / kernel``. The
kernel mixes interpreter work with small dense linear algebra, like the
program, and never touches ``repro``, so no change to the program can
change it.
"""

from __future__ import annotations

import os
import statistics
import struct
import time

__all__ = ["REFERENCE_S", "kernel_seconds"]

#: The kernel's time in the fast state of a 2-core x86-64 host
#: (OpenBLAS, one thread); scaled times read as if taken there.
REFERENCE_S = 0.016


def _kernel(repeats: int) -> float:
    import numpy as np

    grid = np.arange(64 * 64, dtype=float).reshape(64, 64)
    matrix = np.sin(grid) @ np.sin(grid).T
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        total = 0
        for i in range(60000):
            total += i * i
        for _ in range(60):
            np.linalg.eigh(matrix)
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def kernel_seconds(processes: int = 1, repeats: int = 5) -> float:
    """Median wall time of the reference kernel over ``repeats`` runs.

    With ``processes=2`` a forked twin runs the kernel at the same time
    and the two times are averaged: a workload that keeps both cores
    busy runs at the speed of both, not of whichever core the caller
    happens to be on.
    """
    if processes == 1:
        return _kernel(repeats)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:
            os.write(write, struct.pack("d", _kernel(repeats)))
        finally:
            os._exit(0)
    os.close(write)
    try:
        own = _kernel(repeats)
        twin = struct.unpack("d", os.read(read, 8))[0]
    finally:
        os.close(read)
        os.waitpid(pid, 0)
    return (own + twin) / 2
