"""A fixed pure-Python kernel that measures how fast the host is right now.

On a shared virtual machine the same code runs up to 1.5x slower in some
tens of seconds than in others, and process CPU time slows with it, so
no wall or CPU time taken over one run is steady from run to run. The
benchmark therefore times this kernel next to every operation and scales
each operation's time by REF_NOMINAL_S / (the kernel's time beside it):
a reported time is what the operation would take on a host where the
kernel takes REF_NOMINAL_S. A change to zeonalg moves the operation and
not the kernel, so it moves the reported time by the same share.

The kernel is the blade-convolution product of two fixed dense elements
on five generators, written on plain dicts as zeonalg's own product is,
so it slows with the host the way zeonalg's arithmetic does. Nothing
here imports zeonalg.
"""

from __future__ import annotations

import random
import time

REF_NOMINAL_S = 0.0025   # the kernel's time on this benchmark's reference host, fast state
# A process start (fork, exec, loading the interpreter) slows with the host
# differently from Python code, so a time that is mostly process start is
# scaled by a bare `python -S -c pass` process instead, started beside it
# (run.py); this is that process's time on the reference host.
REF_SPAWN_NOMINAL_S = 0.012
_REPEATS = 36

_rng = random.Random(20220123)
_A = {mask: complex(_rng.uniform(-1, 1), _rng.uniform(-1, 1)) for mask in range(32)}
_B = {mask: complex(_rng.uniform(-1, 1), _rng.uniform(-1, 1)) for mask in range(32)}


def _kernel() -> dict:
    out: dict = {}
    for _ in range(_REPEATS):
        out = {}
        get = out.get
        for i, x in _A.items():
            for j, y in _B.items():
                if i & j:
                    continue
                k = i | j
                out[k] = get(k, 0j) + x * y
    return out


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    t0, c0 = time.perf_counter(), time.process_time()
    _kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def reference_median(count: int) -> float:
    """Median wall seconds over `count` kernel runs."""
    return sorted(reference()[0] for _ in range(count))[count // 2]
