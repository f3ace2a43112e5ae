"""Fixed reference kernels that measure how fast the machine runs right now.

The benchmark's host is a virtual machine on a shared server: for stretches
of seconds to minutes every computation on it runs up to ~50% slower, and
CPU time slows with wall time, so the slowdown is not descheduling. A timed
round is therefore reported in *reference seconds*: its wall time scaled by
the kernels' nominal time over the time they took right before and right
after it. The kernels do not call the library, so a change to the library
moves the round time and leaves the kernels alone.

The slowdown hits two kinds of work by different amounts, so there are two
kernels, and each workload names the ones that resemble its own work:

- ``vector``: twice an exp and a reduction over 64 rows of p = 4093 values,
  with fresh 2 MB temporaries each time, like soft demodulation's blocks;
- ``interpreter``: a loop of operations on 16-element arrays, bound by the
  interpreter like the per-message chain and the games.
"""

from __future__ import annotations

import time

import numpy as np

# nominal time of each kernel, within the range of its median time on the
# reference machine (2 vCPUs of an Intel Xeon at 2.1 GHz) from hour to hour;
# only its ratio to the measured time matters
NOMINAL_S = {"vector": 0.0045, "interpreter": 0.0035}

_ROWS = np.random.default_rng(0).standard_normal((64, 4093))
_VEC = np.random.default_rng(1).standard_normal(16)


def _vector() -> None:
    for _ in range(2):
        np.exp(_ROWS - _ROWS.max(axis=1, keepdims=True)).sum(axis=1)


def _interpreter() -> None:
    x = _VEC
    for _ in range(1500):
        x = x * 0.5 + 1.0
        x.sum()


_KERNELS = {"vector": _vector, "interpreter": _interpreter}


def nominal_seconds(kernels: tuple[str, ...]) -> float:
    return sum(NOMINAL_S[name] for name in kernels)


def reference_seconds(kernels: tuple[str, ...]) -> float:
    """Wall time of one pass of each of the named kernels."""
    t0 = time.perf_counter()
    for name in kernels:
        _KERNELS[name]()
    return time.perf_counter() - t0
