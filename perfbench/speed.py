"""Machine-speed probe, used to rescale timings to a fixed reference speed.

On a shared machine the speed at which the interpreter runs drifts by a
third or more over tens of seconds, because other tenants compete for the
same cores and caches.  Raw wall times of identical runs then spread far
wider than any regression worth catching.

The probe is a fixed piece of interpreter-bound work (function calls,
complex arithmetic, ``cmath.log``), the same kind of work chronolog does,
but sharing no code with it.  The benchmark times the probe between chunks
of ops and multiplies each chunk's wall time by ``REFERENCE_S / probe``:
the time the chunk would have taken on a machine where the probe takes
exactly ``REFERENCE_S``.  Ops that are fresh processes are rescaled by a
probe that is a fresh process too.  A change to chronolog moves the op
times and not the probe, so it shows in full; a change in machine speed
moves both and cancels.
"""

from __future__ import annotations

import cmath
import subprocess
import sys
import time

# the probes' typical durations on the machine the bounds were set on
# (Python 3.11, 2 vCPU Xeon); any fixed values give the same ratios
REFERENCE_S = 0.004
PROCESS_REFERENCE_S = 0.04

_TERMS = 12000


def _term(z: complex, k: int) -> complex:
    return cmath.log(1 + z / k) * (1 if k % 2 else -1)


def _work() -> complex:
    acc = 0j
    z = complex(0.3, 0.7)
    for k in range(1, _TERMS):
        acc += _term(z, k)
    return acc


def probe() -> float:
    """Seconds the reference work takes right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def process_probe() -> float:
    """Seconds a fresh interpreter takes to start and do the reference work.

    The reference for ops that are themselves fresh processes: it also
    tracks the cost of starting one, which the in-process probe misses.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return time.perf_counter() - t0


if __name__ == "__main__":
    _work()
