"""Host-speed calibration kernels.

The benchmark runs on shared hosts whose speed changes by up to ~1.6x
within seconds and stays changed for minutes (measured on a 2-vCPU
x86-64 VM: the same fixed loop took 11 ms or 18 ms depending on
neighbouring load). A median over one run cannot remove a change that
lasts the whole run, so the benchmark times a fixed kernel between its
children and expresses each child's timings in reference seconds:

    reference seconds = measured seconds * REF_KERNEL_S / kernel time

where the kernel time is the median of the kernel runs just before and
just after the child: the time the child would have taken on a host
where the kernel takes REF_KERNEL_S (10 ms, set in `run.py`). The
kernels are independent of the package, so a change to the package
moves the reference timings exactly as it moves the measured ones.

A slower host does not slow every kind of work alike, so each workload
names the kernel whose time moved with its own (interleaved runs on the
VM above; the log-log slope of workload time on kernel time was 0.98
for `python` against the stabilizer workloads, 1.02 for `numpy` against
index-sampling purification, and 1.5 and 0.6 for the crossed pairs):

- python: interpreted loop on a dict and ints, like the stabilizer
  engine's Python-level bookkeeping;
- numpy: vectorized index sampling and table lookups on arrays larger
  than the L2 cache, like the Bell-index Monte Carlo engines.

    python3 bench/calib.py <kernel>

runs the kernel once untimed, then for each line read from standard
input prints a JSON list of RUNS kernel times in seconds, and exits at
the end of its input. The benchmark keeps one such process for a whole
run: the kernel runs in neither the benchmark process nor a child, so
it does not raise the peak memory the children report (Linux counts
the parent's peak in a child's `ru_maxrss`) and does not depend on
what the package leaves in memory.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

RUNS = 3            # kernel runs per request

_P = np.array([0.85, 0.05, 0.05, 0.05])
_TABLE = (np.arange(16, dtype=np.uint8).reshape(4, 4) * 5) & 3


def python_kernel() -> int:
    table, acc = {}, 0
    for i in range(55_000):
        table[i & 1023] = i
        acc += table.get((i * 7) & 1023, 0) ^ i
    return acc


def numpy_kernel() -> int:
    rng = np.random.default_rng(0)
    a = rng.choice(4, size=190_000, p=_P)
    b = rng.choice(4, size=190_000, p=_P)
    return int(_TABLE[a, b].sum())


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def sample(kernel, runs: int = RUNS) -> list[float]:
    """Seconds taken by each of `runs` kernel calls."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out


def main() -> int:
    kernel = KERNELS[sys.argv[1]]
    kernel()
    for _ in sys.stdin:
        print(json.dumps(sample(kernel)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
