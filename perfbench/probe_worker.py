"""Helper process: time a fixed reference kernel whenever asked.

Usage: ``python3 perfbench/probe_worker.py`` — one line on stdin asks for
one probe; the answer is one line with its seconds.  The process exits
at the end of its input.

The kernel is a complex matrix-vector product over a fixed matrix the
size of the 0.06 m steering entry (89 MB), the shape of the Eq. 17
stream.  It belongs to the benchmark, not to the program, so no change
to the program moves it: it reads only how fast the host runs right
now.  It lives in its own process so the program's peak RSS does not
include it.
"""

from __future__ import annotations

import sys
import time

import harness  # noqa: F401  (pins the thread pools before numpy loads)
import numpy as np

#: Grid points and (anchor, antenna, band) columns of the 0.06 m entry.
ROWS, COLS = 9434, 592
#: Timed products per probe; the probe answers their median.
REPEATS = 5


def main() -> int:
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((ROWS, COLS)) + 1j * rng.standard_normal(
        (ROWS, COLS)
    )
    vector = rng.standard_normal(COLS) + 1j * rng.standard_normal(COLS)
    for _ in sys.stdin:
        matrix @ vector  # bring the matrix back into cache first
        times = []
        for _ in range(REPEATS):
            started = time.perf_counter()
            matrix @ vector
            times.append(time.perf_counter() - started)
        print(float(np.median(times)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
