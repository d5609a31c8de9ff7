"""Speed sampler: times a fixed reference loop on one CPU, again and again.

    sampler.py CPU

The host this benchmark runs on is shared: the speed of a CPU drifts by tens
of percent over seconds, and CPU time drifts with it.  Pinned to the same CPU
as the measured process, this sampler wakes every PERIOD_S, runs one short
reference loop (a mix of the dict, tuple, int and Fraction work confsys
spends its time on) and records (start, duration) on CLOCK_MONOTONIC.
run.py scales each measured interval by how fast the loop ran during it (see
run.Speed).  Its busy share of the CPU is about 3 %.

It prints "ready" once it is pinned and warmed up.  It stops when its stdin
reaches end of file, and then prints its samples as one JSON list.
"""

import os
import select
import sys
import time
from fractions import Fraction

PERIOD_S = 0.02


def reference_loop() -> int:
    table: dict = {}
    x = Fraction(1, 3)
    for i in range(1, 60):
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + i * i
        x = x * Fraction(i, i + 2) + Fraction(1, i)
    return len(table) + x.numerator % 7


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    clock = time.monotonic
    samples = []
    reference_loop()
    print("ready", flush=True)
    while True:
        t = clock()
        reference_loop()
        samples.append((t, clock() - t))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            if not sys.stdin.read():
                break
    sys.stdout.write("[" + ",".join(f"[{t!r},{d!r}]" for t, d in samples) + "]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
