"""Benchmark: the dense orbit kernel on five coadjoint actions.

The dense orbit partition over p^d indices is the hot loop behind orbit
censuses, conjugacy classes of Lazard groups, and base-change towers.
Prints the best of three wall times and the points partitioned per second.
Run:  python benchmarks/bench_orbits.py
"""

import time

import numpy as np

from nilorbit import kernels
from nilorbit.battery import appendix_h2_ring, witness_ring
from nilorbit.families import fake_heisenberg_scheme, ul_lie_scheme


def cases():
    yield "H.2 ring dual, 5^4", appendix_h2_ring(5).coadjoint_generators(), 5
    yield "class-4 witness dual, 5^5", witness_ring(5, 4).coadjoint_generators(), 5
    yield "UL4(F5) dual, 5^6", ul_lie_scheme(4, 5).at_level(1).coadjoint_generators(), 5
    fh4 = fake_heisenberg_scheme(5, 1).at_level(4)
    yield "fake Heisenberg level 4, 5^8", fh4.coadjoint_generators(), 5
    fh3 = fake_heisenberg_scheme(3, 1).at_level(6)
    yield "fake Heisenberg level 6, 3^12", fh3.coadjoint_generators(), 3


def run_one(mats, p, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        labels = kernels.orbit_partition(mats, p)
        best = min(best, time.perf_counter() - t0)
    return best, labels


def main():
    print("%-34s %10s %8s %12s" % ("case", "seconds", "orbits", "points/s"))
    for name, mats, p in cases():
        secs, labels = run_one(np.asarray(mats), p)
        print(
            "%-34s %10.3f %8d %12.0f"
            % (name, secs, int(labels.max()) + 1, len(labels) / secs)
        )


if __name__ == "__main__":
    main()
