#!/usr/bin/env python3
"""Time `average_link`'s two loops against each other, per block size.

`average_link` clusters a block of at most `linkage.SCAN_MAX` items by one
argmax over all cluster-pair averages per merge, and a larger block by
cached row bests. This script forces each loop in turn by setting
SCAN_MAX, on seeded blocks of scores on the 0.05 grid in [0, 1]: dense
ones, with every pair scored, and sparse ones, with 12% of pairs scored
and the rest -inf ("never merge"). Calls alternate between the loops, and
it prints the median time of each per size and density and their ratio.
The cap belongs where the ratio crosses 1.

    PYTHONPATH=src python3 scripts/linkage_crossover.py --sizes 160 256 400
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from cdcoref import average_link, linkage

DENSITIES = {"dense": 1.0, "12%": 0.12}


def grid_block(rng, n: int, density: float) -> np.ndarray:
    """(n, n) scores on the 0.05 grid, a share `density` of them finite."""
    scores = rng.integers(0, 20, (n, n)) * 0.05
    scores[rng.random((n, n)) >= density] = -np.inf
    return scores


def timed(ids, scores, threshold: float, cap: int) -> tuple[float, tuple]:
    saved, linkage.SCAN_MAX = linkage.SCAN_MAX, cap
    try:
        start = time.perf_counter()
        result = average_link(ids, scores, threshold)
        return time.perf_counter() - start, result
    finally:
        linkage.SCAN_MAX = saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[96, 160, 224, 256, 288, 320, 400, 800])
    parser.add_argument("--repeats", type=int, default=7, help="calls per loop and block")
    parser.add_argument("--tau", type=float, default=0.65, help="merge threshold")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    print(f"SCAN_MAX = {linkage.SCAN_MAX}; median ms per call over {args.repeats} calls")
    print(f"{'blocks':>6} {'n':>5} {'merges':>6} {'scan':>9} {'cached':>9} {'scan/cached':>11}")
    for name, density in DENSITIES.items():
        for n in args.sizes:
            ids = [f"m{i:04d}" for i in range(n)]
            scores = grid_block(rng, n, density)
            times: dict[str, list] = {"scan": [], "cached": []}
            for _ in range(args.repeats):
                scan, scanned = timed(ids, scores, args.tau, n)
                cached, kept = timed(ids, scores, args.tau, 0)
                if scanned != kept:
                    raise SystemExit(f"the loops disagree on a {name} block of {n}")
                times["scan"].append(scan)
                times["cached"].append(cached)
            scan, cached = (statistics.median(times[k]) for k in ("scan", "cached"))
            print(f"{name:>6} {n:>5} {len(kept[1]):>6} {scan * 1e3:>9.2f} {cached * 1e3:>9.2f}"
                  f" {scan / cached:>11.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
