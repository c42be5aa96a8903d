#!/usr/bin/env python3
"""Time `average_link`'s two loops against each other, per block size, or
lock-step against one by one, per block count.

`average_link` clusters a block of at most `linkage.SCAN_MAX` items by one
argmax over all cluster-pair averages per merge, and a larger block by
cached row bests. This script forces each loop in turn by setting
SCAN_MAX, on seeded blocks of scores on the 0.05 grid in [0, 1]: dense
ones, with every pair scored, and sparse ones, with 12% of pairs scored
and the rest -inf ("never merge"). Calls alternate between the loops, and
it prints the median time of each per size and density and their ratio.
The cap belongs where the ratio crosses 1.

With `--blocks B ...`, it times `linkage._merges_per_block`, to which the
pipeline hands its checked symmetric score arrays, on B equal blocks
instead: first forcing the lock-step engine (`linkage.STACK_MIN` at 1 and
`SCAN_MAX` lifted, so that its cell cap cannot send the stack block by
block), then the blocks one by one (STACK_MIN above B). Both must give the
same slot logs. It prints lock-step time over one-by-one time per block
shape and B, each next to the B n^2 cells of the padded stack, which the
pipeline stacks only up to SCAN_MAX^2. The block shapes are those of
BENCH_21.json's `stack_cutoff` table, or dense blocks of `--sizes`.
STACK_MIN belongs at the smallest B from which the ratio stays at or
below 1.

    PYTHONPATH=src python3 scripts/linkage_crossover.py --sizes 160 256 400
    PYTHONPATH=src python3 scripts/linkage_crossover.py --blocks 4 8 12 16
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
import time

import numpy as np

from cdcoref import average_link, linkage

DENSITIES = {"dense": 1.0, "12%": 0.12}
# the linkage constants that force each side of --blocks
LOCKSTEP = {"STACK_MIN": 1, "SCAN_MAX": sys.maxsize}
ONE_BY_ONE = {"STACK_MIN": sys.maxsize}
# (items, share of pairs scored) per block: BENCH_21.json's `stack_cutoff`
STACK_SHAPES = [(12, 1.0), (35, 1.0), (70, 0.5), (140, 0.3), (200, 1.0)]


def grid_block(rng, n: int, density: float) -> np.ndarray:
    """(n, n) scores on the 0.05 grid, a share `density` of them finite."""
    scores = rng.integers(0, 20, (n, n)) * 0.05
    scores[rng.random((n, n)) >= density] = -np.inf
    return scores


@contextlib.contextmanager
def forced(module, **values: int):
    saved = {name: getattr(module, name) for name in values}
    for name, value in values.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


def timed(call, *args) -> tuple[float, object]:
    start = time.perf_counter()
    result = call(*args)
    return time.perf_counter() - start, result


def loops(args) -> None:
    rng = np.random.default_rng(args.seed)
    print(f"SCAN_MAX = {linkage.SCAN_MAX}; median ms per call over {args.repeats} calls")
    print(f"{'blocks':>6} {'n':>5} {'merges':>6} {'scan':>9} {'cached':>9} {'scan/cached':>11}")
    for name, density in DENSITIES.items():
        for n in args.sizes or [96, 160, 224, 256, 288, 320, 400, 800]:
            ids = [f"m{i:04d}" for i in range(n)]
            scores = grid_block(rng, n, density)
            times: dict[str, list] = {"scan": [], "cached": []}
            for _ in range(args.repeats):
                with forced(linkage, SCAN_MAX=n):
                    scan, scanned = timed(average_link, ids, scores, args.tau)
                with forced(linkage, SCAN_MAX=0):
                    cached, kept = timed(average_link, ids, scores, args.tau)
                if scanned != kept:
                    raise SystemExit(f"the loops disagree on a {name} block of {n}")
                times["scan"].append(scan)
                times["cached"].append(cached)
            scan, cached = (statistics.median(times[k]) for k in ("scan", "cached"))
            print(f"{name:>6} {n:>5} {len(kept[1]):>6} {scan * 1e3:>9.2f} {cached * 1e3:>9.2f}"
                  f" {scan / cached:>11.2f}")


def stacks(args) -> None:
    rng = np.random.default_rng(args.seed)
    shapes = [(m, 1.0) for m in args.sizes] if args.sizes else STACK_SHAPES
    print(f"STACK_MIN = {linkage.STACK_MIN}, SCAN_MAX^2 = {linkage.SCAN_MAX**2:,} cells;"
          f" lock-step over one-by-one time, medians over {args.repeats} calls of"
          " _merges_per_block per B, each next to B n^2 cells")
    print(f"{'m':>5} {'scored':>6} " + " ".join(f"{f'B={b}':>15}" for b in args.blocks))
    for m, density in shapes:
        ratios = []
        for count in args.blocks:
            blocks = []
            for _ in range(count):
                scores = np.triu(grid_block(rng, m, density), 1)
                scores = np.where(np.tri(m, dtype=bool), scores.T, scores)
                np.fill_diagonal(scores, -np.inf)
                blocks.append(scores)
            times: list[list] = [[], []]
            for _ in range(args.repeats):
                results = []
                for side, constants in enumerate((LOCKSTEP, ONE_BY_ONE)):
                    # the engines overwrite the arrays they are given
                    copies = [scores.copy() for scores in blocks]
                    with forced(linkage, **constants):
                        took, result = timed(linkage._merges_per_block, copies, args.tau)
                    times[side].append(took)
                    results.append(result)
                if results[0] != results[1]:
                    raise SystemExit(f"the engines disagree on {count} blocks of {m}")
            ratio = statistics.median(times[0]) / statistics.median(times[1])
            ratios.append(f"{ratio:.2f} {count * m * m:>9,}")
        print(f"{m:>5} {density:>6.0%} " + " ".join(f"{r:>15}" for r in ratios))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", help="block sizes")
    parser.add_argument("--blocks", type=int, nargs="+",
                        help="time lock-step against one by one for these block counts")
    parser.add_argument("--repeats", type=int, default=7, help="calls per engine and point")
    parser.add_argument("--tau", type=float, default=0.65, help="merge threshold")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    (stacks if args.blocks else loops)(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
