"""Measures the two findings recorded in perfbench/baseline.json.

1. Cost per scan record of the stepping loops (q < 2^16) against the
   large-q engine just above 2^16, over the same ranges as the README scan.
2. Wall time of run_census at workers=1 and workers=2 for n0 <= 47.

    python3 perfbench/findings.py     # about a minute on two cores

Prints one JSON object.
"""

import json
from statistics import median
from time import perf_counter

from prepare import build_table, load_package, warm_up


def timed(fn, *args, **kwargs) -> float:
    start = perf_counter()
    fn(*args, **kwargs)
    return perf_counter() - start


if __name__ == "__main__":
    package = load_package()
    table = build_table(package)
    warm_up(package, table)
    scan = package.detector.scan_range
    small_s = timed(scan, 5, 2**16 - 1, table)
    engine_s = timed(scan, 2**16 + 1, 2**17 - 1, table)
    small_us = small_s / ((2**16 - 1 - 5) // 2 + 1) * 1e6
    engine_us = engine_s / 2**15 * 1e6
    census = {}
    for n0 in (41, 43, 47):
        w1 = median(timed(package.census.run_census, n0, workers=1) for _ in range(3))
        w2 = median(timed(package.census.run_census, n0, workers=2) for _ in range(3))
        census[str(n0)] = {"workers_1_s": w1, "workers_2_s": w2, "speedup": w1 / w2}
    print(json.dumps({
        "scan_small_us_per_record": small_us,
        "scan_engine_us_per_record": engine_us,
        "small_over_engine": small_us / engine_us,
        "census_workers": census,
    }, indent=2))
