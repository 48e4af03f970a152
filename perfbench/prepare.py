"""Set-up that every workload pays before its first timed operation.

Set-up is: import the package from ``src/``, sieve the default prime table,
and warm up (the wrap-bit stream lookup tables, the scan and census paths).
Run as a script, this file does the set-up and prints ``ready``, so that a
parent can time process start to readiness.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package():
    """Import mersenne_doubling from the checkout; exit non-zero if it is absent."""
    if not (SRC / "mersenne_doubling" / "__init__.py").is_file():
        sys.exit(f"perfbench: package not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mersenne_doubling
    import mersenne_doubling.cli  # noqa: F401  (not imported by the package itself)

    return mersenne_doubling


def build_table(md):
    return md.primality.build_prime_table()


def warm_up(md, table) -> None:
    md.dynamics.flying_time_histogram(65539)
    md.dynamics.period_of(65539)
    md.detector.scan_range(5, 99, table)
    md.census.run_census(13)


if __name__ == "__main__":
    package = load_package()
    warm_up(package, build_table(package))
    print("ready", flush=True)
