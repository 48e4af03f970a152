"""Doubling-map periods of rational angles and their Mersenne-number applications."""

from .census import (
    MersenneCensus,
    candidate_count,
    iter_candidates,
    run_census,
    sqrt_of_mersenne,
)
from .detector import (
    DEFAULT_LARGE_THRESHOLD,
    PeriodRecord,
    ScanReport,
    classify,
    find_divisor_of_mersenne,
    scan_range,
    segment_of,
    write_report,
)
from .dynamics import (
    DEFAULT_KAPPA,
    U64_MAX,
    FlyingTimeHistogram,
    PeriodResult,
    PoincareStep,
    floor_log2,
    flying_time_histogram,
    is_complete_wrt_flying_times,
    period_capped,
    period_hybrid,
    period_naive,
    period_of,
    poincare_step_naive,
    poincare_step_predictive,
)
from .errors import CapacityError
from .primality import (
    DEFAULT_PRIME_BOUND,
    PrimeTable,
    build_prime_table,
    is_prime,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "DEFAULT_KAPPA",
    "DEFAULT_LARGE_THRESHOLD",
    "DEFAULT_PRIME_BOUND",
    "FlyingTimeHistogram",
    "MersenneCensus",
    "PeriodRecord",
    "PeriodResult",
    "PoincareStep",
    "PrimeTable",
    "ScanReport",
    "U64_MAX",
    "build_prime_table",
    "candidate_count",
    "classify",
    "find_divisor_of_mersenne",
    "floor_log2",
    "flying_time_histogram",
    "is_complete_wrt_flying_times",
    "is_prime",
    "iter_candidates",
    "period_capped",
    "period_hybrid",
    "period_naive",
    "period_of",
    "poincare_step_naive",
    "poincare_step_predictive",
    "run_census",
    "scan_range",
    "segment_of",
    "sqrt_of_mersenne",
    "write_report",
    "__version__",
]
