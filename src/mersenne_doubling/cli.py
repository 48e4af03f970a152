"""Command-line interface.

Subcommands cover the whole library surface: single periods, range scans,
flying-time histograms, primality checks, Mersenne divisor search, the
census primality test, and a kappa timing sweep.  Exit codes: 0 success,
2 usage error, 3 capacity error.  stdout carries data only; diagnostics go
to stderr.  Each subcommand takes only the flags it reads.  A flag left off
the command line is read from its MDBL_* environment variable, and only for
the subcommands that take that flag.  The parser is built once per process
and shared by every main call; the MDBL_* variables are read on each call.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from time import perf_counter

from .census import candidate_count, run_census
from .detector import (
    DEFAULT_L_MAX,
    DEFAULT_LARGE_THRESHOLD,
    STREAM_FILES,
    _scan_qs,
    find_divisor_of_mersenne,
    scan_range,
    write_report,
)
from .dynamics import (
    U64_MAX,
    _check_kappa,
    _lane_bits,
    _order,
    _Plan,
    _plan_of,
    flying_time_histogram,
    period_hybrid,
    period_of,
)
from .errors import CapacityError
from .primality import DEFAULT_PRIME_BOUND, build_prime_table, is_prime

_ENV_PREFIX = "MDBL_"


# destination: (flag, argparse options, default).  A subcommand takes only the
# flags it reads.  A flag left off the command line is read from
# MDBL_<DESTINATION>, parsed according to the type of its default.
_FLAGS = {
    "prime_bound": ("--prime-bound", dict(
        type=int, help=f"primality is decided up to its square (default {DEFAULT_PRIME_BOUND})"),
        DEFAULT_PRIME_BOUND),
    "threshold": ("--threshold", dict(
        type=int, help=f"large-period threshold (default {DEFAULT_LARGE_THRESHOLD})"),
        DEFAULT_LARGE_THRESHOLD),
    "workers": ("--workers", dict(
        type=int, help="worker processes, at most one per core (default: all cores)"),
        os.cpu_count() or 1),
    "out_dir": ("--out-dir", dict(
        help="directory for the output files (default: current directory)"),
        "."),
    "tsv": ("--tsv", dict(
        action="store_true", default=None, help="strict tab-separated output for scripting"),
        False),
    "l_max": ("--l-max", dict(
        type=int, help=f"candidate limit (default {DEFAULT_L_MAX})"),
        DEFAULT_L_MAX),
}


def _resolve_flags(args: argparse.Namespace) -> None:
    """Fill in each flag of the chosen subcommand that the command line left off."""
    for dest, (_, _, default) in _FLAGS.items():
        if getattr(args, dest, False) is not None:  # given, or not taken by this subcommand
            continue
        name = _ENV_PREFIX + dest.upper()
        raw = os.environ.get(name)
        if raw is None:
            value = default
        elif isinstance(default, bool):
            value = raw.strip().lower() in ("1", "true", "yes", "on")
        elif isinstance(default, int):
            try:
                value = int(raw)
            except ValueError:
                raise ValueError(f"{name} must be an integer, got {raw!r}")
        else:
            value = raw or default
        setattr(args, dest, value)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise ValueError(f"expected a comma-separated list of integers, got {text!r}")


def _parse_kappa_range(text: str) -> list[int]:
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise ValueError(f"expected a range like 1..12, got {text!r}")
        if lo > hi:
            raise ValueError(f"empty kappa range {text!r}")
        return list(range(lo, hi + 1))
    return _parse_int_list(text)


def _report_stream(q: int, plan: _Plan, histogram: bool, elapsed: float) -> None:
    """One stderr summary line for a command that counted the steps or flights of the period.

    plan is the plan that the command counted with, for the flights when
    histogram is set.  width is the lane digit width k, 0 off the lanes.
    """
    width = _lane_bits(q, plan.n, histogram) if plan.path == "lanes" else 0
    print(
        f"q={q} period={plan.n} path={plan.path} width={width} doublings={plan.n} "
        f"ns_per_doubling={elapsed * 1e9 / plan.n:.3f} seconds={elapsed:.6f}",
        file=sys.stderr,
    )


def cmd_period(args: argparse.Namespace) -> int:
    start = perf_counter()
    plan = _plan_of(args.q, histogram=False)
    result = period_of(args.q, plan=plan)
    elapsed = perf_counter() - start
    if args.tsv:
        print(f"{args.q}\t{result.period}\t{result.steps}\t{elapsed:.6f}")
    else:
        print(f"q={args.q} period={result.period} steps={result.steps} seconds={elapsed:.6f}")
    _report_stream(args.q, plan, False, elapsed)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    _scan_qs(args.q_lo, args.q_hi, args.workers)  # workers, endpoints and caps, before the output directory
    out = Path(args.out_dir)
    try:  # a file in the way of the directory or of a stream file fails before the scan, not after it
        out.mkdir(parents=True, exist_ok=True)
        for name in STREAM_FILES.values():
            if (out / name).exists():
                os.close(os.open(out / name, os.O_WRONLY))  # opened for writing, left as it is
    except OSError as exc:
        print(f"error: --out-dir: {exc}", file=sys.stderr)
        return 2
    start = perf_counter()
    report = scan_range(args.q_lo, args.q_hi, large_threshold=args.threshold, workers=args.workers)
    elapsed = perf_counter() - start
    paths = write_report(report, args.out_dir)
    for tag in STREAM_FILES:
        print(f"{tag}\t{len(report.stream(tag))}\t{paths[tag]}")
    print(
        f"q_lo={args.q_lo} q_hi={args.q_hi} records={sum(report.counts().values())} "
        f"workers={report.workers} seconds={elapsed:.6f}",
        file=sys.stderr,
    )
    return 0


def cmd_histogram(args: argparse.Namespace) -> int:
    start = perf_counter()
    plan = _plan_of(args.q, histogram=True)
    hist = flying_time_histogram(args.q, plan=plan)
    elapsed = perf_counter() - start
    for t, count in hist.counts.items():
        print(f"{t}\t{count}")
    _report_stream(args.q, plan, True, elapsed)
    return 0


def cmd_is_prime(args: argparse.Namespace) -> int:
    table = build_prime_table(args.prime_bound)
    verdict = "prime" if is_prime(args.n, table) else "composite"
    if args.tsv:
        print(f"{args.n}\t{verdict}")
    else:
        print(f"n={args.n} verdict={verdict}")
    return 0


def cmd_find_divisor(args: argparse.Namespace) -> int:
    start = perf_counter()
    found = find_divisor_of_mersenne(args.n, l_max=args.l_max)
    elapsed = perf_counter() - start
    if found is None:
        print("none found")
        return 0
    q, l = found
    if args.tsv:
        print(f"{args.n}\t{q}\t{l}\t{elapsed:.6f}")
    else:
        print(f"n={args.n} q={q} l={l} seconds={elapsed:.6f}")
    return 0


def cmd_mersenne_test(args: argparse.Namespace) -> int:
    start = perf_counter()
    census = run_census(args.n0, workers=args.workers)
    elapsed = perf_counter() - start
    print("j\tv\trel\tverdict")
    print("2\t-\t-\tprime")  # M(2) = 3 sits outside the census range
    for j, verdict in census.verdicts.items():
        rel = "<=" if (1 << j) - 1 <= census.sqrt_bound else ">"
        print(f"{j}\t{census.counts[j]}\t{rel}\t{'prime' if verdict else 'composite'}")
    candidates = candidate_count(args.n0)
    lane_steps = candidates * census.n0
    ns_per_lane_step = elapsed * 1e9 / lane_steps if lane_steps else float("nan")
    print(
        f"n0={census.n0} sqrt_bound={census.sqrt_bound} candidates={candidates} "
        f"lane_steps={lane_steps} ns_per_lane_step={ns_per_lane_step:.2f} "
        f"seconds={elapsed:.3f}",
        file=sys.stderr,
    )
    return 0


# Most doublings in the period of a q that bench-kappa steps through
# period_hybrid.  The loop takes 110-290 ns a doubling on two shared vCPUs,
# so a row at the cap takes some 8-20 min; the slow tier's reference row
# 4291783591 (143059453 doublings) takes under a minute a row.
_MAX_KAPPA_DOUBLINGS = 1 << 32


def cmd_bench_kappa(args: argparse.Namespace) -> int:
    qs = _parse_int_list(args.qs)
    kappas = _parse_kappa_range(args.kappas)
    if not kappas:
        raise ValueError(f"expected at least one kappa, got {args.kappas!r}")
    for kappa in kappas:
        _check_kappa(kappa)
    for q in qs:  # every q, and the period of each that a row will step, before the first row runs
        if q % 2 == 0 or q > U64_MAX:
            raise ValueError(f"modulus must be odd and below 2**64, got {q}")
        if q >= max(5, 1 << min(kappas)) and (n := _order(q)) > _MAX_KAPPA_DOUBLINGS:
            raise CapacityError(f"the period of 1/{q} is n = {n}, and stepping it exceeds "
                                f"the cap of {_MAX_KAPPA_DOUBLINGS} doublings")
    for kappa in kappas:
        for q in qs:
            if q < max(5, 1 << kappa):
                print(f"skipping q={q} for kappa={kappa} (needs q >= max(5, 2**kappa))",
                      file=sys.stderr)
                continue
            start = perf_counter()
            result = period_hybrid(q, kappa)
            elapsed = perf_counter() - start
            if args.tsv:
                print(f"{kappa}\t{q}\t{result.period}\t{result.steps}\t{elapsed:.6f}")
            else:
                print(f"kappa={kappa} q={q} period={result.period} "
                      f"steps={result.steps} seconds={elapsed:.6f}")
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The mdbl parser, built on first use and shared by every main call.

    Parsing leaves the parser as it was: MDBL_* values are read on every
    call, by _resolve_flags, and never stored in it.
    """
    parser = argparse.ArgumentParser(
        prog="mdbl",
        description="Doubling-map periods of 1/q and Mersenne number tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, *dests: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        for dest in dests:
            flag, options, _ = _FLAGS[dest]
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
        return p

    p = command("period", cmd_period, "period of 1/q under the doubling map", "tsv")
    p.add_argument("q", type=int)

    p = command("scan", cmd_scan, "periods of every odd q in a range, classified",
                "threshold", "workers", "out_dir")
    p.add_argument("q_lo", type=int)
    p.add_argument("q_hi", type=int)

    p = command("histogram", cmd_histogram, "flying-time frequencies for 1/q")
    p.add_argument("q", type=int)

    p = command("is-prime", cmd_is_prime, "deterministic primality check up to the table capacity",
                "prime_bound", "tsv")
    p.add_argument("n", type=int)

    p = command("find-divisor", cmd_find_divisor, "search a divisor of M(n) for prime n",
                "l_max", "tsv")
    p.add_argument("n", type=int)

    p = command("mersenne-test", cmd_mersenne_test,
                "census primality test for M(j), prime j <= n0", "workers")
    p.add_argument("n0", type=int)

    p = command("bench-kappa", cmd_bench_kappa,
                "time the combined algorithm across kappa values", "tsv")
    p.add_argument("--qs", required=True, help="comma-separated moduli")
    p.add_argument("--kappas", required=True, help="kappa list (1,2,3) or range (1..12)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        _resolve_flags(args)
        return args.handler(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
