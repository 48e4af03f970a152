"""Spans around the calls that cross module boundaries, and per-layer metrics.

A Tracer replaces module attributes with timing wrappers while it is
entered and restores them on exit, so the package is traced without
editing it.  Patching the importing module's binding (``detector.period_of``
rather than ``dynamics.period_of``) is what catches calls from one module
into another.  Each span is (name, start, end, parent index, scan slice,
note); spans stay in memory until the run ends.  A note holds what the call
returned that the exact counts need, so every count comes from outputs.
"""

from __future__ import annotations

import os
from statistics import median
from time import perf_counter

from check import candidate_total, odd_primes_upto, trial_divisions


def _period_note(args, kwargs, result):
    return (result.period, result.steps)


def _histogram_note(args, kwargs, result):
    return sum(t * c for t, c in result.counts.items())


def _records_note(args, kwargs, result):
    return sum(result.counts().values())


def _bytes_note(args, kwargs, result):
    return sum(os.path.getsize(p) for p in result.values())


def _l_note(args, kwargs, result):
    return 0 if result is None else result[1]


def _first_arg_note(args, kwargs, result):
    return args[0]


# (module, attribute, span name, note).  Every library function that the cli
# workload's commands call is listed under cli, so that cli.main's self time
# excludes all of the library's.
PATCHES = [
    ("dynamics", "period_of", "dynamics.period_of", _period_note),
    ("dynamics", "flying_time_histogram", "dynamics.histogram", _histogram_note),
    ("detector", "period_of", "dynamics.period_of", _period_note),
    ("detector", "is_prime", "primality.is_prime", _first_arg_note),
    ("detector", "classify", "detector.classify", None),
    ("detector", "scan_range", "detector.scan_range", _records_note),
    ("detector", "write_report", "detector.write_report", _bytes_note),
    ("detector", "find_divisor_of_mersenne", "detector.find_divisor", _l_note),
    ("census", "run_census", "census.run_census", _first_arg_note),
    ("primality", "build_prime_table", "primality.build_prime_table", None),
    ("cli", "main", "cli.main", None),
    ("cli", "build_prime_table", "primality.build_prime_table", None),
    ("cli", "is_prime", "primality.is_prime", _first_arg_note),
    ("cli", "period_of", "dynamics.period_of", _period_note),
    ("cli", "flying_time_histogram", "dynamics.histogram", _histogram_note),
    ("cli", "scan_range", "detector.scan_range", _records_note),
    ("cli", "write_report", "detector.write_report", _bytes_note),
    ("cli", "find_divisor_of_mersenne", "detector.find_divisor", _l_note),
    ("cli", "run_census", "census.run_census", _first_arg_note),
    ("cli", "candidate_count", "census.candidate_count", None),
]


class Tracer:
    """Context manager that traces the package's cross-module calls while entered."""

    def __init__(self, package):
        self.spans: list = []
        self.slice: str | None = None
        self._stack: list[int] = []
        self._patches = []
        for module_name, attr, name, note in PATCHES:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original, name, note)))

    def _wrap(self, original, name, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.slice, None)
            if note is not None:
                spans[index] = (name, start, end, parent, self.slice, note(args, kwargs, result))
            return result

        return traced

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def since(self, mark: int) -> list:
        """Spans recorded after index mark, with parent indices relative to it."""
        return [(name, start, end, parent - mark if parent >= mark else -1, slice_, note)
                for name, start, end, parent, slice_, note in self.spans[mark:]]

    def extend(self, spans: list) -> None:
        """Append spans recorded in another process, re-basing parent indices."""
        base = len(self.spans)
        for name, start, end, parent, slice_, note in spans:
            self.spans.append((name, start, end, parent + base if parent >= 0 else -1,
                               self.slice if slice_ is None else slice_, note))


def _ratio(a: float, b: float, scale: float) -> float:
    return a / b * scale if b else 0.0


def layer_metrics(spans: list, cold_starts: list[float], overhead_s: float) -> dict[str, float]:
    """Every per-layer metric from a run's spans; 0 where the layer never ran."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    by_name: dict[str, list] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append((span, span[2] - span[1], child_s[i]))

    def rows(name, slice_=None):
        return [r for r in by_name.get(name, []) if slice_ is None or r[0][4] == slice_]

    def notes(rs):  # a call that raised has no note
        return [r[0][5] for r in rs if r[0][5] is not None]

    out: dict[str, float] = {}
    for prefix, slice_ in (("dynamics.period_of", None), ("dynamics.period_of.small", "small"),
                           ("dynamics.period_of.mid", "mid"), ("dynamics.period_of.wide", "wide")):
        rs = rows("dynamics.period_of", slice_)
        busy = sum(r[1] for r in rs)
        doublings = sum(n[0] for n in notes(rs))
        out[f"{prefix}.calls"] = len(rs)
        out[f"{prefix}.busy_s"] = busy
        out[f"{prefix}.doublings"] = doublings
        out[f"{prefix}.steps"] = sum(n[1] for n in notes(rs))
        out[f"{prefix}.ns_per_doubling"] = _ratio(busy, doublings, 1e9)

    rs = rows("dynamics.histogram")
    busy = sum(r[1] for r in rs)
    out["dynamics.histogram.calls"] = len(rs)
    out["dynamics.histogram.busy_s"] = busy
    out["dynamics.histogram.ns_per_doubling"] = _ratio(busy, sum(notes(rs)), 1e9)

    rs = rows("detector.scan_range")
    records = sum(notes(rs))
    out["detector.scan_range.records"] = records
    out["detector.scan_range.self_s"] = sum(r[1] - r[2] for r in rs)
    out["detector.scan_range.us_per_record"] = _ratio(sum(r[1] for r in rs), records, 1e6)

    rs = rows("detector.classify")
    out["detector.classify.calls"] = len(rs)
    out["detector.classify.busy_s"] = sum(r[1] for r in rs)

    rs = rows("detector.write_report")
    out["detector.write_report.s"] = sum(r[1] for r in rs)
    out["detector.write_report.bytes"] = sum(notes(rs))

    rs = rows("detector.find_divisor")
    busy = sum(r[1] for r in rs)
    candidates = sum(notes(rs))
    out["detector.find_divisor.calls"] = len(rs)
    out["detector.find_divisor.busy_s"] = busy
    out["detector.find_divisor.candidates"] = candidates
    out["detector.find_divisor.us_per_candidate"] = _ratio(busy, candidates, 1e6)

    rs = rows("primality.build_prime_table")
    out["primality.build_prime_table.calls"] = len(rs)
    out["primality.build_prime_table.s"] = sum(r[1] for r in rs)

    rs = rows("primality.is_prime")
    out["primality.is_prime.calls"] = len(rs)
    out["primality.is_prime.busy_s"] = sum(r[1] for r in rs)
    primes = odd_primes_upto(2_000_000) if rs else []
    out["primality.is_prime.trial_divisions"] = sum(trial_divisions(n, primes) for n in notes(rs))

    rs = rows("census.run_census")
    busy = sum(r[1] for r in rs)
    candidates = sum(candidate_total(n0) for n0 in notes(rs))
    lane_steps = sum(candidate_total(n0) * n0 for n0 in notes(rs))
    out["census.run_census.calls"] = len(rs)
    out["census.run_census.busy_s"] = busy
    out["census.run_census.candidates"] = candidates
    out["census.run_census.lane_steps"] = lane_steps
    out["census.run_census.ns_per_lane_step"] = _ratio(busy, lane_steps, 1e9)

    out["cli.cold_start_s"] = median(cold_starts) if cold_starts else 0.0
    out["cli.main.self_s"] = sum(r[1] - r[2] for r in rows("cli.main"))
    out["trace.overhead_s"] = overhead_s
    return out
