"""Benchmark of the mersenne_doubling package on four seeded workloads.

    python3 perfbench/run.py --workload {orbit,scan,census,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Rounds of operations run one after another until their timed wall time
reaches S seconds; every output is checked by ``check.py``, which imports
nothing from the package.  With ``--trace 0`` the run reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics: each round
then runs once untraced and once traced, on the same inputs, and the
difference in wall time is the tracing overhead.  End-to-end times are
scaled to a reference host's speed by ``calibrate.py``, whose reference
samples are interleaved with the operations; the unscaled figures are
printed beside them.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import multiprocessing
import os
import random
import resource
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import prepare
from calibrate import HostClock
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Op

HERE = Path(__file__).resolve().parent
OUT_DIR = prepare.ROOT / ".perfbench_out"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 60.0


class DeadlineMissed(Exception):
    pass


@dataclass
class Outcome:
    op: Op
    seconds: float
    status: str        # "ok", "wrong", "raised" or "deadline"
    detail: str = ""
    scale: float = 1.0  # from this host's seconds to reference-host seconds

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.scale


def _forked_main(sender, op: Op, runner: "Runner") -> None:
    tracer = runner.tracer
    mark = len(tracer.spans) if tracer else 0
    try:
        payload = ("ok", op.reduce(op.call(runner)))
    except Exception as exc:  # reported to the parent as a failed operation
        payload = ("raised", repr(exc))
    sender.send((*payload, tracer.since(mark) if tracer else []))
    sender.close()


class Runner:
    """Executes operations: times them, applies deadlines, checks outputs."""

    def __init__(self, package, table, tracer: Tracer | None):
        self.package = package
        self.table = table
        self.tracer = tracer

    def run_cli(self, args: list[str]) -> tuple[int, str]:
        """cli.main on args in this process: its exit code and stdout."""
        stdout = io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = self.package.cli.main(args)
        return code, stdout.getvalue()

    def _forked(self, op: Op):
        """Run op in a forked child; kill it and raise DeadlineMissed at the deadline."""
        ctx = multiprocessing.get_context("fork")
        receiver, sender = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_forked_main, args=(sender, op, self))
        child.start()
        sender.close()
        try:
            if not receiver.poll(op.deadline):
                raise DeadlineMissed
            status, payload, spans = receiver.recv()
        finally:
            if child.is_alive():
                child.kill()
            child.join()
            receiver.close()
        if self.tracer:
            self.tracer.extend(spans)
        if status != "ok":
            raise RuntimeError(payload)
        return payload

    def execute(self, op: Op) -> Outcome:
        if self.tracer:
            self.tracer.slice = op.slice
        start = perf_counter()
        try:
            if op.deadline is None:
                out = op.call(self)
                seconds = perf_counter() - start
                summary = op.reduce(out)
            else:
                summary = self._forked(op)
                seconds = perf_counter() - start
        except DeadlineMissed:
            return Outcome(op, perf_counter() - start, "deadline", f"deadline {op.deadline} s")
        except Exception as exc:  # the operation failed; the run goes on
            return Outcome(op, perf_counter() - start, "raised", repr(exc))
        try:
            problems = op.verify(summary)
        except Exception as exc:  # output the checker cannot even parse
            problems = [f"unreadable output: {exc!r}"]
        return Outcome(op, seconds, "wrong" if problems else "ok", "; ".join(problems))


def cold_start() -> float:
    """Seconds that `mdbl --help` takes in a fresh interpreter."""
    env = child_env()
    env["PYTHONPATH"] = str(prepare.SRC)
    start = perf_counter()
    subprocess.run([sys.executable, "-m", "mersenne_doubling", "--help"], env=env,
                   cwd=OUT_DIR, capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def child_env() -> dict[str, str]:
    """Environment for child interpreters: no MDBL_* defaults, and bytecode
    cached in the checkout, so that imports cost what they cost an installed
    package."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("MDBL_") and k != "PYTHONDONTWRITEBYTECODE"}


def probe_setup() -> float:
    """Seconds from starting a fresh interpreter until set-up is done."""
    start = perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "prepare.py")], cwd=prepare.ROOT,
                          env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line != "ready\n":
            sys.exit("perfbench: set-up probe failed")
    return seconds


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile."""
    ordered = sorted(values)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = prepare.load_package()
    for name in [k for k in os.environ if k.startswith("MDBL_")]:
        del os.environ[name]  # cli.main would take them as defaults for its flags
    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer(package) if args.trace else None
    with tracer or nullcontext():
        table = prepare.build_table(package)
    prepare.warm_up(package, table)
    runner = Runner(package, table, tracer)
    rng = random.Random(f"{args.workload}:{args.seed}")
    make_round = WORKLOADS[args.workload]

    # One untimed round first: allocator and page-cache state then match the
    # rounds that follow (the first census round is otherwise ~50% slower).
    for op in make_round(random.Random(f"warm-up:{args.seed}"), OUT_DIR):
        runner.execute(op)

    outcomes: list[Outcome] = []
    wall = {False: 0.0, True: 0.0}   # timed seconds, untraced and traced
    clock = None if args.trace else HostClock("compute")
    cold_starts: list[float] = []
    rounds = 0
    while sum(wall.values()) + (clock.spent_s if clock else 0.0) < args.seconds:
        ops = make_round(rng, OUT_DIR)
        passes = [False] if not args.trace else [False, True] if rounds % 2 == 0 else [True, False]
        for traced in passes:
            round_outcomes = []
            for op in ops:
                with tracer if traced else nullcontext():
                    outcome = runner.execute(op)
                if clock:  # a missed deadline lasts as long on any host
                    scale = clock.scale_after(outcome.seconds)
                    outcome.scale = 1.0 if outcome.status == "deadline" else scale
                round_outcomes.append(outcome)
            outcomes += round_outcomes
            seconds = sum(o.seconds for o in round_outcomes)
            wall[traced] += seconds
            items = sum(o.op.items for o in round_outcomes if o.status == "ok")
            print(f"round {rounds} traced={int(traced)} items={items} seconds={seconds:.6f}")
        if args.trace and args.workload == "cli":
            cold_starts.append(cold_start())
        rounds += 1

    done = [o for o in outcomes if o.status == "ok"]
    if not done:
        sys.exit("perfbench: no operation succeeded")
    if args.trace:
        metrics = {name: (value, "") for name, value
                   in layer_metrics(tracer.spans, cold_starts, wall[True] - wall[False]).items()}
    else:
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        setup_clock = HostClock("process")
        setup, setup_raw = [], []
        for _ in range(SETUP_PROBES):
            setup_raw.append(probe_setup())
            setup.append(setup_raw[-1] * setup_clock.scale_after(setup_raw[-1]))
        items = sum(o.op.items for o in done)
        latencies = [o.scaled_s * 1e3 for o in done]
        tail_ms, pct = tail(latencies)
        raw_ms = [o.seconds * 1e3 for o in done]
        print(f"unscaled: items_per_s={items / wall[False]:.6f} op_ms_p50={median(raw_ms):.3f} "
              f"op_ms_tail={tail(raw_ms)[0]:.3f} setup_s={median(setup_raw):.4f}; median scale "
              f"{median(o.scale for o in outcomes):.4f} from {len(clock.samples)} reference samples")
        metrics = {
            "items_per_s": (items / sum(o.scaled_s for o in outcomes), ""),
            "op_ms_p50": (median(latencies), ""),
            "op_ms_tail": (tail_ms, f"p{pct:.1f} of {len(latencies)} completed operations"),
            "success_frac": (len(done) / len(outcomes),
                             f"{len(outcomes) - len(done)} of {len(outcomes)} failed"),
            "peak_rss_mb": ((self_rss + child_rss) / 1024,
                            f"this process {self_rss / 1024:.1f} + largest child {child_rss / 1024:.1f}"),
            "setup_s": (median(setup), f"median of {SETUP_PROBES} fresh processes"),
        }

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((prepare.ROOT / "BENCHMARK.json").read_text())[key]}
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={rounds} "
          f"operations={len(outcomes)} timed_s={sum(wall.values()):.3f}")
    for name, (value, note) in metrics.items():
        print(f"  {name:45s} {value:16.6f} {units[name]:6s} {note}")
    for o in outcomes:
        if o.status != "ok":
            print(f"  failed ({o.status}): {o.op.label}: {o.detail}")
    wrong = [o for o in outcomes if o.status in ("wrong", "raised")]
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(done),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
