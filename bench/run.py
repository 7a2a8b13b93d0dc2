"""Benchmark for plam: one workload per invocation, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): exact-random, mfdt-trees,
geo-sample, cps-corpus.  Run from the root of a checkout; plam is
imported from its src/ directory.  The script starts one measuring
process (this file again, with PYTHONHASHSEED pinned to 0, because alpha
keys hash strings), waits for it and passes on its exit code.  setup_s
runs from just before that process is started to the end of its set-up.

--trace 0 (end-to-end): set-up, a warm-up round, then whole rounds of
operations until S seconds have passed.  Each operation's output is
checked.  Reports ops_per_s, op_p50_ms, op_p90_ms, setup_s and
peak_rss_mb.  Operation times are rescaled to the reference speed
(timing.py); setup_s is wall-clock time.

--trace 1 (per layer): replays the workload's first rounds twice, first
untraced and then with spans around every plam layer (spans.py), then a
third time to count repeated step calls.  Reports the per-layer metrics
and the tracing overhead, and writes the spans to bench/results/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record, with the raw
wall-clock figures and the slowest operations, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SLOWEST = 5


class Tally:
    """Outcomes of the operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.problems: list[str] = []
        self.ok: list[bool] = []
        self.rounds = 0
        self._slow: list = []  # heap of (wall, index, op)

    def add(self, op, wall: float, error: Exception | None, problems: list[str]) -> None:
        index = self.attempted
        self.attempted += 1
        self.ok.append(error is None)
        if error is not None:
            self.failed += 1
            key = type(error).__name__
            self.failures[key] = self.failures.get(key, 0) + 1
        if problems:
            self.problems += [f"{op.describe()}: {p}" for p in problems]
        item = (wall, index, op)
        if len(self._slow) < 4 * SLOWEST:
            heapq.heappush(self._slow, item)
        elif wall > self._slow[0][0]:
            heapq.heapreplace(self._slow, item)

    def slowest(self, norm: list[float]) -> list[dict]:
        total = sum(norm)
        ranked = sorted(self._slow, key=lambda item: -norm[item[1]])[:SLOWEST]
        return [
            {"op": op.describe(), "ms": 1000 * norm[i], "share": norm[i] / total}
            for _, i, op in ranked
        ]


def run_pass(workload, meter, tally, rounds=None, seconds=None, first=None, tracer=None, repeat=None):
    """Whole rounds from round 0 until `rounds` are done or `seconds` of
    wall time have passed (or the tracer is full)."""
    started = time.perf_counter()
    k = 0
    while True:
        ops = first if (k == 0 and first is not None) else workload.round_ops(k)
        # the round's inputs are the benchmark's, not the program's: keep the
        # cyclic collector from traversing them during the operations.
        # Collect first, since frozen garbage would never be freed.
        gc.collect()
        gc.freeze()
        for op in ops:
            if repeat is not None:
                repeat.new_op()
            error = result = None
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(tally.attempted, op.run) if tracer else op.run()
            except Exception as exc:  # an operation the program could not finish
                error = exc
            wall = time.perf_counter() - t0
            if meter is not None:
                meter.record(wall)
            tally.add(op, wall, error, [] if error else op.check(result))
        if meter is not None:
            meter.flush()
        tally.rounds += 1
        k += 1
        if rounds is not None and k >= rounds:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
        if tracer is not None and tracer.full:
            break


def latency_ms(norm: list[float], ok: list[bool]) -> tuple[float, float]:
    done = [t for t, good in zip(norm, ok) if good]
    if len(done) == 1:  # a run of a single operation
        done *= 2
    deciles = statistics.quantiles(done, n=10)
    return 1000 * deciles[4], 1000 * deciles[8]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # monotonic time at which the launcher started this measuring process
    parser.add_argument("--started", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "plam", "__init__.py")):
        print(f"bench: no plam sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    return measure(args) if args.started is not None else launch(argv)


def launch(argv: list[str]) -> int:
    """Run the measuring process with the hash seed pinned and without the
    site packages it does not use; stop it if this process is stopped."""
    import signal
    import subprocess

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    child = subprocess.Popen(
        [sys.executable, "-S", os.path.abspath(__file__), *argv, "--started", repr(started)], env=env
    )
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


def measure(args) -> int:
    entered = time.monotonic()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from timing import REF_NOMINAL_S, Meter
    from workloads import WORKLOADS

    imported = time.monotonic()

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import RepeatCounter, Tracer

        tracer = Tracer()
        tracer.install()

    # ---- set-up: interpreter start, imports, inputs of the first round
    workload = WORKLOADS[args.workload](args.seed)
    first = workload.round_ops(0)
    built = time.monotonic()
    setup_wall = built - args.started
    if tracer is not None:
        tracer.uninstall()

    warm = Tally()
    for op in workload.warmup_ops():
        try:
            result = op.run()
        except Exception as exc:  # same failures as in the timed rounds
            warm.add(op, 0.0, exc, [])
        else:
            warm.add(op, 0.0, None, op.check(result))

    os.makedirs(RESULTS, exist_ok=True)
    meter = Meter()
    tally = Tally()
    record: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "setup_parts_s": {
            "interpreter": entered - args.started,
            "imports": imported - entered,
            "inputs": built - imported,
        },
    }
    if not args.trace:
        run_pass(workload, meter, tally, seconds=args.seconds, first=first)
        norm = meter.norm()
        p50, p90 = latency_ms(norm, tally.ok)
        completed = tally.attempted - tally.failed
        metrics = {
            "ops_per_s": (completed / sum(norm), "1/s"),
            "op_p50_ms": (p50, "ms"),
            "op_p90_ms": (p90, "ms"),
            "setup_s": (setup_wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw_p50, raw_p90 = latency_ms(meter.wall, tally.ok)
        record["raw_wall"] = {
            "ops_per_s": completed / sum(meter.wall),
            "op_p50_ms": raw_p50,
            "op_p90_ms": raw_p90,
        }
        record["slowest"] = tally.slowest(norm)
    else:
        run_pass(workload, meter, tally, rounds=workload.trace_rounds, seconds=args.seconds, first=first)
        untraced_rounds = tally.rounds
        traced_meter = Meter()
        tracer.install()
        run_pass(workload, traced_meter, tally, rounds=untraced_rounds, seconds=args.seconds, tracer=tracer)
        tracer.uninstall()
        traced_rounds = tally.rounds - untraced_rounds
        repeat = RepeatCounter()
        repeat.install()
        run_pass(workload, None, tally, rounds=traced_rounds, repeat=repeat)
        repeat.uninstall()
        metrics = trace_metrics(tracer, meter, traced_meter, REF_NOMINAL_S / meter.slices[0], repeat)
        record.update(untraced_rounds=untraced_rounds, traced_rounds=traced_rounds)
        spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.csv.gz")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        record["spans"] = len(tracer.start)

    problems = warm.problems + tally.problems + workload.finish()
    result = {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        result=result,
        failures=tally.failures,
        problems=problems[:20],
        rounds=tally.rounds,
        reference_slice_ms=[1000 * min(meter.slices), 1000 * statistics.median(meter.slices), 1000 * max(meter.slices)],
    )
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as out:
        json.dump(record, out, indent=1)
    for problem in problems[:10]:
        print(f"bench: incorrect: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def trace_metrics(tracer, meter, traced_meter, setup_factor, repeat) -> dict:
    """Per-layer metrics of the traced pass, and the tracing overhead: the
    traced pass's time over the untraced pass's time on the same rounds."""
    untraced, traced = meter.norm(), traced_meter.norm()
    factors = {
        len(untraced) + i: n / w for i, (n, w) in enumerate(zip(traced, traced_meter.wall)) if w > 0
    }
    factors[-1] = setup_factor
    metrics = tracer.per_layer(factors)
    metrics["reduction.repeat_step_share"] = (repeat.share, "ratio")
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(untraced[: len(traced)]), "ratio")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
