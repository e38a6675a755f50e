"""One workload in one fresh single-threaded process.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1 [--pause-every S]
    python3 bench/worker.py --workload NAME --seed N --setup-only

Run from the root of a source tree; fermifock is imported from ./src.
Prints `ready <monotonic time>` once the first op is ready, and, unless
--setup-only, one JSON line with the run's raw measurements at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
MIN_OPS = 100  # so that the 90th percentile has ten samples beyond it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    # before an op, once this many seconds of ops have passed since the last
    # stop, print `pause` and wait for a line on stdin (time not counted)
    parser.add_argument("--pause-every", type=float, default=0.0)
    args = parser.parse_args(argv)

    # set-up: import fermifock from this tree, build the first round's inputs
    sys.path[:0] = [SRC, HERE]
    import fermifock
    import workloads

    if not os.path.abspath(fermifock.__file__).startswith(SRC + os.sep):
        print(f"fermifock was imported from {fermifock.__file__}, not {SRC}", file=sys.stderr)
        return 2
    stats = {}
    make_round = workloads.make_round_factory(args.workload, stats)

    def round_ops(index):
        shape = random.Random(f"{args.workload}:shape")
        seeded = random.Random(f"{args.workload}:{args.seed}:{index}")
        return make_round(shape, seeded)

    ops = round_ops(0)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    import refs

    refs.self_test_pfaffian(random.Random(args.seed))

    clock = time.perf_counter
    latencies_ms = []
    round_s = []
    attempted = failed = nonzero = 0
    wrong = []
    errors = {}  # op kind -> first failure, for the result file
    spans = []
    start = clock()
    paused = 0.0
    next_pause = args.pause_every
    rounds = 0
    while True:
        spent = 0.0
        for op in ops:
            if args.pause_every and clock() - start - paused >= next_pause:
                t0 = clock()
                print("pause", flush=True)
                sys.stdin.readline()
                paused += clock() - t0
                next_pause = clock() - start - paused + args.pause_every
            if tracer:
                tracer.active = True
            t0 = clock()
            try:
                out = op.run()
                error = None
            except Exception as exc:  # an op that raises counts as failed
                out, error = None, exc
            dt = clock() - t0
            if tracer:
                tracer.active = False
                spans.append((op.kind, t0 - start, dt))
            attempted += 1
            spent += dt
            latencies_ms.append(dt * 1000.0)
            if error is not None:
                failed += 1
                errors.setdefault(op.kind, f"{type(error).__name__}: {error}")
                continue
            if op.expect_exit is not None:
                if out[0] != op.expect_exit:
                    failed += 1
                    errors.setdefault(op.kind, f"exit code {out[0]}, expected {op.expect_exit}")
                continue
            ok, seen = op.check(out)
            nonzero += seen
            if not ok:
                wrong.append(f"{op.kind}: output disagrees with the reference")
        round_s.append(spent)
        rounds += 1
        if clock() - start - paused >= args.seconds and attempted >= MIN_OPS:
            break
        ops = round_ops(rounds)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "nonzero_comparisons": nonzero,
        "wrong": wrong[:20],
        "errors": errors,
        "inconclusive": stats.get("inconclusive", 0),
        "round_s": round_s,
        "latencies_ms": latencies_ms,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["per_layer"] = tracer.per_layer(rounds)
        result["layers"] = tracer.layers
        result["spans"] = spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
