"""fermifock benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of the source tree (the directory holding src/fermifock).
The workload runs in a fresh single-threaded Python process
(bench/worker.py) for about T seconds of whole rounds.  With --trace 0 the
last line of stdout carries the end-to-end metrics; with --trace 1 the run
wraps fermifock's public functions and carries the per-layer metrics
instead.  Raw results and traces go to bench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("wick_oracle", "weak_assoc", "correlators", "cli_check")
SETUP_PROBES = 12  # set-up-only processes per untraced run, spread over its length
TIMEOUT_S = 170


def _run_worker(args, deadline, on_pause=None):
    """Run a worker to its end; return (set-up seconds, last stdout line).

    The worker stops between ops when asked to (--pause-every) and prints
    `pause`; on_pause() then runs while the worker waits, and the worker
    goes on once it reads a line on stdin.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    killed = []

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    ready = last = None
    read_all = False
    try:
        for line in proc.stdout:
            if line.startswith("ready "):
                ready = float(line.split()[1])
            elif line == "pause\n":
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
        read_all = True
    finally:
        timer.cancel()
        if not read_all:
            proc.kill()  # on_pause failed: do not leave the worker waiting
        proc.stdin.close()
        proc.wait()
    if killed:
        raise SystemExit("worker did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return ready - t0, last


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "fermifock", "__init__.py")):
        print("error: run from the root of the fermifock source tree (no src/fermifock here)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []

    def probe():
        if len(setups) < SETUP_PROBES:
            setups.append(_run_worker(common + ["--setup-only"], deadline)[0])

    run_args = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if not args.trace:
        run_args += ["--pause-every", str(args.seconds / (SETUP_PROBES + 1))]
    setup_s, line = _run_worker(run_args, deadline, probe)
    if not args.trace:
        while len(setups) < SETUP_PROBES:
            probe()
    setups.append(setup_s)
    run = json.loads(line)
    run["setup_s"] = setups

    correct = not run["wrong"] and run["nonzero_comparisons"] > 0
    if args.trace:
        metrics = run["per_layer"]
    else:
        deciles = statistics.quantiles(run["latencies_ms"], n=10, method="inclusive")
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(run["round_s"]), "unit": "s"},
            "op_p50_ms": {"value": deciles[4], "unit": "ms"},
            "op_p90_ms": {"value": deciles[8], "unit": "ms"},
            "peak_rss_mib": {"value": run["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "correct": correct, "run": run}, fh)

    print(
        f"{args.workload} seed {args.seed}: {run['rounds']} rounds, {run['attempted']} ops, "
        f"{run['failed']} failed, {run['nonzero_comparisons']} nonzero comparisons, "
        f"{run['inconclusive']} inconclusive",
        file=sys.stderr,
    )
    for problem in run["wrong"]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
