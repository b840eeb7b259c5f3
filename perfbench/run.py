"""foleq's benchmark: one workload per process, with drift-normalised times.

    python3 perfbench/run.py --workload recall --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; foleq is imported from `src/`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end
ones; with `--trace 1` they are the per-layer ones, from one untraced
and one traced round, and include the tracing overhead. See README.md.

Every timed interval is divided by the duration of a fixed pure-Python
calibration loop sampled next to and inside it and multiplied by the
loop's nominal duration (calibration.py), so a host that runs everything
30% slower for a few minutes reports nearly the same seconds. Raw seconds
are printed too, on the line before the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
from calibration import PairClock, timed_setup  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9       # this process plus eight fresh interpreters
CHILD_TIMEOUT_S = 60


def child_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up measured in a fresh interpreter, import of foleq included."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    sample = json.loads(out.stdout.strip().splitlines()[-1])
    return sample["raw"], sample["normalised"]


def run_rounds(workload, state, seconds: float) -> list[dict]:
    """Whole rounds until another one would not fit in `seconds`."""
    rounds = []
    start = time.perf_counter()
    while True:
        clock = PairClock()
        answers, failed = workload.run_round(state, clock)
        raw, normalised = clock.finish()
        rounds.append({"answers": answers, "failed": failed, "pairs": len(state["items"]),
                       "pair_s": clock.normalised, "pair_raw_s": clock.raw, "loop_raw_s": raw,
                       "loop_s": normalised})
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds
        workload.fresh_engine(state)


def check_rounds(workload, state, rounds: list[dict], seed: int) -> list[str]:
    """Independent checks of the first round's answers; later rounds must
    give the same answers."""
    problems = []
    try:
        workload.check(state, rounds[0]["answers"], random.Random(f"check:{seed}"))
    except check.CheckError as exc:
        problems.append(str(exc))
    for i, r in enumerate(rounds[1:], start=2):
        if r["answers"] != rounds[0]["answers"]:
            problems.append(f"round {i} answered differently from round 1")
    return problems


def harrell_davis(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with Beta((n+1)q, (n+1)(1-q)) weights.

    Pair times have gaps (a pair takes 5 ms, 130 ms or 440 ms, little in
    between), so the plain median of one run jumps with the noise of the
    one or two pairs next to it; this estimate moves smoothly. The Beta
    distribution function is integrated numerically.
    """
    xs = sorted(values)
    n, grid = len(xs), 20_000
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    cdf, total = [0.0], 0.0
    for i in range(grid):
        t = (i + 0.5) / grid
        total += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log(1 - t))
        cdf.append(total)
    weight = [cdf[round(i * grid / n)] / total for i in range(n + 1)]
    return sum(x * (weight[i + 1] - weight[i]) for i, x in enumerate(xs))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, rounds, setup_samples) -> dict:
    pair_ms = [s * 1000 for r in rounds for s in r["pair_s"]]
    pairs = sum(r["pairs"] for r in rounds)
    return {
        "setup_s": metric(harrell_davis([n for _, n in setup_samples], 0.5), "s"),
        "pairs_per_s": metric(pairs / sum(r["loop_s"] for r in rounds), "1/s"),
        "pair_ms_p50": metric(harrell_davis(pair_ms, 0.5), "ms"),
        "pair_ms_p95": metric(harrell_davis(pair_ms, 0.95), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
        "equiv_bound_sum": metric(workload.equiv_bound_sum(rounds[0]["answers"]),
                                  "elements"),
    }


def traced_run(workload, state, seed: int) -> tuple[list[dict], dict]:
    """One untraced round, then a traced set-up and a traced round; the
    per-layer metrics come from the traced part."""
    from spans import Tracer, per_layer_metrics

    untraced = run_rounds(workload, state, 0)
    tracer = Tracer()
    tracer.install()
    try:
        raw, normalised, traced_state = timed_setup(workload.setup, seed)
        setup_snapshot = tracer.snapshot()
        traced = run_rounds(workload, traced_state, 0)
    finally:
        tracer.uninstall()
    metrics = per_layer_metrics(tracer, setup_snapshot, normalised / raw,
                                traced[0], untraced[0])
    return untraced + traced, metrics


def write_output(args, state, metrics: dict, rounds: list[dict]) -> str:
    """Every pair's raw and normalised seconds, per round, with the metrics."""
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-{args.seed}-trace{args.trace}.json")
    labels = [item.label for item in state["items"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                   "rounds": [{"loop_raw_s": r["loop_raw_s"], "loop_s": r["loop_s"],
                               "pairs": [[label, raw, norm] for label, raw, norm
                                         in zip(labels, r["pair_raw_s"], r["pair_s"])]}
                              for r in rounds]}, fh, indent=1)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "foleq", "__init__.py")):
        print(f"no foleq sources under {os.path.join(ROOT, 'src')}; run from the "
              f"root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # the benchmark measures the built-in bounded backend
    for key in ("FOLEQ_PROVER", "FOLEQ_MODES", "FOLEQ_TIMEOUT_MS"):
        os.environ.pop(key, None)
    workload = workloads.WORKLOADS[args.workload]

    raw, normalised, state = timed_setup(workload.setup, args.seed)
    if args.setup_only:
        print(json.dumps({"raw": raw, "normalised": normalised}))
        return 0
    setup_samples = [(raw, normalised)]
    if args.trace:
        rounds, metrics = traced_run(workload, state, args.seed)
    else:
        setup_samples += [child_setup(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
        rounds = run_rounds(workload, state, args.seconds)
        metrics = end_to_end(workload, rounds, setup_samples)
    print(f"output: {write_output(args, state, metrics, rounds)}")
    problems = check_rounds(workload, state, rounds, args.seed)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    print("raw: " + json.dumps({
        "setup_raw_s": [round(r, 4) for r, _ in setup_samples],
        "setup_s": [round(n, 4) for _, n in setup_samples],
        "rounds": len(rounds),
        "loop_raw_s": [round(r["loop_raw_s"], 3) for r in rounds],
        "loop_s": [round(r["loop_s"], 3) for r in rounds],
        "summary": workload.summary(rounds[0]["answers"]),
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["pairs"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
