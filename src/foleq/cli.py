"""Command line interface.

    foleq feedback PAIRFILE [options]
        Decide one pair and print the feedback bundle as JSON. The pair
        file is one JSON object: {"vocabulary": ..., "gamma": [...],
        "psi": "...", "phi": "..."}.

    foleq batch DATASET --report OUT.json [--csv OUT.csv] [options]
        Process a JSONL dataset and write the evaluation report.

The prover path, modes, and timeout can also come from the environment
(FOLEQ_PROVER, FOLEQ_MODES, FOLEQ_TIMEOUT_MS).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .harness import (
    Engine, PairRecord, load_dataset, parse_modes, parse_positive, run_batch, run_pair,
)
from .syntax import MALFORMED_INPUT
from .definability import necessary_symbols
from .profiles import profiles_to_json


def _checked(parse, *args):
    """An argparse type: the value `parse(text, *args)` reads, its
    ValueError a usage error."""
    def convert(text: str):
        try:
            return parse(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def _add_engine_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prover", help="path to an external prover executable")
    p.add_argument("--modes", type=_checked(parse_modes, "--modes"),
                   help="comma-separated prover modes")
    timeout_ms = _checked(parse_positive, "a timeout", "milliseconds")
    p.add_argument("--timeout-ms", type=timeout_ms, help="per-call prover timeout")
    p.add_argument("--strategy-timeout-ms", type=timeout_ms,
                   help="per-call timeout for strategy confirmations")
    p.add_argument("--seed", type=int, default=0, help="random model generator seed")
    p.add_argument("--cache", help="decision cache file (JSON lines, appended)")
    p.add_argument("--first-only", action="store_true",
                   help="stop at the first strategy that yields an explanation")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="foleq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fb = sub.add_parser("feedback", help="decide one pair and explain it")
    fb.add_argument("pairfile")
    fb.add_argument("--both-methods", action="store_true",
                    help="attempt both counter-model methods")
    fb.add_argument("--dump-profiles", action="store_true",
                    help="include atom profiles and guard records in the output")
    fb.add_argument("--dump-necessity", action="store_true",
                    help="include the necessary-symbol report in the output")
    _add_engine_options(fb)

    bt = sub.add_parser("batch", help="evaluate a JSONL dataset")
    bt.add_argument("dataset")
    bt.add_argument("--report", required=True, help="write the report JSON here")
    bt.add_argument("--csv", help="also write a CSV summary")
    bt.add_argument("--both-methods", action="store_true", default=True,
                    help="attempt both counter-model methods (default)")
    bt.add_argument("--single-method", dest="both_methods", action="store_false",
                    help="only the cheap counter-model cascade")
    bt.add_argument("--lenient", action="store_true",
                    help="skip malformed dataset lines instead of failing")
    bt.add_argument("--workers", type=_checked(parse_positive, "--workers"), default=1,
                    help="records processed in parallel threads; this speeds up "
                         "only the external prover, not the CPU-bound bounded search")
    _add_engine_options(bt)

    args = parser.parse_args(argv)
    try:
        engine = Engine.make(prover_path=args.prover, modes=args.modes, timeout_ms=args.timeout_ms,
                             strategy_timeout_ms=args.strategy_timeout_ms, seed=args.seed,
                             cache_path=args.cache)
    except ValueError as exc:   # a setting from the environment
        parser.error(str(exc))

    if args.command == "feedback":
        try:
            with open(args.pairfile, encoding="utf-8") as fh:
                record = PairRecord.from_json(json.load(fh), default_id=args.pairfile)
        except (*MALFORMED_INPUT, OSError) as exc:
            print(f"pair file error: {exc}", file=sys.stderr)
            return 2
        result = run_pair(record, engine, both_methods=args.both_methods,
                          first_only=args.first_only)
        if args.dump_profiles:
            result["profiles"] = {"solution": profiles_to_json(record.solution),
                                  "attempt": profiles_to_json(record.attempt)}
        if args.dump_necessity:
            report = necessary_symbols(record.solution, record.theory, engine.backend,
                                       cache=engine.necessity_cache,
                                       timeout_ms=engine.prover_config.timeout_ms)
            result["necessity"] = report.to_json()
        json.dump(result, sys.stdout, indent=2)
        print()
        return 0

    try:
        records, errors = load_dataset(args.dataset)
    except OSError as exc:      # the file, not a line of it
        print(f"dataset error: {exc}", file=sys.stderr)
        return 2
    for message in errors:
        print(f"dataset error: {message}", file=sys.stderr)
    if errors and not args.lenient:
        return 2
    with contextlib.ExitStack() as files:
        try:    # before any pair is decided, so that a bad path loses no run
            report_file, *csv_file = [files.enter_context(open(path, "w", encoding="utf-8"))
                                      for path in (args.report, args.csv) if path]
        except OSError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        report = run_batch(records, engine, both_methods=args.both_methods,
                           first_only=args.first_only, workers=args.workers)
        json.dump(report.to_json(), report_file, indent=2)
        report_file.write("\n")
        for fh in csv_file:
            fh.write(report.to_csv())
    summary = report.to_json()["total"]
    print(f"pairs: {summary['all']}  equivalent: {summary['equivalent']}  "
          f"non-equivalent: {summary['non_equivalent']}  unknown: {summary['unknown']}  "
          f"explained: {summary['at_least_one_strategy']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
