"""Command-line entry point: `steincv bench`, `steincv run`, `steincv ingest`.

Exit code 0 on success, 2 when any repetition failed or the config does not
load: a bad field or problem spec, or a file that cannot be read, is one line
on stderr that names it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bench import BenchmarkConfig, BenchmarkReport, METHODS, emit_report, run_benchmark
from .core import SPLIT_POLICIES
from .problems import parse_problem
from .training import OBJECTIVES, REGULARIZERS, TrainConfig


def _load_json_arg(value: str):
    """Accept either a path to a JSON file or an inline JSON string."""
    text = value.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(value, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """The flags of `run` and `ingest`; each ``dest`` is a field of
    ``BenchmarkConfig`` or ``TrainConfig``, whose defaults apply to a flag
    not given (the parsers suppress argparse defaults)."""
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument("--n", type=int)
    parser.add_argument("--m", type=int, help="training-set size (ingest default: half the file)")
    parser.add_argument("--split", choices=SPLIT_POLICIES)
    parser.add_argument("--reps", type=int, dest="repetitions")
    parser.add_argument("--seed", type=int, dest="base_seed")
    parser.add_argument("--degree", type=int, help="polynomial total degree")
    parser.add_argument("--alpha1", type=float)
    parser.add_argument("--alpha2", type=float,
                        help="kernel length-scale (default: median heuristic)")
    parser.add_argument("--ridge", type=float)
    parser.add_argument("--jitter", type=float)
    parser.add_argument("--multi-kernel", action="store_true",
                        help="ensemble with two median-heuristic kernels")
    parser.add_argument("--workers", type=int)
    parser.add_argument("--objective", choices=OBJECTIVES)
    parser.add_argument("--regularizer", choices=REGULARIZERS)
    parser.add_argument("--lam", type=float, help="regularization strength")
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--beta", type=float,
                        help="inverse-time schedule scale (default: data-driven)")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--train-seed", type=int, dest="seed")
    parser.add_argument("--out", default=None, help="report path (.json: JSON, else CSV)")


def _given(args, cls) -> dict:
    """The flags given on the command line that set a field of ``cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls) if hasattr(args, f.name)}


def _benchmark_config(args, problem: dict, **defaults) -> BenchmarkConfig:
    """The config of `run` and `ingest`: their given flags over ``defaults``."""
    given = {**defaults, **_given(args, BenchmarkConfig), "problem": problem}
    return BenchmarkConfig(**given, train=TrainConfig(**_given(args, TrainConfig)))


def _emit_and_summarize(report: BenchmarkReport, out) -> int:
    if out:
        emit_report(report, out)
    cfg = report.config
    mae = "n/a" if report.mae is None else f"{report.mae:.6g}"
    mean_est = "n/a" if report.mean_estimate is None else f"{report.mean_estimate:.10g}"
    print(
        f"method={cfg.method} problem={report.problem_label} d={report.d} "
        f"n={cfg.n} m={cfg.m} reps={cfg.repetitions} mae={mae} "
        f"mean_estimate={mean_est} mean_train_seconds={report.mean_train_seconds:.4g} "
        f"failures={report.n_failures}"
    )
    for r in report.results:
        if r.error is not None:
            print(f"  rep {r.rep} failed: {r.error}", file=sys.stderr)
    return 2 if report.n_failures else 0


def _bench_config(args) -> BenchmarkConfig:
    return BenchmarkConfig.from_dict(_load_json_arg(args.config))


def _run_config(args) -> BenchmarkConfig:
    return _benchmark_config(args, _load_json_arg(args.problem))


def _ingest_config(args) -> BenchmarkConfig:
    problem = {"problem": "ingest", "path": args.samples}
    parsed = parse_problem(problem)
    n = args.n if "n" in args else parsed.n
    m = n if getattr(args, "split", None) == "same_set" else n // 2
    return _benchmark_config(args, problem, n=n, m=m, repetitions=1, parsed=parsed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincv",
        description="Stein-operator control variates: benchmark and estimation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark from a JSON config")
    p_bench.add_argument("--config", required=True, help="path to a BenchmarkConfig JSON")
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(config_of=_bench_config)

    p_run = sub.add_parser("run", help="run a method on a problem spec",
                           argument_default=argparse.SUPPRESS)
    p_run.add_argument("--problem", required=True,
                       help="problem spec: JSON file path or inline JSON")
    _add_config_args(p_run)
    p_run.set_defaults(config_of=_run_config)

    p_ingest = sub.add_parser("ingest", help="estimate from an externally scored CSV",
                              argument_default=argparse.SUPPRESS)
    p_ingest.add_argument("--samples", required=True, help="scored-sample CSV path")
    _add_config_args(p_ingest)
    p_ingest.set_defaults(config_of=_ingest_config)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = args.config_of(args)
    except (OSError, ValueError) as exc:
        print(f"steincv {args.command}: {exc}", file=sys.stderr)
        return 2
    return _emit_and_summarize(run_benchmark(config), args.out)


if __name__ == "__main__":
    raise SystemExit(main())
