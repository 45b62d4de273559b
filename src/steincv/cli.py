"""Command-line entry point: `steincv bench`, `steincv run`, `steincv ingest`.

Exit code 0 on success, 2 when any repetition failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import BenchmarkConfig, BenchmarkReport, METHODS, emit_report, run_benchmark
from .core import SPLIT_POLICIES
from .training import OBJECTIVES, REGULARIZERS, TrainConfig


def _load_json_arg(value: str):
    """Accept either a path to a JSON file or an inline JSON string."""
    text = value.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(value, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--objective", default="least_squares", choices=OBJECTIVES)
    parser.add_argument("--regularizer", default="l2_theta", choices=REGULARIZERS)
    parser.add_argument("--lam", type=float, default=0.0, help="regularization strength")
    parser.add_argument("--batch-size", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--beta", type=float, default=None,
                        help="inverse-time schedule scale (default: data-driven)")
    parser.add_argument("--gamma", type=float, default=10.0)
    parser.add_argument("--train-seed", type=int, default=0)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        objective=args.objective,
        regularizer=args.regularizer,
        lam=args.lam,
        batch_size=args.batch_size,
        epochs=args.epochs,
        beta=args.beta,
        gamma=args.gamma,
        seed=args.train_seed,
    )


def _add_method_args(parser: argparse.ArgumentParser, m_default=500, reps_default=20) -> None:
    parser.add_argument("--method", required=True, choices=METHODS)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--m", type=int, default=m_default,
                        help="training-set size (ingest default: half the file)")
    parser.add_argument("--split", default="first_m", choices=SPLIT_POLICIES)
    parser.add_argument("--reps", type=int, default=reps_default)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--degree", type=int, default=2, help="polynomial total degree")
    parser.add_argument("--alpha1", type=float, default=0.01)
    parser.add_argument("--alpha2", type=float, default=None,
                        help="kernel length-scale (default: median heuristic)")
    parser.add_argument("--ridge", type=float, default=0.0)
    parser.add_argument("--jitter", type=float, default=None)
    parser.add_argument("--multi-kernel", action="store_true",
                        help="ensemble with two median-heuristic kernels")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", default=None, help="report path (.csv or .json)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))


def _emit_and_summarize(report: BenchmarkReport, out, fmt) -> int:
    if out:
        if fmt is None:
            fmt = "json" if str(out).endswith(".json") else "csv"
        emit_report(report, out, fmt)
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


def _cmd_bench(args) -> int:
    config = BenchmarkConfig.from_dict(_load_json_arg(args.config))
    return _emit_and_summarize(run_benchmark(config), args.out, args.format)


def _benchmark_config(args, problem: dict, n: int, m: int) -> BenchmarkConfig:
    """The config of `run` and `ingest` from their shared method and training flags."""
    return BenchmarkConfig(
        problem=problem,
        method=args.method,
        n=n,
        m=m,
        split=args.split,
        train=_train_config(args),
        repetitions=args.reps,
        base_seed=args.seed,
        degree=args.degree,
        alpha1=args.alpha1,
        alpha2=args.alpha2,
        ridge=args.ridge,
        jitter=args.jitter,
        multi_kernel=args.multi_kernel,
        workers=args.workers,
    )


def _cmd_run(args) -> int:
    config = _benchmark_config(args, _load_json_arg(args.problem), args.n, args.m)
    return _emit_and_summarize(run_benchmark(config), args.out, args.format)


def _cmd_ingest(args) -> int:
    from .targets import load_scored_samples

    samples = load_scored_samples(args.samples, f_column=True)
    m = args.m if args.m is not None else samples.n // 2
    config = _benchmark_config(args, {"problem": "ingest", "path": args.samples}, samples.n, m)
    return _emit_and_summarize(run_benchmark(config), args.out, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steincv",
        description="Stein-operator control variates: benchmark and estimation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="run a benchmark from a JSON config")
    p_bench.add_argument("--config", required=True, help="path to a BenchmarkConfig JSON")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--format", default=None, choices=("csv", "json"))
    p_bench.set_defaults(func=_cmd_bench)

    p_run = sub.add_parser("run", help="run a method on a problem spec")
    p_run.add_argument("--problem", required=True,
                       help="problem spec: JSON file path or inline JSON")
    _add_method_args(p_run)
    _add_train_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_ingest = sub.add_parser("ingest", help="estimate from an externally scored CSV")
    p_ingest.add_argument("--samples", required=True, help="scored-sample CSV path")
    _add_method_args(p_ingest, m_default=None, reps_default=1)
    _add_train_args(p_ingest)
    p_ingest.set_defaults(func=_cmd_ingest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
