"""steincv benchmark: per-method repetition time beside accuracy against plain
Monte Carlo, with an outside-in layer trace.

    python3 perfbench/run.py --workload table1_d1 --seed 1 --seconds 45 --trace 0

A closed loop in one process, one repetition at a time (workers = 1, BLAS at
its default thread count): each round runs ``steincv.bench.run_repetition``
once for every problem of the workload and every method, timing each call
from outside and checking its output. Times are scaled to a reference CPU
speed, gauged after every repetition. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs each repetition untraced and then traced (order
alternating) and prints the per-layer metrics. The last line of standard
output is the JSON result; the full record, with every repetition's time,
goes to ``.perfbench/`` in the checkout. See perfbench/NOTES.md.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layertrace  # noqa: E402
from workloads import PANEL_SEED, WORKLOADS, genz_integral, problem_label  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

TIMED_METHODS = ("poly_exact", "poly_sgd", "kernel_exact", "kernel_sgd", "ensemble_exact", "ensemble_sgd", "nn_sgd")
END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB")]
    + [(f"rep_s.{m}", "s") for m in TIMED_METHODS]
    + [(f"mae_ratio.{m}", "ratio") for m in TIMED_METHODS]
)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
METHODS = ("mc",) + TIMED_METHODS  # mc: the accuracy reference
SETUP_PROBES = 4  # fresh processes whose set-up time joins this one's in the median
ABS_TOL, REL_TOL = 1e-12, 1e-9  # abs_error against the benchmark's own truth
# Typical reference_seconds() on the 2-CPU shared container that set the
# bounds (Python 3.11.7): timings are scaled to that speed. See NOTES.md.
REFERENCE_NOMINAL_S = 0.004


def load_steincv() -> None:
    """Import steincv from this checkout's src/, never from anywhere else."""
    if not (SRC / "steincv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no steincv package under {SRC}")
    sys.path.insert(0, str(SRC))
    import steincv
    import steincv.bench

    if Path(steincv.__file__).resolve().parent != (SRC / "steincv").resolve():
        raise SystemExit(f"perfbench: imported steincv from {steincv.__file__}, not {SRC}")


def check_definitions() -> None:
    """Metric names are well formed; BENCHMARK.json, if present, lists the
    same metrics and units, and workloads defined here with the same why."""
    ours = {"end_to_end": dict(END_TO_END), "per_layer": dict(layertrace.LAYER_METRICS)}
    for kind, metrics in ours.items():
        for name in metrics:
            if not METRIC_NAME.fullmatch(name):
                raise SystemExit(f"perfbench: bad metric name {name!r}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return
    spec = json.loads(spec_path.read_text())
    for kind, metrics in ours.items():
        if {item["name"]: item["unit"] for item in spec[kind]} != metrics:
            raise SystemExit(f"perfbench: BENCHMARK.json {kind} metrics differ from the benchmark's")
    for item in spec["workloads"]:
        if item["name"] not in WORKLOADS or WORKLOADS[item["name"]].why != item["why"]:
            raise SystemExit(f"perfbench: BENCHMARK.json workload {item['name']!r} differs from workloads.py")


def make_configs(wl, n: int, m: int, epochs: int) -> dict:
    from steincv.bench import BenchmarkConfig
    from steincv.training import TrainConfig

    train = TrainConfig(batch_size=8, epochs=epochs)
    return {
        (pi, method): BenchmarkConfig(problem=spec, method=method, n=n, m=m, train=train, repetitions=1)
        for pi, spec in enumerate(wl.problems)
        for method in METHODS
    }


def warm_up(wl) -> list[str]:
    """Run every method on a reduced copy of the first problem, then replay
    each (config, rep) and require the identical estimate."""
    import steincv.bench as bench

    d = wl.problems[0]["d"]
    p = math.comb(d + 2, 2) - 1  # degree-2 basis size
    m = max(64, 2 * p + 2)
    configs = [cfg for (pi, _), cfg in make_configs(wl, 2 * m, m, 1).items() if pi == 0]
    problems = []
    for cfg in configs:
        first = bench.run_repetition(cfg, 0)
        problems += check_replay(cfg.method, bench.run_repetition(cfg, 0), first)
    return problems


class Truths:
    """The benchmark's own value of each problem's integral: the closed form
    for Genz problems; for GP problems the jointly drawn value, re-drawn."""

    def __init__(self, wl):
        self.wl = wl
        self.cache = {}

    def get(self, pi: int, cfg, rep: int) -> float:
        spec = self.wl.problems[pi]
        key = pi if spec["problem"] == "genz" else (pi, cfg.base_seed, rep)
        if key not in self.cache:
            if spec["problem"] == "genz":
                self.cache[key] = genz_integral(spec)
            else:
                import steincv.bench as bench

                self.cache[key] = float(bench._materialize(cfg, rep)[1])
        return self.cache[key]


def check_result(wl, truths: Truths, pi: int, cfg, rep: int, res) -> list[str]:
    where = f"{cfg.method} {problem_label(wl.problems[pi])} base seed {cfg.base_seed} rep {rep}"
    if res.error is not None:
        if res.estimate is not None or not str(res.error).strip():
            return [f"{where}: failed repetition without its error text"]
        return []
    if res.estimate is None or not math.isfinite(res.estimate):
        return [f"{where}: non-finite estimate {res.estimate!r}"]
    want = abs(res.estimate - truths.get(pi, cfg, rep))
    if res.abs_error is None or abs(res.abs_error - want) > ABS_TOL + REL_TOL * want:
        return [f"{where}: abs_error {res.abs_error!r}, recomputed {want!r}"]
    return []


def check_replay(method: str, res, first) -> list[str]:
    if same(res, first):
        return []
    return [f"{method}: replay gave {res.estimate!r} / {res.error!r}, first run {first.estimate!r} / {first.error!r}"]


def run_item(cfg, rep: int):
    import steincv.bench as bench

    start = time.perf_counter()
    res = bench.run_repetition(cfg, rep)  # looked up per call, so the tracer's binding is used
    return time.perf_counter() - start, res


def reference_seconds() -> float:
    """Time of a fixed pure-Python loop, the fastest of three: a gauge of the
    CPU speed the process gets at this moment. On shared hosts that speed
    moves by up to 1.6x over tens of seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(50_000):
            total += k * k
        best = min(best, time.perf_counter() - start)
    return best


def record(wl, pi, cfg, rep, seconds, res, panel, traced=None) -> dict:
    out = {
        "problem": problem_label(wl.problems[pi]),
        "method": cfg.method,
        "base_seed": cfg.base_seed,
        "rep": rep,
        "seconds": seconds,
        "estimate": res.estimate,
        "abs_error": res.abs_error,
        "error": res.error,
        "panel": panel,
    }
    if traced is not None:
        out["traced"] = traced
    return out


def blocks(wl, seed: int, seconds: float, panel: bool):
    """Yield (base_seed, rep, problem index, is_panel) for each block of
    repetitions, one block being every method on one problem. The panel
    blocks always run; timed blocks follow, round by round, while the next
    block is expected to end within ``seconds`` of the first (at least one
    block in all)."""
    start = time.perf_counter()
    done = 0
    if panel:
        for rep in range(wl.panel_rounds):
            for pi in range(len(wl.problems)):
                yield PANEL_SEED, rep, pi, True
                done += 1
    rep = wl.panel_rounds if panel else 0
    while True:
        for pi in range(len(wl.problems)):
            elapsed = time.perf_counter() - start
            if done and elapsed + elapsed / done > seconds:
                return
            yield seed, rep, pi, False
            done += 1
        rep += 1


def median_or_none(values):
    return statistics.median(values) if values else None


def accuracy(wl, records) -> dict:
    """Per method and problem: the method's MAE over its successful panel
    reps over mc's MAE on the same reps (None without a successful rep)."""
    panel = [r for r in records if r["panel"]]
    mc = {(r["problem"], r["rep"]): r["abs_error"] for r in panel if r["method"] == "mc" and r["error"] is None}
    out = {}
    for method in TIMED_METHODS:
        for label in map(problem_label, wl.problems):
            pairs = [
                (r["abs_error"], mc[(label, r["rep"])])
                for r in panel
                if r["method"] == method and r["problem"] == label and r["error"] is None and (label, r["rep"]) in mc
            ]
            out.setdefault(method, {})[label] = (
                statistics.fmean(e for e, _ in pairs) / statistics.fmean(b for _, b in pairs) if pairs else None
            )
    return out


def geometric_mean(values):
    """None if any value is missing: a cell with no successful rep."""
    if any(v is None for v in values):
        return None
    return math.exp(statistics.fmean(math.log(v) for v in values))


def prime(configs, base_seed: int) -> dict:
    """Run the first block (problem 0, rep 0) at full size, untimed. Without
    it the first timed block ran 15-30% slower than the rest: the first
    full-size repetitions pay one-off costs such as fresh memory pages. The
    first timed block replays these (config, rep) pairs and must match."""
    return {m: run_item(dataclasses.replace(configs[0, m], base_seed=base_seed), 0)[1] for m in METHODS}


def same(a, b) -> bool:
    """Two repetition results agree exactly: estimate and error text."""
    return (a.estimate, a.error) == (b.estimate, b.error)


def timed_run(wl, seed: int, seconds: float, setup_samples: list[float]):
    configs = make_configs(wl, wl.n, wl.m, wl.epochs)
    truths = Truths(wl)
    records, problems = [], []
    primed = prime(configs, PANEL_SEED)
    gauges = [reference_seconds()]
    for base_seed, rep, pi, panel in blocks(wl, seed, seconds, panel=True):
        gauges = gauges[-1:]
        block = []
        for method in METHODS:
            cfg = dataclasses.replace(configs[pi, method], base_seed=base_seed)
            secs, res = run_item(cfg, rep)
            gauges.append(reference_seconds())
            if (base_seed, rep, pi) == (PANEL_SEED, 0, 0):
                problems += check_replay(method, res, primed[method])
            problems += check_result(wl, truths, pi, cfg, rep, res)
            block.append(record(wl, pi, cfg, rep, secs, res, panel))
            block[-1]["gauges_s"] = gauges[-2:]
        scale = REFERENCE_NOMINAL_S / statistics.median(gauges)
        for r in block:
            r["scaled_s"] = r["seconds"] * scale
        records += block
    values = {
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for method in TIMED_METHODS:
        values[f"rep_s.{method}"] = median_or_none(
            [r["scaled_s"] for r in records if r["method"] == method and r["error"] is None]
        )
    by_problem = accuracy(wl, records)
    for method, ratios in by_problem.items():
        values[f"mae_ratio.{method}"] = geometric_mean(list(ratios.values()))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END if values[name] is not None}
    return records, problems, metrics, by_problem


def traced_run(wl, seed: int, seconds: float, run_id: str):
    configs = make_configs(wl, wl.n, wl.m, wl.epochs)
    truths = Truths(wl)
    tracer = layertrace.Tracer()
    tracer.prepare()
    records, problems = [], []
    plain_s = traced_s = 0.0
    n_blocks = 0
    primed = prime(configs, seed)
    for base_seed, rep, pi, _ in blocks(wl, seed, seconds, panel=False):
        n_blocks += 1
        for method in METHODS:
            cfg = dataclasses.replace(configs[pi, method], base_seed=base_seed)
            item = len(records) // 2
            results = {}
            for traced in (False, True) if item % 2 == 0 else (True, False):
                if traced:
                    tracer.rep = item
                    tracer.install()
                try:
                    secs, res = run_item(cfg, rep)
                finally:
                    tracer.uninstall()
                results[traced] = res
                problems += check_result(wl, truths, pi, cfg, rep, res)
                records.append(record(wl, pi, cfg, rep, secs, res, False, traced))
                if traced:
                    traced_s += secs
                else:
                    plain_s += secs
            if not same(results[True], results[False]):
                problems.append(f"{method} rep {rep}: tracing changed the result")
            if (rep, pi) == (0, 0):
                problems += check_replay(method, results[False], primed[method])
    metrics = layertrace.layer_metrics(tracer, n_blocks / len(wl.problems), traced_s / plain_s - 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    with gzip.open(OUT_DIR / f"spans-{run_id}.json.gz", "wt") as fh:
        json.dump({"names": tracer.names, "fields": ["name", "start", "end", "parent", "rep", "rows", "entries"], "spans": tracer.spans}, fh)
    return records, problems, metrics, None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_head": git_head(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def git_head():
    """HEAD commit read from .git in the checkout, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def setup_probe(args) -> dict:
    """Set up in a fresh process; returns its set-up seconds and replay problems."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timing_line(method: str, times: list[float]) -> str:
    """Sample count, median and the highest percentile with ten samples beyond it."""
    times = sorted(times)
    line = f"  {method:15s} reps={len(times):4d}"
    if times:
        line += f" median={statistics.median(times):.4f}s"
    if len(times) > 10:
        line += f" p{100 * (len(times) - 10) / len(times):.0f}={times[-11]:.4f}s"
    return line


def summary_lines(records, by_problem) -> list[str]:
    lines = []
    for method in TIMED_METHODS:
        mine = [r for r in records if r["method"] == method]
        ok = [r for r in mine if r["error"] is None]
        line = timing_line(method, [r["scaled_s"] for r in ok])
        if ok:
            line += f" (wall median={statistics.median(r['seconds'] for r in ok):.4f}s)"
        line += f" failed={len(mine) - len(ok)} mae_ratio by problem: "
        line += ", ".join(f"{label}={'missing' if v is None else format(v, '.3g')}" for label, v in by_problem[method].items())
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    load_steincv()
    check_definitions()
    layertrace.self_check()
    problems = warm_up(wl)
    setup_wall_s = time.perf_counter() - _PROCESS_START
    setup_s = setup_wall_s * REFERENCE_NOMINAL_S / reference_seconds()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s, "problems": problems}))
        return 0

    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        records, run_problems, metrics, by_problem = traced_run(wl, args.seed, args.seconds, run_id)
        setup_samples = [setup_s]
        setup_wall = [setup_wall_s]
    else:
        probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
        setup_samples = [setup_s] + [probe["setup_s"] for probe in probes]
        setup_wall = [setup_wall_s] + [probe["setup_wall_s"] for probe in probes]
        problems += [p for probe in probes for p in probe["problems"]]
        records, run_problems, metrics, by_problem = timed_run(wl, args.seed, args.seconds, setup_samples)
    problems += run_problems
    result = {
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["error"] is not None),
        "metrics": metrics,
    }
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    full = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": env, "setup_samples_s": setup_samples, "setup_wall_s": setup_wall, "check_problems": problems,
            "mae_ratio_by_problem": by_problem,
            "records": records, "result": result}
    (OUT_DIR / f"result-{run_id}.json").write_text(json.dumps(full, indent=1))

    print(f"perfbench {run_id}: {len(records)} repetitions, {result['failed']} failed "
          f"({result['failed'] / len(records):.1%}), "
          f"{len(problems)} check problems; environment {json.dumps(env)}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    if not args.trace:
        print("\n".join(summary_lines(records, by_problem)))
    for name, item in metrics.items():
        print(f"  {name} = {item['value']:.6g} {item['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
