import csv
import functools
import json
import re

import numpy as np
import pytest

from steincv.bench import (
    BenchmarkConfig,
    METHODS,
    emit_report,
    report_from_dict,
    report_to_dict,
    run_benchmark,
    run_repetition,
)
from steincv.cli import main
from steincv.core import SPLIT_POLICIES, estimate_with_cv, split_samples
from steincv.targets import (
    GaussianTarget,
    mixture_to_json,
    random_mixture,
    sample_target,
    save_scored_samples,
)
from steincv.training import TrainConfig

GENZ1 = {"problem": "genz", "kind": "product_peak", "d": 1, "a": [1.0], "u": [0.5]}


def _small_config(method, **kw):
    defaults = dict(
        problem=GENZ1,
        method=method,
        n=120,
        m=60,
        repetitions=2,
        base_seed=0,
        train=TrainConfig(epochs=2),
    )
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


# a small network for nn_sgd, the one method that reads nn_hidden
_SMALL_NET = {"nn_sgd": {"nn_hidden": [6]}}


def _fail_every_fit(monkeypatch):
    """Make every fit raise, with an error text that holds commas, as numpy's
    shape errors do: a config that loads can still fail each repetition."""
    from steincv import bench

    def failing(config, train, rep):
        raise ValueError(f"no fit of {config.method}, rep {rep}, shape {train.states.shape}")

    monkeypatch.setattr(bench, "_fit_model", failing)


def _csv_rows_without_timing(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    timing = [i for i, name in enumerate(rows[0]) if name.endswith("_seconds")]
    return [[cell for i, cell in enumerate(row) if i not in timing] for row in rows]


def _counted_ingest_file(tmp_path, monkeypatch):
    """A 40-row scored-sample CSV, and the list that records every read of it."""
    from steincv import bench, problems, targets

    path = tmp_path / "in.csv"
    ss = sample_target(GaussianTarget(np.zeros(1), 1.0), 40, seed=1)
    save_scored_samples(path, ss.with_f_values(ss.states[:, 0]))
    calls = []
    load = targets.load_scored_samples
    for module in (bench, problems, targets):
        monkeypatch.setattr(
            module, "load_scored_samples", lambda *a, **k: calls.append(a) or load(*a, **k), raising=False
        )
    return path, calls


class TestRunBenchmark:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs(self, method):
        report = run_benchmark(_small_config(method, **_SMALL_NET.get(method, {})))
        assert report.n_failures == 0
        assert len(report.results) == 2
        assert report.mae is not None

    def test_deterministic_reports(self, tmp_path):
        cfg = _small_config("poly_sgd")
        a = run_benchmark(cfg)
        b = run_benchmark(cfg)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(a, pa)
        emit_report(b, pb)
        assert _csv_rows_without_timing(pa) == _csv_rows_without_timing(pb)

    def test_estimate_recomputable_from_split_and_model(self):
        from steincv.bench import _materialize, _derived_seed

        cfg = _small_config("kernel_exact")
        res = run_repetition(cfg, 1)
        samples, truth = _materialize(cfg, 1)
        split = split_samples(samples.n, cfg.m, cfg.split, seed=_derived_seed(cfg.base_seed + 1, 4))
        evl = samples.subset(split.eval_indices)
        est = estimate_with_cv(evl.f_values, res.model(evl.states, evl.scores))
        assert est.value == res.estimate
        assert abs(est.value - truth) == res.abs_error

    def test_failures_recorded_and_run_continues(self, monkeypatch):
        _fail_every_fit(monkeypatch)
        report = run_benchmark(_small_config("poly_exact", repetitions=3))
        assert report.n_failures == 3
        assert report.mae is None
        assert [r.error for r in report.results] == [
            f"ValueError: no fit of poly_exact, rep {rep}, shape (60, 1)" for rep in range(3)
        ]

    @pytest.mark.parametrize("method", ["kernel_exact", "nn_sgd"])
    def test_evaluation_runs_in_row_blocks(self, method, monkeypatch):
        # evaluation memory stays bounded: a kernel's Gram calls, and a
        # network's passes and the rows loaded into them, each span at most
        # 256 of the 1,100 evaluation rows
        from steincv import bench, kernels, mlp

        rows, passes, in_eval = [], [], [False]
        fit = bench._fit_model

        def fit_then_flag(*args):
            model = fit(*args)
            in_eval[0] = True
            return model

        def recording(fn, rows_arg, into):
            def wrapped(*args, **kwargs):
                if in_eval[0]:
                    into.append(args[2] if rows_arg is None else np.shape(args[rows_arg])[0])
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(bench, "_fit_model", fit_then_flag)
        monkeypatch.setattr(kernels, "stein_kernel_gram", recording(kernels.stein_kernel_gram, 0, rows))
        # a pass's row count is its third argument, (self, widths, n, keep)
        monkeypatch.setattr(mlp._Pass, "__init__", recording(mlp._Pass.__init__, None, passes))
        monkeypatch.setattr(mlp._Pass, "load", recording(mlp._Pass.load, 1, rows))
        config = _small_config(method, n=1200, m=100, **_SMALL_NET.get(method, {}))
        result = run_repetition(config, 0)
        assert result.error is None
        assert sum(rows) == 1100
        assert max(rows) <= 256
        # one pass, refilled per block, and one for the short last block
        assert passes == ([256, 76] if method == "nn_sgd" else [])

    def test_parallel_matches_serial(self):
        cfg = _small_config("poly_exact", repetitions=3)
        serial = run_benchmark(cfg)
        parallel = run_benchmark(BenchmarkConfig.from_dict({**cfg.to_dict(), "workers": 2}))
        assert [r.estimate for r in serial.results] == [r.estimate for r in parallel.results]

    def test_mc_uses_full_sample(self):
        from steincv.bench import _materialize

        cfg = _small_config("mc")
        res = run_repetition(cfg, 0)
        samples, _ = _materialize(cfg, 0)
        assert res.n_eval == samples.n
        assert res.estimate == pytest.approx(float(np.mean(samples.f_values)))

    def test_same_set_flag_propagates(self):
        cfg = _small_config("poly_exact", split="same_set", m=120)
        res = run_repetition(cfg, 0)
        assert res.same_set
        assert res.n_eval == 120

    def test_same_set_trains_on_n(self, tmp_path):
        # same_set fits on all n rows, so the config and its report hold m = n
        cfg = BenchmarkConfig(GENZ1, "poly_exact", n=120, split="same_set", repetitions=1)
        assert cfg.m == 120
        assert cfg == BenchmarkConfig(GENZ1, "poly_exact", n=120, m=120, split="same_set", repetitions=1)
        assert BenchmarkConfig.from_dict(cfg.to_dict()) == cfg
        path = tmp_path / "same.csv"
        emit_report(run_benchmark(cfg), path)
        with open(path, newline="") as fh:
            assert [row["m"] for row in csv.DictReader(fh)] == ["120"]
        with pytest.raises(ValueError, match="^m=60 but split same_set trains on all n=120 rows"):
            _small_config("poly_exact", split="same_set")

    def test_multi_kernel_ensemble(self):
        cfg = _small_config("ensemble_sgd", multi_kernel=True)
        report = run_benchmark(cfg)
        assert report.n_failures == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="unknown method"):
            BenchmarkConfig(problem=GENZ1, method="magic")
        with pytest.raises(ValueError):
            BenchmarkConfig(problem=GENZ1, method="mc", n=10, m=20)
        with pytest.raises(ValueError):
            BenchmarkConfig(problem=GENZ1, method="mc", repetitions=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("degree", 0),
            ("ridge", -1e-3),
            ("alpha1", -0.5),
            ("alpha2", 0.0),
            ("alpha2", -1.0),
            ("jitter", -1e-8),
            ("ridge", float("nan")),
            ("problem", {"problem": "bogus"}),
            ("problem", {"problem": "genz", "d": 1}),
            ("problem", {"problem": "genz", "kind": "bogus", "d": 1}),
            ("nn_hidden", [2.5]),
            ("nn_hidden", 20),
            ("nn_hidden", [0]),
            ("problem", {"problem": "genz", "kind": "continuous", "a": []}),
            ("problem", {"problem": "ingest", "path": "no/such/file.csv"}),
        ],
    )
    def test_bad_field_rejected_at_load(self, field, value):
        obj = {**_small_config("poly_exact").to_dict(), field: value}
        with pytest.raises(ValueError, match=f"^(unknown )?{field}"):
            BenchmarkConfig.from_dict(obj)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "train.lam", "train.gamma"])
    def test_non_finite_field_rejected_at_load(self, field, value):
        obj = _small_config("kernel_sgd").to_dict()
        key = field.removeprefix("train.")
        (obj["train"] if key != field else obj)[key] = value
        with pytest.raises(ValueError, match=f"^{key} .*must be finite"):
            BenchmarkConfig.from_dict(obj)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ridge", float("inf")),
            ("jitter", float("inf")),
            ("n", 120.0),
            ("m", 60.0),
            ("degree", 2.5),
            ("repetitions", 2.0),
            ("workers", 1.5),
            ("base_seed", 1.5),
            ("base_seed", -1),
        ],
    )
    def test_unusable_field_rejected_at_load(self, field, value):
        # each of these used to load and then fail every repetition or the run
        with pytest.raises(ValueError, match=f"^{field} must be"):
            _small_config("poly_exact", **{field: value})
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BenchmarkConfig.from_dict({**_small_config("poly_exact").to_dict(), field: value})

    @pytest.mark.parametrize("field,value", [("epochs", 2.5), ("batch_size", 2.5), ("seed", 1.5)])
    def test_unusable_train_field_rejected_at_load(self, field, value):
        # a float epoch count used to load and then fail every repetition
        obj = _small_config("poly_sgd").to_dict()
        obj["train"] = {**obj["train"], field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            BenchmarkConfig.from_dict(obj)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "ensemble_sgd"])
    def test_multi_kernel_rejected_unless_ensemble_sgd(self, method):
        # only ensemble_sgd fits two kernels; any other method would drop one
        with pytest.raises(ValueError, match=f"^multi_kernel .*{method}"):
            _small_config(method, multi_kernel=True)

    def test_multi_kernel_ensemble_exact_rejected_at_load(self):
        obj = {**_small_config("ensemble_exact").to_dict(), "multi_kernel": True}
        with pytest.raises(ValueError, match="^multi_kernel"):
            BenchmarkConfig.from_dict(obj)

    def test_genz_d_disagreeing_with_a_rejected_at_load(self):
        spec = {"problem": "genz", "kind": "product_peak", "d": 1, "a": [1.0, 1.0], "u": [0.5, 0.5]}
        with pytest.raises(ValueError, match=r"^problem genz: len\(a\)=2, len\(u\)=2, d=1 disagree"):
            BenchmarkConfig(problem=spec, method="mc")

    def test_genz_spec_with_only_a_runs_in_its_dimension(self):
        spec = {"problem": "genz", "kind": "continuous", "a": [1.0, 2.0, 3.0]}
        report = run_benchmark(_small_config("mc", problem=spec))
        assert report.n_failures == 0
        assert report.d == 3

    def test_fixed_gp_mixture_sets_d(self):
        spec = {"problem": "gp", "mixture": mixture_to_json(random_mixture(3, 2, seed=0))}
        report = run_benchmark(_small_config("nn_sgd", problem=spec, nn_hidden=[5]))
        assert report.n_failures == 0
        assert report.d == 3
        with pytest.raises(ValueError, match=r"^problem gp: d=2 disagrees.*dimension 3"):
            BenchmarkConfig(problem={**spec, "d": 2}, method="mc")

    def test_unknown_spec_key_rejected_and_named(self):
        with pytest.raises(ValueError, match=r"^problem gp: unknown key\(s\) \['dim'\]"):
            BenchmarkConfig(problem={"problem": "gp", "dim": 3}, method="mc")

    @pytest.mark.parametrize("key", ["lam", "sigma"])
    def test_nonpositive_gp_scale_rejected_at_load(self, key):
        with pytest.raises(ValueError, match=f"^problem gp: {key} must be > 0"):
            BenchmarkConfig(problem={"problem": "gp", key: 0.0}, method="mc")

    def test_gp_components_with_a_fixed_mixture_rejected_at_load(self):
        spec = {"problem": "gp", "mixture": mixture_to_json(random_mixture(3, 2, seed=0))}
        with pytest.raises(ValueError, match="^problem gp: components"):
            BenchmarkConfig(problem={**spec, "components": 2}, method="mc")

    @pytest.mark.parametrize("jitter", [-1e-8, float("nan"), float("inf"), 0.0])
    def test_bad_gp_jitter_rejected_at_load(self, jitter):
        with pytest.raises(ValueError, match="^problem gp: jitter"):
            BenchmarkConfig(problem={"problem": "gp", "jitter": jitter}, method="mc")

    def test_ingest_spec_checked_at_load(self, tmp_path):
        path = tmp_path / "in.csv"
        ss = sample_target(GaussianTarget(np.zeros(1), 1.0), 30, seed=0)
        save_scored_samples(path, ss.with_f_values(np.ones(30)))
        spec = {"problem": "ingest", "path": str(path)}
        with pytest.raises(ValueError, match="^n=999 but the ingested file has 30 rows"):
            BenchmarkConfig(problem=spec, method="mc", n=999, m=10)
        with pytest.raises(ValueError, match="^problem ingest: true_integral must be finite"):
            BenchmarkConfig(problem={**spec, "true_integral": float("nan")}, method="mc", n=30, m=10)
        cfg = BenchmarkConfig(problem=spec, method="nn_sgd", n=30, m=10, nn_hidden=[4])
        assert cfg.nn_hidden == [4]

    def test_ingest_file_without_f_rejected_at_load(self, tmp_path):
        path = tmp_path / "nof.csv"
        save_scored_samples(path, sample_target(GaussianTarget(np.zeros(1), 1.0), 30, seed=0))
        with pytest.raises(ValueError, match=f"^problem ingest: path {re.escape(str(path))}: the file has no f"):
            BenchmarkConfig(problem={"problem": "ingest", "path": str(path)}, method="mc", n=30, m=10)

    @pytest.mark.parametrize("source", ["genz", "ingest"])
    def test_network_widths_take_d_from_the_problem(self, source, tmp_path):
        if source == "genz":
            spec = {"problem": "genz", "kind": "continuous", "d": 3}
        else:
            spec = {"problem": "ingest", "path": str(tmp_path / "in.csv")}
            ss = sample_target(GaussianTarget(np.zeros(3), 1.0), 120, seed=0)
            save_scored_samples(spec["path"], ss.with_f_values(ss.states.sum(axis=1)))
        result = run_repetition(_small_config("nn_sgd", problem=spec, nn_hidden=[4]), 0)
        assert result.error is None
        assert result.model.widths == [3, 4, 1]

    def test_nn_widths_is_an_unknown_field(self):
        # the old key is not read as hidden widths: it fails as any unknown key
        obj = {**_small_config("nn_sgd").to_dict(), "nn_widths": [1, 6, 1]}
        del obj["nn_hidden"]
        with pytest.raises(ValueError, match=r"^unknown BenchmarkConfig field\(s\) \['nn_widths'\]"):
            BenchmarkConfig.from_dict(obj)

    def test_ingest_file_read_once(self, tmp_path, monkeypatch):
        path, calls = _counted_ingest_file(tmp_path, monkeypatch)
        cfg = BenchmarkConfig(
            problem={"problem": "ingest", "path": str(path)}, method="mc", n=40, m=20, repetitions=20
        )
        assert run_benchmark(cfg).n_failures == 0
        assert len(calls) == 1

    def test_ingest_subcommand_reads_the_file_once(self, tmp_path, monkeypatch):
        # without --n the row count comes from the one parse of the file
        path, calls = _counted_ingest_file(tmp_path, monkeypatch)
        assert main(["ingest", "--samples", str(path), "--method", "mc"]) == 0
        assert len(calls) == 1

    def test_bad_split_and_workers_fail_at_construction(self):
        with pytest.raises(ValueError, match="bogus.*first_m"):
            BenchmarkConfig(problem=GENZ1, method="mc", split="bogus")
        with pytest.raises(ValueError, match="workers"):
            BenchmarkConfig(problem=GENZ1, method="mc", workers=0)
        for policy in SPLIT_POLICIES:
            assert BenchmarkConfig(problem=GENZ1, method="mc", split=policy).split == policy

    def test_unknown_keys_named_with_valid_fields(self):
        obj = _small_config("mc").to_dict()
        obj["out"] = "report.json"
        with pytest.raises(ValueError, match="unknown BenchmarkConfig field.*out.*valid fields:.*split"):
            BenchmarkConfig.from_dict(obj)
        obj = _small_config("mc").to_dict()
        obj["train"]["epoch"] = 3
        with pytest.raises(ValueError, match="unknown TrainConfig field.*'epoch'.*valid fields.*'epochs'"):
            BenchmarkConfig.from_dict(obj)
        with pytest.raises(ValueError, match="unknown TrainConfig field.*lr"):
            TrainConfig.from_dict({"lr": 0.1})

    def test_method_order_is_stable(self):
        # CLI choices and per-method reports follow this order
        assert METHODS == (
            "mc",
            "poly_sgd",
            "poly_exact",
            "kernel_sgd",
            "kernel_exact",
            "nn_sgd",
            "ensemble_sgd",
            "ensemble_exact",
        )


# The method-specific fields that each method's fit reads, and a value of
# each that differs from its default
READS = {
    "mc": (),
    "poly_sgd": ("degree",),
    "poly_exact": ("degree", "ridge"),
    "kernel_sgd": ("alpha1", "alpha2"),
    "kernel_exact": ("alpha1", "alpha2", "jitter"),
    "nn_sgd": ("nn_hidden",),
    "ensemble_sgd": ("degree", "alpha1", "alpha2", "multi_kernel"),
    "ensemble_exact": ("degree", "alpha1", "alpha2", "jitter"),
}
NON_DEFAULT = {
    "degree": 1, "alpha1": 0.5, "alpha2": 2.0, "ridge": 1e-2, "jitter": 1e-3,
    "nn_hidden": [3], "multi_kernel": True,
}


@functools.cache
def _default_estimate(method):
    return run_repetition(_small_config(method), 0).estimate


class TestMethodTable:
    def test_every_method_has_a_row(self):
        assert tuple(READS) == METHODS

    @pytest.mark.parametrize("field", NON_DEFAULT)
    @pytest.mark.parametrize("method", METHODS)
    def test_a_field_loads_only_for_a_method_that_reads_it(self, method, field):
        config = {field: NON_DEFAULT[field]}
        if field not in READS[method]:
            # a field the fit never reads would be dropped without a word
            with pytest.raises(ValueError, match=f"^{field} is read only by .*, not by {method}$"):
                _small_config(method, **config)
            return
        result = run_repetition(_small_config(method, **config), 0)
        assert result.error is None
        assert result.estimate != _default_estimate(method)

    def test_unread_fields_named_at_load(self):
        obj = {**_small_config("poly_sgd").to_dict(), "nn_hidden": [4], "jitter": 1e-3, "alpha2": 2.0}
        with pytest.raises(ValueError, match="^alpha2 is read only by .*, not by poly_sgd$"):
            BenchmarkConfig.from_dict(obj)

    def test_nn_hidden_tuple_is_the_list(self):
        # stored as a list, so a tuple equal to the default is the default run
        config = _small_config("poly_sgd", nn_hidden=(20,) * 6)
        assert config == _small_config("poly_sgd")
        assert config.to_dict()["nn_hidden"] == [20] * 6
        with pytest.raises(ValueError, match="^nn_hidden is read only by nn_sgd, not by poly_sgd$"):
            _small_config("poly_sgd", nn_hidden=(4,))

    def test_multi_kernel_takes_no_alpha2(self):
        # both length-scales of the two kernels come from the median heuristic
        with pytest.raises(ValueError, match="^alpha2 .*not by ensemble_sgd with multi_kernel$"):
            _small_config("ensemble_sgd", multi_kernel=True, alpha2=3.0)

    @pytest.mark.parametrize("method", METHODS)
    def test_defaults_given_explicitly_load(self, method):
        # a value equal to its default is the run that leaves it out, and the
        # train block is shared by every method
        defaults = BenchmarkConfig(GENZ1, "mc").to_dict()
        given = {key: defaults[key] for key in NON_DEFAULT}
        train = TrainConfig(batch_size=8, epochs=1)
        config = _small_config(method, train=train, **given)
        assert config == _small_config(method, train=train)


class TestReports:
    def test_csv_layout(self, tmp_path):
        report = run_benchmark(_small_config("mc", repetitions=4))
        path = tmp_path / "out.csv"
        emit_report(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == (
            "method,problem,d,n,m,rep,estimate,abs_error,same_set,train_seconds,"
            "estimate_seconds,residual_variance,error"
        )
        assert len(lines) == 5
        assert lines[1].startswith("mc,genz:product_peak,1,120,60,0,")
        assert [line.split(",")[8] for line in lines[1:]] == ["False"] * 4
        for line, result in zip(lines[1:], report.results):
            cells = line.split(",")
            assert float(cells[11]) == result.residual_variance
            assert cells[12] == ""  # no error
        same_set = run_benchmark(_small_config("poly_exact", split="same_set", m=120))
        emit_report(same_set, path)
        rows = path.read_text().strip().splitlines()[1:]
        assert [row.split(",")[8] for row in rows] == ["True"] * 2

    def test_csv_error_text_stays_one_cell(self, tmp_path, monkeypatch):
        _fail_every_fit(monkeypatch)
        report = run_benchmark(_small_config("poly_exact"))
        assert report.n_failures == 2
        path = tmp_path / "out.csv"
        emit_report(report, path)
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        errors = [r.error for r in report.results]
        assert all("," in e for e in errors)
        assert all(len(row) == len(header) for row in rows)
        assert [row[header.index("error")] for row in rows] == errors

    def test_abs_error_empty_when_truth_unknown(self, tmp_path):
        csv = tmp_path / "in.csv"
        ss = sample_target(GaussianTarget(np.zeros(2), 1.0), 40, seed=1)
        save_scored_samples(csv, ss.with_f_values(ss.states.sum(axis=1)))
        cfg = BenchmarkConfig(
            problem={"problem": "ingest", "path": str(csv)},
            method="mc",
            n=40,
            m=20,
            repetitions=1,
        )
        report = run_benchmark(cfg)
        out = tmp_path / "out.csv"
        emit_report(report, out)
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[7] == ""  # abs_error column
        assert report.mae is None
        assert report.d == 2

    def test_json_roundtrip(self, tmp_path):
        report = run_benchmark(_small_config("poly_sgd", repetitions=2))
        path = tmp_path / "out.json"
        emit_report(report, path)
        loaded = report_from_dict(json.loads(path.read_text()))
        assert report_to_dict(loaded) == report_to_dict(report)

    def test_format_follows_the_path(self, tmp_path):
        report = run_benchmark(_small_config("mc", repetitions=1))
        emit_report(report, tmp_path / "x.json")
        emit_report(report, tmp_path / "x.bin")
        assert json.loads((tmp_path / "x.json").read_text())["n_failures"] == 0
        with open(tmp_path / "x.bin", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header[:2] == ["method", "problem"] and row[0] == "mc"


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "run",
                "--problem",
                json.dumps(GENZ1),
                "--method",
                "mc",
                "--n",
                "100",
                "--m",
                "50",
                "--reps",
                "2",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "mae=" in capsys.readouterr().out

    def test_bench_subcommand(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = _small_config("poly_exact", repetitions=1)
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / "b.json"
        assert main(["bench", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_failures"] == 0

    def test_ingest_subcommand(self, tmp_path, capsys):
        csv = tmp_path / "scored.csv"
        ss = sample_target(GaussianTarget(np.zeros(1), 1.0), 50, seed=5)
        save_scored_samples(csv, ss.with_f_values(ss.states[:, 0] ** 2))
        code = main(
            ["ingest", "--samples", str(csv), "--method", "poly_exact", "--degree", "2"]
        )
        assert code == 0
        assert "mae=n/a" in capsys.readouterr().out

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        _fail_every_fit(monkeypatch)
        cfg = _small_config("poly_exact", n=10, m=5, repetitions=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert "failed" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["first_m", "random"])
    def test_a_split_without_evaluation_rows_fails_at_load(self, split, capsys):
        # m = n under a disjoint split left no evaluation rows, so the config
        # loaded and then every repetition failed, mc included
        message = f"m=100 leaves no evaluation rows of n=100 under split {split}; it needs m < n"
        for method in METHODS:
            with pytest.raises(ValueError, match=f"^{message}$"):
                BenchmarkConfig(GENZ1, method, n=100, m=100, split=split)
        code = main(["run", "--problem", json.dumps(GENZ1), "--method", "mc", "--n", "100",
                     "--m", "100", "--split", split])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"steincv run: {message}\n"
        # one row to evaluate is enough
        assert BenchmarkConfig(GENZ1, "mc", n=100, m=99, split=split).m == 99

    def test_split_choices_are_the_policies(self, capsys):
        for policy in SPLIT_POLICIES:
            # same_set trains on all n rows, so it takes no m
            m = [] if policy == "same_set" else ["--m", "10"]
            code = main(
                ["run", "--problem", json.dumps(GENZ1), "--method", "mc", "--n", "20",
                 *m, "--reps", "1", "--split", policy]
            )
            assert code == 0
        with pytest.raises(SystemExit):
            main(["run", "--problem", json.dumps(GENZ1), "--method", "mc", "--split", "bogus"])

    def test_unset_flags_take_the_config_defaults(self, tmp_path, monkeypatch):
        from steincv import cli

        seen = []
        monkeypatch.setattr(cli, "run_benchmark", lambda cfg: seen.append(cfg) or run_benchmark(cfg))
        assert main(["run", "--problem", json.dumps(GENZ1), "--method", "mc"]) == 0
        assert seen[-1] == BenchmarkConfig(GENZ1, "mc")
        path = tmp_path / "scored.csv"
        ss = sample_target(GaussianTarget(np.zeros(1), 1.0), 50, seed=5)
        save_scored_samples(path, ss.with_f_values(np.ones(50)))
        assert main(["ingest", "--samples", str(path), "--method", "mc"]) == 0
        problem = {"problem": "ingest", "path": str(path)}
        assert seen[-1] == BenchmarkConfig(problem, "mc", n=50, m=25, repetitions=1)
        main(["run", "--problem", json.dumps(GENZ1), "--method", "ensemble_sgd", "--reps", "2",
              "--seed", "4", "--train-seed", "7", "--batch-size", "4", "--multi-kernel"])
        assert seen[-1] == BenchmarkConfig(
            GENZ1, "ensemble_sgd", repetitions=2, base_seed=4, multi_kernel=True,
            train=TrainConfig(seed=7, batch_size=4),
        )

    def test_no_format_flag(self):
        # the report format follows the --out path
        for command in (["run", "--problem", json.dumps(GENZ1), "--method", "mc"],
                        ["bench", "--config", "c.json"]):
            with pytest.raises(SystemExit):
                main([*command, "--format", "json"])

    def test_bench_config_with_unknown_key_fails_on_load(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        obj = _small_config("mc", repetitions=1).to_dict()
        obj["out"] = str(tmp_path / "ignored.csv")
        cfg_path.write_text(json.dumps(obj))
        assert main(["bench", "--config", str(cfg_path)]) == 2
        assert "'out'" in capsys.readouterr().err

    def test_config_that_does_not_load_is_one_line(self, capsys):
        code = main(["run", "--problem", json.dumps(GENZ1), "--method", "poly_exact",
                     "--jitter", "1e-3"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "steincv run: jitter is read only by kernel_exact, ensemble_exact, not by poly_exact\n"
        assert main(["bench", "--config", "no/such/config.json"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_inline_problem_json_or_file(self, tmp_path):
        spec_path = tmp_path / "p.json"
        spec_path.write_text(json.dumps(GENZ1))
        code = main(
            ["run", "--problem", str(spec_path), "--method", "mc", "--n", "50", "--m", "25", "--reps", "1"]
        )
        assert code == 0
