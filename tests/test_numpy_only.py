"""numpy is the only runtime dependency: no steincv code path loads a scipy
module, and the numpy code that took the place of scipy's erf, pdist and
Cholesky solve agrees with them. scipy is the reference here, and a test-only
dependency."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, special
from scipy.spatial.distance import pdist

import steincv
from steincv.kernels import _pair_sq_distances, median_heuristic
from steincv.poly import enumerate_multi_indices, fit_poly_exact, stein_poly_basis
from steincv.problems import _erf, standard_normal_cdf
from steincv.targets import GaussianTarget, sample_target, save_scored_samples

# Runs one repetition of every method on each (spec, n, m) of argv[1] and
# prints the failed repetitions and every scipy module then loaded.
_EVERY_METHOD = textwrap.dedent(
    """
    import json, sys
    import steincv, steincv.bench, steincv.cli
    from steincv.bench import METHODS, BenchmarkConfig, run_repetition
    from steincv.training import TrainConfig

    failed = []
    for spec, n, m in json.loads(sys.argv[1]):
        for method in METHODS:
            config = BenchmarkConfig(
                problem=spec, method=method, n=n, m=m, repetitions=1,
                train=TrainConfig(epochs=1), **({"nn_hidden": [4]} if method == "nn_sgd" else {}),
            )
            error = run_repetition(config, 0).error
            if error is not None:
                failed.append([spec["problem"], method, error])
    scipy = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
    print(json.dumps({"failed": failed, "scipy": scipy}))
    """
)


def test_no_method_loads_scipy(tmp_path):
    csv = tmp_path / "in.csv"
    ss = sample_target(GaussianTarget(np.zeros(2), 1.0), 60, seed=1)
    save_scored_samples(csv, ss.with_f_values(ss.states.sum(axis=1)))
    runs = [
        ({"problem": "genz", "kind": "gaussian_peak", "d": 1}, 120, 60),
        ({"problem": "genz", "kind": "oscillatory", "d": 10}, 200, 100),
        ({"problem": "gp", "d": 2}, 120, 60),
        ({"problem": "poly", "alpha": [[1.0, 2.0]], "beta": [[2, 1]]}, 120, 60),
        ({"problem": "ingest", "path": str(csv), "true_integral": 0.0}, 60, 30),
    ]
    src = str(Path(steincv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _EVERY_METHOD, json.dumps(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["failed"] == []
    assert result["scipy"] == []


class TestErf:
    def test_matches_scipy_on_a_dense_grid(self):
        x = np.linspace(-9.0, 9.0, 360_001)
        assert np.max(np.abs(_erf(x) - special.erf(x))) <= 1e-15

    def test_matches_scipy_on_a_d10_draw(self):
        states = sample_target(GaussianTarget(np.zeros(10), 1.0), 20_000, seed=7).states
        x = states / np.sqrt(2.0)
        assert np.max(np.abs(_erf(x) - special.erf(x))) <= 1e-15
        phi = 0.5 * (1.0 + special.erf(x))
        assert np.max(np.abs(standard_normal_cdf(states) - phi)) <= 1e-15

    def test_special_values(self):
        x = np.linspace(-7.0, 7.0, 20_001)
        assert np.array_equal(_erf(-x), -_erf(x))
        assert _erf(0.0) == 0.0
        assert standard_normal_cdf(0.0) == 0.5
        edge = _erf(np.array([np.inf, -np.inf, 6.0, 1e300, np.nan]))
        assert np.array_equal(edge[:4], [1.0, -1.0, 1.0, 1.0])
        assert np.isnan(edge[4])

    def test_keeps_the_shape(self):
        x = np.arange(-3.0, 3.0, 0.5).reshape(3, 4)
        assert _erf(x).shape == (3, 4)
        np.testing.assert_array_equal(_erf(x), _erf(x.ravel()).reshape(3, 4))


@pytest.mark.parametrize("d", [1, 2, 3, 10])
@pytest.mark.parametrize("m", [2, 3, 500, 1001])
def test_median_heuristic_is_bitwise_pdist(m, d):
    rng = np.random.default_rng(100 * m + d)
    x = rng.normal(scale=rng.uniform(0.1, 10.0), size=(m, d))
    if m > 2:
        x[-1] = x[0]  # a duplicate row: one pair at distance 0
    sq = pdist(x, "sqeuclidean")
    np.testing.assert_array_equal(np.sort(_pair_sq_distances(x)), np.sort(sq))
    assert median_heuristic(x) == float(np.sqrt(np.median(sq) / 2.0))


def _moments(train, mi):
    basis = stein_poly_basis(train.states, train.scores, mi)
    bc = basis - basis.mean(axis=0)
    fc = train.f_values - train.f_values.mean()
    return (bc.T @ bc) / (train.n - 1), (bc.T @ fc) / (train.n - 1)


@pytest.mark.parametrize("d, degree, m", [(1, 3, 100), (2, 2, 200), (3, 3, 300), (10, 2, 250)])
@pytest.mark.parametrize("ridge", [0.0, 1e-3])
def test_poly_exact_matches_cho_solve(d, degree, m, ridge):
    train = sample_target(GaussianTarget(np.zeros(d), 1.0), m, seed=d)
    train = train.with_f_values(np.cos(train.states.sum(axis=1)))
    mi = enumerate_multi_indices(d, degree)
    v_hat, c_hat = _moments(train, mi)
    theta = linalg.cho_solve(linalg.cho_factor(v_hat + ridge * np.eye(mi.p)), c_hat)
    np.testing.assert_allclose(fit_poly_exact(train, mi, ridge).theta, theta, rtol=1e-12)


def test_poly_exact_rank_deficient_basis_fails_as_cho_factor_does():
    train = sample_target(GaussianTarget(np.zeros(10), 1.0), 30, seed=2)
    train = train.with_f_values(train.states[:, 0])
    mi = enumerate_multi_indices(10, 2)  # 65 columns, rank at most 29
    v_hat, _ = _moments(train, mi)
    with pytest.raises(np.linalg.LinAlgError):
        linalg.cho_factor(v_hat)
    with pytest.raises(ValueError, match="singular basis moment matrix"):
        fit_poly_exact(train, mi, 0.0)
