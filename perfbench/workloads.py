"""Workloads of the steincv benchmark and the benchmark's own closed-form
integrals, used to check the program's reported errors.

Every workload runs all eight methods of ``steincv.bench.METHODS`` on each of
its problems, with batch size 8. ``panel_rounds`` rounds use the fixed base
seed ``PANEL_SEED`` and feed ``mae_ratio``: a ratio of MAEs over a handful of
repetitions varies far more from one seed to the next than any bound could
allow, so the accuracy guard is taken on inputs that are the same in every
run and is exact given the code. The timed rounds after the panel use the
``--seed`` of the run as their base seed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

PANEL_SEED = 0

GENZ_KINDS = (
    "continuous",
    "corner_peak",
    "discontinuous",
    "gaussian_peak",
    "oscillatory",
    "product_peak",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    problems: tuple
    n: int
    m: int
    epochs: int
    panel_rounds: int


def _genz(kind: str, d: int) -> dict:
    return {"problem": "genz", "kind": kind, "d": d, "a": [1.0] * d, "u": [0.5] * d}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "table1_d1",
            "The paper's Table-1 setup: six Genz kinds at d=1, m=500; 1,575 batch-8 SGD "
            "steps per SGD method, so per-step Gram blocks, MLP passes and the SGD loop dominate.",
            tuple(_genz(kind, 1) for kind in GENZ_KINDS),
            n=1000,
            m=500,
            epochs=25,
            panel_rounds=1,
        ),
        Workload(
            "eval_genz_d10",
            "Evaluation-heavy and high-d: two Genz kinds at d=10, n=20000, m=250; tall "
            "19,750x250 Gram, 20k-row MLP forward pass and the p=65 polynomial basis.",
            (_genz("oscillatory", 10), _genz("gaussian_peak", 10)),
            n=20000,
            m=250,
            epochs=10,
            panel_rounds=2,
        ),
        Workload(
            "gp_mix_d3",
            "Large-m exact regime: GP integrand over a random 3-component mixture, "
            "n=2500, m=2000; poly_sgd fails on every repetition, so it is not listed.",
            ({"problem": "gp", "d": 3, "lam": 1.0, "sigma": 1.0},),
            n=2500,
            m=2000,
            epochs=2,
            panel_rounds=1,
        ),
    )
}


def genz_integral(spec: dict) -> float:
    """Closed-form integral over [0,1]^d of a Genz function with coefficients
    a and offsets u, which equals its integral against N(0, I) after the
    normal-CDF map. Written independently of ``steincv.problems``."""
    kind, a, u = spec["kind"], [float(v) for v in spec["a"]], [float(v) for v in spec["u"]]
    d = len(a)
    if kind == "continuous":
        return math.prod((2.0 - math.exp(ai * (ui - 1.0)) - math.exp(-ai * ui)) / ai for ai, ui in zip(a, u))
    if kind == "discontinuous":
        return math.prod((math.exp(ai * min(1.0, ui)) - 1.0) / ai for ai, ui in zip(a, u))
    if kind == "gaussian_peak":
        return math.prod(
            math.sqrt(math.pi) / (2.0 * ai) * (math.erf(ai * (1.0 - ui)) + math.erf(ai * ui))
            for ai, ui in zip(a, u)
        )
    if kind == "product_peak":
        return math.prod(ai * (math.atan(ai * (1.0 - ui)) + math.atan(ai * ui)) for ai, ui in zip(a, u))
    if kind == "oscillatory":
        # Re of exp(i 2 pi u_1) prod_j int_0^1 exp(i a_j y) dy
        phase = cmath.exp(2j * math.pi * u[0])
        return (phase * math.prod((cmath.exp(1j * ai) - 1.0) / (1j * ai) for ai in a)).real
    if kind == "corner_peak":
        # integrating (1 + a.y)^-(d+1) one coordinate at a time gives
        # sum over subsets S of (-1)^|S| / (1 + sum_S a), over d! prod(a)
        total = math.fsum(
            (-1.0) ** k / (1.0 + sum(a[i] for i in subset))
            for k in range(d + 1)
            for subset in itertools.combinations(range(d), k)
        )
        return total / (math.factorial(d) * math.prod(a))
    raise ValueError(f"unknown Genz kind {kind!r}")


def problem_label(spec: dict) -> str:
    return spec["kind"] if spec["problem"] == "genz" else spec["problem"]
