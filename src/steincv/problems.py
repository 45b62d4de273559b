"""Synthetic integration problems with analytically known answers: polynomial
integrands against a Gaussian, the six Genz test functions pushed to R^d through
the normal CDF, and integrands drawn jointly with their integral from a Gaussian
process; and the one parser of the JSON problem specs that name them."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import _derived_seed
from .kernels import _BLOCK_ENTRIES, _factor_spd
from .targets import (
    GaussianTarget,
    MixtureTarget,
    load_scored_samples,
    mixture_from_json,
    random_mixture,
    sample_target,
)

__all__ = [
    "GENZ_KINDS",
    "PolynomialIntegrand",
    "GenzProblem",
    "GpProblem",
    "standard_normal_cdf",
    "double_factorial",
    "sample_gp_problem",
    "gp_mean_embedding",
    "gp_double_integral",
    "Problem",
    "parse_problem",
]

GENZ_KINDS = (
    "continuous",
    "corner_peak",
    "discontinuous",
    "gaussian_peak",
    "oscillatory",
    "product_peak",
)

_MAX_SUBSET_DIM = 20


# erfc(x) = exp(-x^2) P(x / (x + 3)) for 0 <= x <= 6, P of degree 14 with
# P(0) = 1, coefficients in ascending order. They come from a minimax fit of
# erfcx(x) = exp(x^2) erfc(x) with the error weighted by exp(-x^2), so that the
# absolute error of erfc is leveled (Lawson's iteration on least squares over
# 240 Chebyshev points in the variable, 40-digit mpmath arithmetic): at most
# 2e-17 in exact arithmetic, 2.3e-16 in float64 against mpmath's erf.
_ERFC_SCALE = 3.0
_ERFC_COEFFS = (
    1.0, -3.38513750128655, 5.61486249871596, -5.695962509184167,
    3.1823874819348443, -0.3690577087004081, -0.5882359505024919,
    0.14771280852747634, 0.15721757020417312, -0.02275855392173296,
    -0.050476294693589725, -0.008318540003589054, 0.012769767719308218,
    0.014178195371428398, -0.009292437941511337,
)
# erf(6) rounds to 1, as erf does at every larger argument
_ERF_ONE_AT = 6.0


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function elementwise, as sign(x) (1 - erfc|x|), to within
    2.3e-16 absolute: exactly odd, 0 at 0, +-1 at +-inf, NaN at NaN."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _BLOCK_ENTRIES):
        xc = flat[lo : lo + _BLOCK_ENTRIES]
        a = np.minimum(np.abs(xc), _ERF_ONE_AT)
        s = a + _ERFC_SCALE
        np.divide(a, s, out=s)
        p = _ERFC_COEFFS[-1] * s
        for c in _ERFC_COEFFS[-2:0:-1]:
            p += c
            p *= s
        p += _ERFC_COEFFS[0]
        np.multiply(a, a, out=a)
        np.negative(a, out=a)
        p *= np.exp(a, out=a)
        np.subtract(1.0, p, out=p)
        np.copysign(p, xc, out=out[lo : lo + _BLOCK_ENTRIES])
    return out.reshape(x.shape)


def standard_normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the error function."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * (1.0 + _erf(x / np.sqrt(2.0)))


def double_factorial(k: int) -> int:
    """Product of integers of matching parity down to 1, with (-1)!! = 0!! = 1."""
    if k < -1:
        raise ValueError("double factorial defined here for k >= -1")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True)
class PolynomialIntegrand:
    """f(x) = sum_j prod_i coeffs[j,i] * x_i^exponents[j,i] against N(0, sigma2 I)."""

    coeffs: np.ndarray
    exponents: np.ndarray
    sigma2: float = 1.0

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=np.float64))
        exps = np.atleast_2d(np.asarray(self.exponents))
        if coeffs.shape != exps.shape:
            raise ValueError("coeffs and exponents must have equal shapes")
        exps_int = exps.astype(np.int64)
        if np.any(exps_int != exps) or np.any(exps_int < 0):
            raise ValueError("exponents must be non-negative integers")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError(f"sigma2 must be finite and > 0, got {self.sigma2}")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "exponents", exps_int)

    @property
    def d(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=np.float64))
        terms = np.prod(
            self.coeffs[None, :, :] * states[:, None, :] ** self.exponents[None, :, :],
            axis=2,
        )
        return terms.sum(axis=1)

    def integral(self) -> float:
        """Exact Gaussian integral via the even-moment double-factorial identity."""
        sigma = math.sqrt(self.sigma2)
        total = 0.0
        for j in range(self.coeffs.shape[0]):
            term = 1.0
            for i in range(self.d):
                beta = int(self.exponents[j, i])
                if beta % 2 == 1:
                    term = 0.0
                    break
                term *= self.coeffs[j, i] * sigma**beta * double_factorial(beta - 1)
            total += term
        return total


def _subset_sums(a: np.ndarray):
    """(-1)^|S| and 1 + the sum of a over S, for every subset S of the
    coordinates: two arrays of 2^d entries, doubled once per coordinate."""
    if a.size > _MAX_SUBSET_DIM:
        raise ValueError(f"corner_peak: subset sum limited to d <= {_MAX_SUBSET_DIM}")
    signs, sums = np.ones(1), np.ones(1)
    for aj in a:
        signs = np.concatenate([signs, -signs])
        sums = np.concatenate([sums, sums + aj])
    return signs, sums


@dataclass(frozen=True)
class GenzProblem:
    """One of the six Genz test functions on [0,1]^d with its exact integral."""

    kind: str
    a: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        if self.kind not in GENZ_KINDS:
            raise ValueError(f"unknown Genz kind {self.kind!r}; choose from {GENZ_KINDS}")
        a = np.asarray(self.a, dtype=np.float64).reshape(-1)
        u = np.asarray(self.u, dtype=np.float64).reshape(-1)
        if a.shape != u.shape:
            raise ValueError("a and u must have the same length")
        if not np.all((0 < a) & (a < math.inf)):
            raise ValueError("a must be finite and positive elementwise")
        if not np.all((0 <= u) & (u <= 1)):
            raise ValueError("u must lie in [0,1]^d")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "u", u)

    @classmethod
    def default(cls, kind: str, d: int) -> "GenzProblem":
        return cls(kind, np.full(d, 5.0), np.full(d, 0.5))

    @property
    def d(self) -> int:
        return self.a.shape[0]

    def eval_unit(self, y: np.ndarray) -> np.ndarray:
        """Evaluate on the unit cube."""
        y = np.atleast_2d(np.asarray(y, dtype=np.float64))
        a, u = self.a, self.u
        if self.kind == "continuous":
            return np.exp(-np.sum(a * np.abs(y - u), axis=1))
        if self.kind == "corner_peak":
            return (1.0 + y @ a) ** (-(self.d + 1.0))
        if self.kind == "discontinuous":
            inside = np.all(y <= u, axis=1)
            out = np.zeros(y.shape[0])
            out[inside] = np.exp(y[inside] @ a)
            return out
        if self.kind == "gaussian_peak":
            return np.exp(-np.sum((a * (y - u)) ** 2, axis=1))
        if self.kind == "oscillatory":
            return np.cos(2.0 * np.pi * u[0] + y @ a)
        # product_peak
        return np.prod(1.0 / (a**-2.0 + (y - u) ** 2), axis=1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the R^d version f(x) = h(Phi(x)) for a standard normal target."""
        return self.eval_unit(standard_normal_cdf(np.atleast_2d(x)))

    def integral(self) -> float:
        """Exact unit-cube integral (equals the Gaussian integral of the
        transformed version)."""
        a, u, d = self.a, self.u, self.d
        if self.kind == "continuous":
            return float(
                np.prod((2.0 - np.exp(a * (u - 1.0)) - np.exp(-a * u)) / a)
            )
        if self.kind == "corner_peak":
            # integrating (1 + a.y)^-(d+1) one coordinate at a time
            signs, sums = _subset_sums(a)
            scale = 1.0 / (math.factorial(d) * float(np.prod(a)))
            return math.fsum(signs * scale / sums)
        if self.kind == "discontinuous":
            return float(np.prod((np.exp(a * np.minimum(1.0, u)) - 1.0) / a))
        if self.kind == "gaussian_peak":
            per_dim = (np.sqrt(np.pi) / 2.0) / a * (_erf(a * (1.0 - u)) - _erf(-a * u))
            return float(np.prod(per_dim))
        if self.kind == "oscillatory":
            # Re of exp(i 2 pi u_1) prod_j (exp(i a_j) - 1) / (i a_j), with each
            # factor written exp(i a_j / 2) 2 sin(a_j / 2) / a_j
            phase = 2.0 * np.pi * u[0] + 0.5 * float(np.sum(a))
            return math.cos(phase) * float(np.prod(2.0 * np.sin(0.5 * a) / a))
        # product_peak
        return float(
            np.prod(a * (np.arctan((1.0 - u) * a) - np.arctan(-u * a)))
        )


def _sq_dists(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    sqa = np.einsum("id,id->i", xa, xa)
    sqb = np.einsum("id,id->i", xb, xb)
    return np.maximum(sqa[:, None] + sqb[None, :] - 2.0 * xa @ xb.T, 0.0)


def gp_mean_embedding(
    points: np.ndarray, mixture: MixtureTarget, lam: float, sigma: float
) -> np.ndarray:
    """Integral of the squared-exponential covariance c(x, .) against the mixture:
    lam^2 (sqrt(2 pi) sigma)^d times the density at x of the mixture with
    sigma^2 I added to every covariance."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    d = points.shape[1]
    widened = replace(mixture, covariances=mixture.covariances + sigma**2 * np.eye(d))
    return lam**2 * (np.sqrt(2.0 * np.pi) * sigma) ** d * np.exp(widened.log_density(points))


def gp_double_integral(mixture: MixtureTarget, lam: float, sigma: float) -> float:
    """Double mixture integral of the squared-exponential covariance: sum_l rho_l
    times the embedding at mu_l of the mixture with Sigma_l added to every
    covariance."""
    total = 0.0
    for rho, mu, cov in zip(mixture.weights, mixture.means, mixture.covariances):
        widened = replace(mixture, covariances=mixture.covariances + cov)
        total += rho * float(gp_mean_embedding(mu, widened, lam, sigma)[0])
    return total


@dataclass(frozen=True)
class GpProblem:
    """A function drawn from a centered GP, known only at sample points, together
    with the jointly sampled value of its integral against the mixture."""

    f_values: np.ndarray
    true_integral: float


def sample_gp_problem(
    points: np.ndarray,
    mixture: MixtureTarget,
    lam: float,
    sigma: float,
    seed: int,
    jitter: Optional[float] = None,
) -> GpProblem:
    """Draw (f(x_1), ..., f(x_n), integral) jointly from the GP marginal.

    The (n+1)-dimensional covariance stacks the kernel matrix, its mixture
    embedding at each point, and the double integral; jitter (default
    1e-10 * lam^2) escalates tenfold up to six times if the Cholesky fails.
    ``kernels._factor_spd`` owns that rule and checks that jitter is finite and > 0.
    """
    if not (0 < lam < math.inf and 0 < sigma < math.inf):
        raise ValueError("lam and sigma must be finite and > 0")
    eps = 1e-10 * lam**2 if jitter is None else float(jitter)
    if eps == 0.0 and jitter is None:
        raise ValueError(
            f"lam = {lam:g} is too small: the default jitter 1e-10 * lam**2 underflowed to 0; "
            "pass a jitter > 0"
        )
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    # every (n+1)^2 array is 50 MB at n = 2,500: the kernel block is formed in
    # cov, and each try writes its jitter onto cov's diagonal
    cov = np.empty((n + 1, n + 1))
    kernel = cov[:n, :n]
    np.divide(_sq_dists(points, points), -2.0 * sigma**2, out=kernel)
    np.exp(kernel, out=kernel)
    kernel *= lam**2
    cov[:n, n] = cov[n, :n] = gp_mean_embedding(points, mixture, lam, sigma)
    cov[n, n] = gp_double_integral(mixture, lam, sigma)
    failure = "GP joint covariance not positive definite even after escalation to jitter={:g}"
    chol = _factor_spd(cov, eps, "jitter", failure, np.linalg.cholesky, 7)
    z = np.random.default_rng(seed).standard_normal(n + 1)
    draw = chol @ z
    return GpProblem(draw[:n], float(draw[n]))


@dataclass(frozen=True)
class Problem:
    """A parsed problem spec: its report label, its dimension ``d`` and
    ``draw(n, rep_seed) -> (scored samples with f values, exact integral or
    None)``. ``n`` is the row count of an ingested sample set, which every draw
    returns whole; None where each draw samples n rows afresh."""

    label: str
    d: int
    sampler: Callable = field(repr=False)
    n: Optional[int] = None

    def draw(self, n: int, rep_seed: int):
        samples, truth = self.sampler(n, rep_seed)
        return samples, _finite(truth, "integral")


def _finite(value, key: str):
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value}")
    return value


def _positive(spec: dict, key: str, default, cast=float):
    value = spec.get(key, default)
    if cast is not int:
        value = cast(value)
    elif not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    # written so that NaN and +inf fail it
    if not 0 < value < math.inf:
        raise ValueError(f"{key} must be > 0 and finite, got {value}")
    return value


def _draw_fixed(target, integrand, truth, n, seed):
    samples = sample_target(target, n, _derived_seed(seed, 0))
    return samples.with_f_values(integrand(samples.states)), truth


def _fixed(label: str, target, integrand) -> Problem:
    truth = _finite(integrand.integral(), "integral")
    return Problem(label, integrand.d, partial(_draw_fixed, target, integrand, truth))


def _parse_genz(spec: dict) -> Problem:
    dims = {f"len({key})": np.size(spec[key]) for key in ("a", "u") if key in spec}
    if "d" in spec:
        dims["d"] = _positive(spec, "d", 1, int)
    if len(set(dims.values())) > 1:
        raise ValueError(f"{', '.join(f'{k}={v}' for k, v in dims.items())} disagree")
    d = next(iter(dims.values()), 1)
    if d < 1:
        raise ValueError("a and u must not be empty")
    given = {key: spec[key] for key in ("a", "u") if key in spec}
    genz = replace(GenzProblem.default(spec["kind"], d), **given)
    return _fixed(f"genz:{genz.kind}", GaussianTarget(np.zeros(d), 1.0), genz)


def _parse_poly(spec: dict) -> Problem:
    integrand = PolynomialIntegrand(
        np.asarray(spec["alpha"], dtype=np.float64),
        np.asarray(spec["beta"]),
        _positive(spec, "sigma2", 1.0),
    )
    return _fixed("poly", GaussianTarget(np.zeros(integrand.d), integrand.sigma2), integrand)


def _draw_gp(mixture, d, components, lam, sigma, jitter, n, seed):
    if mixture is None:
        mixture = random_mixture(d, components, _derived_seed(seed, 3))
    samples = sample_target(mixture, n, _derived_seed(seed, 0))
    gp = sample_gp_problem(samples.states, mixture, lam, sigma, _derived_seed(seed, 1), jitter)
    return samples.with_f_values(gp.f_values), gp.true_integral


def _parse_gp(spec: dict) -> Problem:
    lam, sigma = _positive(spec, "lam", 1.0), _positive(spec, "sigma", 1.0)
    jitter = None if spec.get("jitter") is None else _positive(spec, "jitter", None)
    mixture = spec.get("mixture")
    if mixture is None:
        d, components = _positive(spec, "d", 1, int), _positive(spec, "components", 3, int)
    elif "components" in spec:
        raise ValueError("components cannot be given with a fixed mixture, which sets them")
    elif not isinstance(mixture, dict):
        raise ValueError(f"mixture must be a JSON object, got {type(mixture).__name__}")
    else:
        mixture = mixture_from_json(mixture)
        d, components = mixture.dim, mixture.n_components
        if spec.get("d", d) != d:
            raise ValueError(f"d={spec['d']} disagrees with the mixture's dimension {d}")
    return Problem("gp", d, partial(_draw_gp, mixture, d, components, lam, sigma, jitter))


def _draw_ingest(samples, truth, n, seed):
    return samples, truth


def _parse_ingest(spec: dict) -> Problem:
    samples = load_scored_samples(spec["path"])
    if samples.f_values is None:
        raise ValueError(f"path {spec['path']}: the file has no f column")
    truth = spec.get("true_integral")
    truth = None if truth is None else _finite(float(truth), "true_integral")
    return Problem("ingest", samples.d, partial(_draw_ingest, samples, truth), samples.n)


# problem kind -> (parser, the spec keys it reads)
_KINDS = {
    "genz": (_parse_genz, ("kind", "d", "a", "u")),
    "poly": (_parse_poly, ("alpha", "beta", "sigma2")),
    "gp": (_parse_gp, ("d", "lam", "sigma", "components", "jitter", "mixture")),
    "ingest": (_parse_ingest, ("path", "true_integral")),
}


def parse_problem(spec: dict) -> Problem:
    """Parse a JSON problem spec, ``{"problem": kind, ...}`` with the keys of
    ``_KINDS``. Every spec error is raised here, its message starting with
    ``problem`` and naming the key; an ingested file is read here, once."""
    kind = spec.get("problem")
    if kind not in _KINDS:
        raise ValueError(f"problem {kind!r} is unknown; choose from {tuple(_KINDS)}")
    parser, keys = _KINDS[kind]
    unknown = sorted(set(spec) - {"problem", *keys})
    if unknown:
        raise ValueError(f"problem {kind}: unknown key(s) {unknown}; valid keys: {list(keys)}")
    try:
        return parser(spec)
    except KeyError as exc:
        raise ValueError(f"problem {kind}: missing key {exc}") from None
    except (OSError, TypeError, ValueError) as exc:
        raise ValueError(f"problem {kind}: {exc}") from None
