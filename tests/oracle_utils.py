"""Independent numerical oracles shared by the unit and acceptance tests."""

import itertools

import numpy as np


def gauss_legendre_cell(lo, hi, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def genz_unit_cube_quadrature(problem, nodes=80):
    """Tensor Gauss-Legendre integral of a Genz function over [0,1]^d.

    Each axis is split at u_i so the kinked (continuous) and truncated
    (discontinuous) integrands stay smooth inside every cell.
    """
    d = problem.d
    axis_cells = []
    for i in range(d):
        u = float(problem.u[i])
        breaks = sorted({0.0, u, 1.0})
        cells = [
            gauss_legendre_cell(breaks[j], breaks[j + 1], nodes)
            for j in range(len(breaks) - 1)
            if breaks[j + 1] > breaks[j]
        ]
        axis_cells.append(cells)
    total = 0.0
    for combo in itertools.product(*axis_cells):
        grids = np.meshgrid(*[c[0] for c in combo], indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        w = np.ones(1)
        for c in combo:
            w = np.outer(w, c[1]).ravel()
        total += float(w @ problem.eval_unit(pts))
    return total


def per_step_sgd(model, train, config):
    """Reference SGD loop for ``training.sgd_train``: one ``rng.integers`` draw
    per step and the batch objective through ``np.mean``, with the same
    schedule, offset update and row-blocked final objective. Returns
    (theta, offset, objective_trace, final_objective)."""
    from steincv import training

    wrapped = training.wrap_model(model, train)
    beta = training._resolve_beta(model, train, config, wrapped)
    rng = np.random.default_rng(config.seed)
    f, m, b = train.f_values, train.n, config.batch_size
    is_ls = config.objective == "least_squares"
    theta = wrapped.initial_params().astype(np.float64).copy()
    c = float(np.mean(f)) if is_ls else 0.0
    steps_per_epoch = -(-m // b)
    trace = np.empty(config.epochs)
    t = 0
    for epoch in range(config.epochs):
        epoch_obj = 0.0
        for _ in range(steps_per_epoch):
            t += 1
            idx = rng.integers(0, m, size=b)
            g, vjp = wrapped.batch_eval(theta, idx)
            if is_ls:
                resid = f[idx] - g - c
                obj = float(np.mean(resid * resid))
                upstream = (-2.0 / b) * resid
                grad_c = -2.0 * float(np.mean(resid))
            else:
                resid = f[idx] - g
                obj = training.objective_variance(resid)
                upstream = (-4.0 / (b - 1)) * (resid - resid.mean())
                grad_c = 0.0
            if config.lam > 0 and config.regularizer == "mean_g_squared":
                upstream = upstream + (2.0 * config.lam / b) * g
            grad = vjp(upstream)
            if config.lam > 0 and config.regularizer == "l2_theta":
                grad = grad + 2.0 * config.lam * theta
            if config.schedule == "inverse_time":
                alpha_t = beta / (config.gamma + t)
            else:
                alpha_t = config.alpha
            theta -= alpha_t * grad
            if is_ls:
                c -= alpha_t * grad_c
            epoch_obj += obj
        trace[epoch] = epoch_obj / steps_per_epoch
    g_full = np.concatenate([
        wrapped.batch_eval(theta, np.arange(lo, min(lo + 256, m)))[0] for lo in range(0, m, 256)
    ])
    if is_ls:
        final = float(np.mean((f - g_full - c) ** 2))
    else:
        final = training.objective_variance(f - g_full)
        c = float(np.mean(f - g_full))
    return theta, c, trace, final
