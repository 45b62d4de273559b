"""Independent numerical oracles shared by the unit and acceptance tests."""

import itertools

import numpy as np


def base_kernel(x, y, params):
    """k(x, y) = (1 + a1|x|^2 + a1|y|^2)^{-1} exp(-|x-y|^2 / (2 a2^2)) of one
    pair of points, for ``params`` a ``kernels.BaseKernelParams``."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    a1, a2 = params.alpha1, params.alpha2
    pref = 1.0 / (1.0 + a1 * (x @ x) + a1 * (y @ y))
    diff = x - y
    return float(pref * np.exp(-(diff @ diff) / (2.0 * a2 * a2)))


def base_kernel_derivatives(x, y, params):
    """Analytic (grad_x k, grad_y k, div_x grad_y k) of the base kernel.

    Derived by the product rule on the inverse-quadratic prefactor
    p = (1 + a1|x|^2 + a1|y|^2)^{-1} and the Gaussian factor
    q = exp(-|x-y|^2 / (2 a2^2)):

        grad_x k = -p q (2 a1 p x + (x - y) / a2^2)
        grad_y k = -p q (2 a1 p y - (x - y) / a2^2)
        div      = 8 a1^2 (x.y) p^3 q - 2 a1 p^2 q |x-y|^2 / a2^2
                   + p q (d / a2^2 - |x-y|^2 / a2^4)
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    d = x.shape[0]
    a1, a2 = params.alpha1, params.alpha2
    inv_a2sq = 1.0 / (a2 * a2)
    p = 1.0 / (1.0 + a1 * (x @ x) + a1 * (y @ y))
    diff = x - y
    r2 = diff @ diff
    q = np.exp(-0.5 * r2 * inv_a2sq)
    pq = p * q
    grad_x = -pq * (2.0 * a1 * p * x + diff * inv_a2sq)
    grad_y = -pq * (2.0 * a1 * p * y - diff * inv_a2sq)
    div = (
        8.0 * a1 * a1 * (x @ y) * p**3 * q
        - 2.0 * a1 * p * pq * r2 * inv_a2sq
        + pq * (d * inv_a2sq - r2 * inv_a2sq * inv_a2sq)
    )
    return grad_x, grad_y, float(div)


def fd_base_kernel_derivatives(x, y, params, h):
    """(grad_x k, grad_y k, div_x grad_y k) by central differences of
    ``base_kernel`` with step h; the cross stencil of the divergence floors at
    about eps / h^2 absolute."""
    d = x.shape[0]
    fd_gx, fd_gy, fd_div = np.empty(d), np.empty(d), 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fd_gx[i] = (base_kernel(x + e, y, params) - base_kernel(x - e, y, params)) / (2 * h)
        fd_gy[i] = (base_kernel(x, y + e, params) - base_kernel(x, y - e, params)) / (2 * h)
        fd_div += (
            base_kernel(x + e, y + e, params)
            - base_kernel(x + e, y - e, params)
            - base_kernel(x - e, y + e, params)
            + base_kernel(x - e, y - e, params)
        ) / (4 * h * h)
    return fd_gx, fd_gy, fd_div


def fd_stein_kernel(x, y, sx, sy, params, h):
    """The zero-mean kernel div_x grad_y k + grad_x k . s_y + grad_y k . s_x
    + k s_x . s_y of one pair, with the derivatives of the base kernel taken by
    ``fd_base_kernel_derivatives``."""
    gx, gy, div = fd_base_kernel_derivatives(x, y, params, h)
    return div + gx @ sy + gy @ sx + base_kernel(x, y, params) * (sx @ sy)


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
