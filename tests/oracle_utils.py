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
    beta = training._resolve_beta(config, wrapped) if config.alpha is None else None
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
            if config.alpha is None:
                alpha_t = beta / (config.gamma + t)
            else:
                alpha_t = config.alpha
            theta -= alpha_t * grad
            if is_ls:
                c -= alpha_t * grad_c
            epoch_obj += obj
        trace[epoch] = epoch_obj / steps_per_epoch
    # g of the final parameters, as the fitted control variate evaluates it:
    # through ``values``, whose agreement with the feature rows is tested apart
    g_full = np.concatenate([
        wrapped.values(theta, np.arange(lo, min(lo + 256, m))) for lo in range(0, m, 256)
    ])
    if is_ls:
        final = float(np.mean((f - g_full - c) ** 2))
    else:
        final = training.objective_variance(f - g_full)
        c = float(np.mean(f - g_full))
    return theta, c, trace, final


def _stacked_block_sum(a):
    """Sum of a stack over its leading blocks, taken as ``mlp`` takes it: one
    block as it is, two by one add, more by one reduction."""
    if len(a) == 1:
        return a[0]
    if len(a) == 2:
        return a[0] + a[1]
    return a.sum(0)


def stacked_pass_reference(net, states, scores, upstream):
    """Allocate-per-op reference of the stacked network pass in ``mlp``:
    the operator output g, the parameter gradient of sum_i upstream_i g(x_i)
    and the per-row parameter gradients (n, n_params). Every elementwise
    operation and reduction is the production pass's, in its order, and every
    GEMM has its shapes, so the results must agree bit for bit."""
    n, d = states.shape
    z = np.empty((d + 2, n, d))
    z[0] = states
    z[1 : d + 1] = np.eye(d)[:, None, :]
    z[d + 1] = 0.0
    layers = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        o, k = w.shape
        z_in = z
        z = np.dot(z_in.reshape(-1, k), w.T).reshape(d + 2, n, o)
        z[0] = z[0] + b
        act = None
        if i < last:
            jac_sq = _stacked_block_sum(np.square(z[1 : d + 1]))
            t = np.tanh(z[0])
            s1 = 1.0 - t * t
            z[0] = t
            z[1:] = z[1:] * s1
            u = (-2.0 * s1) * jac_sq
            z[d + 1] = z[d + 1] + t * u
            coef = z[1:] * (-2.0 * t)
            coef[d] = coef[d] + s1 * u
            act = (s1, coef)
        layers.append((z_in, act))
    out = z[:, :, 0]
    g = out[-1] + _stacked_block_sum(out[1:-1] * scores.T)

    def reverse(up, per_row):
        bar = np.empty((d + 2, n, 1))
        bar[0] = 0.0
        bar[1 : d + 1, :, 0] = scores.T * up
        bar[d + 1, :, 0] = up
        grads = []
        for i in range(last, -1, -1):
            z_in, act = layers[i]
            w = net.weights[i]
            o, k = w.shape
            if act is not None:
                s1, coef = act
                head = _stacked_block_sum(bar[1:] * coef)
                lap_bar2 = 2.0 * bar[d + 1]
                bar = bar * s1
                bar[0] = bar[0] + head
                bar[1 : d + 1] = bar[1 : d + 1] + lap_bar2 * coef[:d]
            if per_row:
                grad_w = np.einsum("rno,rnk->nok", bar, z_in).reshape(n, o * k)
                grads = [grad_w, bar[0]] + grads
            else:
                rows_bar = bar.reshape(-1, o)
                grads = [np.dot(rows_bar.T, z_in.reshape(-1, k)).ravel(), bar[0].sum(0)] + grads
            if i:
                bar = np.dot(bar.reshape(-1, o), w).reshape(d + 2, n, k)
        return np.concatenate(grads, axis=-1)

    return g, reverse(upstream, False), reverse(np.ones(n), True)
