"""Shared utilities and independent reference implementations.

The reference routines here deliberately avoid the package's own code paths
(explicit inverses, direct formula transcriptions, scipy optimizers) so they
can serve as oracles for the library's results.
"""

import csv
import io

import numpy as np
from scipy.optimize import linear_sum_assignment, minimize
from scipy.special import gammaln

import egd


def rel_frob(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return float(np.linalg.norm(actual - expected)
                 / np.linalg.norm(expected))


def random_spd(dim, rng, ridge=0.1):
    a = rng.standard_normal((dim, dim))
    return a @ a.T + ridge * np.eye(dim)


def make_egd_data(q, a, b, n, seed, sigma=None):
    if sigma is None:
        sigma = random_spd(q, np.random.default_rng(seed + 777))
    scatter = egd.ScatterMatrix(sigma)
    params = egd.EgdParams(scatter, a, b)
    return egd.sample(params, n, seed), scatter


def egd_avg_loglik_reference(samples, weights, sigma, a, b):
    """Average log-likelihood evaluated with explicit inverses."""
    q = sigma.shape[0]
    t = np.einsum("ij,jk,ik->i", samples, np.linalg.inv(sigma), samples)
    const = (gammaln(0.5 * q) - 0.5 * q * np.log(np.pi) - gammaln(a)
             - a * np.log(b))
    per = (const - 0.5 * np.log(np.linalg.det(sigma))
           + (a - 0.5 * q) * np.log(t) - t / b)
    return float(weights @ per / weights.sum())


def quad_forms_longdouble(chol, rows):
    """Rowwise ``r_i (L L')^{-1} r_i'`` by forward substitution in long double.

    Solves ``L z_i = r_i`` column by column in ``np.longdouble`` (80-bit
    extended precision on x86-64) and returns ``|z_i|^2`` in that precision.
    """
    lower = np.asarray(chol, dtype=np.longdouble)
    rhs = np.atleast_2d(np.asarray(rows, dtype=np.longdouble))
    z = np.zeros_like(rhs)
    for i in range(lower.shape[0]):
        z[:, i] = (rhs[:, i] - z[:, :i] @ lower[i, :i]) / lower[i, i]
    return np.sum(z * z, axis=1)


def nonconcave_reference_step(data, a, b, sigma, t, alpha_rule="eigen"):
    """One step of the nonconcave fixed point from ``sigma``.

    ``t`` holds the squared radii ``x_i' sigma^{-1} x_i``.  The candidate
    ``Sigma' = sum_i w_i (d + c / t_i) x_i x_i'`` is built from the data,
    and so is, under the eigen rule, the map matrix ``G2`` at ``Sigma'``.
    The arithmetic of each, of ``B``, of the radii ``t'`` at ``Sigma'``, of
    the trace rule's ``alpha = tr(Sigma'^{-1} B) / (2a) = d sum_i w_i t'_i
    / (2a)`` and of the pencil eigenvalues
    (reduction by the inverse Cholesky factor of the pencil's second matrix)
    is the library's, so that a step from the same state can be compared bit
    for bit.  Returns ``(row, case, sigma_next, t_next, logdet_next,
    candidate_next)`` with ``row = (alpha, lam_min, lam_max, eig_min,
    eig_max)`` as in the report's traces, ``case`` the eigen rule's case
    (None under the trace rule) and ``candidate_next`` the candidate at
    ``sigma_next`` as the library forms it: under the eigen rule ``G2``
    carried forward as ``B + alpha (G2 - B)``, under the trace rule built
    from the data.
    """
    x, w = data.samples, data.weights
    c, d = egd.compute_constants(a, b, data.dim, data.total_weight)

    def sym(mat):
        return 0.5 * (mat + mat.T)

    def chol_inv(spd):
        return np.tril(np.linalg.inv(np.linalg.cholesky(spd)))

    def gram(v):
        return sym((x * v[:, None]).T @ x)

    b_mat = gram(d * w)
    b_inv = chol_inv(b_mat)

    def candidate(forms):
        return gram(w * (d + c / forms))

    def pencil_eigvals(mat, linv):
        return np.linalg.eigvalsh(sym(linv @ mat @ linv.T))

    g_prime = candidate(t)
    lam = pencil_eigvals(g_prime, chol_inv(sigma))
    chol = np.linalg.cholesky(g_prime)
    linv = np.tril(np.linalg.inv(chol))
    z = x @ linv.T
    t_prime = np.maximum(np.einsum("ij,ij->i", z, z), 1e-300)
    mu = pencil_eigvals(g_prime, b_inv)
    if alpha_rule == "trace":
        alpha, case = d * float(w @ t_prime) / (2.0 * a), None
        g2 = None
    else:
        g2 = candidate(t_prime)
        lam2 = pencil_eigvals(g2, linv)
        if lam2[-1] >= 1.0 >= lam2[0]:
            alpha, case = 1.0, 1
        else:
            case = 2 if lam2[-1] < 1.0 else 3
            avals = pencil_eigvals(g_prime + b_mat - g2, b_inv)
            alpha = 1.0 / float(avals[0] if case == 2 else avals[-1])
    row = (alpha, float(lam[0]), float(lam[-1]),
           alpha * float(mu[0]), alpha * float(mu[-1]))
    logdet = (data.dim * np.log(alpha)
              + 2.0 * float(np.sum(np.log(np.diag(chol)))))
    t_next = t_prime / alpha
    if g2 is None:
        g_next = candidate(t_next)
    else:
        g_next = g2 if alpha == 1.0 else b_mat + alpha * (g2 - b_mat)
    return row, case, alpha * g_prime, t_next, logdet, g_next


def stop_rule(residual, residual_prev, ll, ll_prev, tol):
    """The fits' stop: the stationarity residual is at most ``tol``, or it
    stopped shrinking while the average log-likelihood ties within four
    units in its last place."""
    tie = abs(ll - ll_prev) <= 4.0 * np.spacing(abs(ll))
    return residual <= tol or (residual >= residual_prev and tie)


def residual_reference(sigma, candidate):
    """``||L^{-1} (candidate - sigma) L^{-T}||_F`` with ``sigma = L L'``,
    by an explicit inverse of the Cholesky factor."""
    linv = np.linalg.inv(np.linalg.cholesky(sigma))
    return float(np.linalg.norm(linv @ (candidate - sigma) @ linv.T))


def nonconcave_reference(data, a, b, sigma0, tol, max_iter=1000,
                         alpha_rule="eigen"):
    """Nonconcave fixed point that rebuilds ``Sigma'`` every step.

    Starts from ``sigma0`` and stops by :func:`stop_rule`, like the library
    fits, on the residual of each iterate and the candidate the step
    returns for it.  Returns a dict with the per-step ``rows`` and
    ``cases``, the final ``sigma``, ``iterations`` and ``converged``.
    """
    x, w = data.samples, data.weights
    q = data.dim
    c, d = egd.compute_constants(a, b, q, data.total_weight)
    const = (gammaln(0.5 * q) - 0.5 * q * np.log(np.pi) - gammaln(a)
             - a * np.log(b))

    def avg_loglik(t, logdet):
        radial = (a - 0.5 * q) * np.log(t) - t / b
        return float(const - 0.5 * logdet + w @ radial / w.sum())

    sigma = np.asarray(sigma0, dtype=float)
    t = np.einsum("ij,jk,ik->i", x, np.linalg.inv(sigma), x)
    ll_prev = avg_loglik(t, np.linalg.slogdet(sigma)[1])
    r_prev = residual_reference(sigma,
                                (x * (w * (d + c / t))[:, None]).T @ x)
    rows, cases = [], []
    converged = False
    for _ in range(max_iter):
        row, case, sigma, t, logdet, g = nonconcave_reference_step(
            data, a, b, sigma, t, alpha_rule)
        rows.append(row)
        cases.append(case)
        ll, r = avg_loglik(t, logdet), residual_reference(sigma, g)
        if stop_rule(r, r_prev, ll, ll_prev, tol):
            converged = True
            break
        r_prev, ll_prev = r, ll
    return {"rows": np.asarray(rows), "cases": cases, "sigma": sigma,
            "iterations": len(rows), "converged": converged}


def golden_gamma_shape(values, weights, lo=1e-3, hi=1e3, tol=1e-10):
    """Golden-section maximizer of the weighted gamma profile likelihood."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    w_total = weights.sum()
    vbar = float(weights @ values / w_total)
    mlog = float(weights @ np.log(values) / w_total)

    def profile(a):
        # b = vbar / a maximizes for fixed a
        return (a - 1.0) * mlog - gammaln(a) - a * np.log(vbar / a) - a

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = np.log(lo), np.log(hi)
    m1 = x2 - invphi * (x2 - x1)
    m2 = x1 + invphi * (x2 - x1)
    f1, f2 = profile(np.exp(m1)), profile(np.exp(m2))
    while x2 - x1 > tol:
        if f1 < f2:
            x1, m1, f1 = m1, m2, f2
            m2 = x1 + invphi * (x2 - x1)
            f2 = profile(np.exp(m2))
        else:
            x2, m2, f2 = m2, m1, f1
            m1 = x2 - invphi * (x2 - x1)
            f1 = profile(np.exp(m1))
    return float(np.exp(0.5 * (x1 + x2)))


def tyler_reference(samples, tol=1e-10, max_iter=20000):
    """Distribution-free scatter fixed point, trace-normalized each sweep."""
    n, q = samples.shape
    sigma = np.eye(q)
    for _ in range(max_iter):
        t = np.einsum("ij,jk,ik->i", samples, np.linalg.inv(sigma), samples)
        new = (q / n) * (samples / t[:, None]).T @ samples
        new *= q / np.trace(new)
        if np.linalg.norm(new - sigma) / np.linalg.norm(sigma) < tol:
            return new
        sigma = new
    return sigma


def kent_tyler_reference(samples, weights, a, b, sigma0, tol,
                         max_iter=20000):
    """Kent-Tyler recursion in original coordinates, explicit inverses.

    Iterates ``Sigma <- n_eff^{-1} sum_i w_i u(t_i) x_i x_i'`` with
    ``u(t) = (q - 2a)/t + 2/b`` from ``sigma0``.  The next iterate is the
    candidate at the current one, so each iterate's stationarity residual
    is read from the next, and the recursion stops by :func:`stop_rule`,
    like the library fits.  Returns ``(sigma, iterations)``.
    """
    q = samples.shape[1]

    def update(sigma):
        t = np.einsum("ij,jk,ik->i", samples, np.linalg.inv(sigma), samples)
        u = (q - 2.0 * a) / t + 2.0 / b
        return (samples * (weights * u)[:, None]).T @ samples / weights.sum()

    sigma = np.asarray(sigma0, dtype=float)
    ll_prev = egd_avg_loglik_reference(samples, weights, sigma, a, b)
    candidate = update(sigma)
    r_prev = residual_reference(sigma, candidate)
    for it in range(1, max_iter + 1):
        sigma, candidate = candidate, update(candidate)
        ll = egd_avg_loglik_reference(samples, weights, sigma, a, b)
        r = residual_reference(sigma, candidate)
        if stop_rule(r, r_prev, ll, ll_prev, tol):
            return sigma, it
        r_prev, ll_prev = r, ll
    return sigma, max_iter


def ascent_oracle_avg_loglik(samples, weights, a, b, x0_cov):
    """Maximize the average log-likelihood over Cholesky factors directly."""
    q = samples.shape[1]
    tril = np.tril_indices(q)

    def unpack(theta):
        chol = np.zeros((q, q))
        chol[tril] = theta
        return chol

    def negloglik(theta):
        chol = unpack(theta)
        if np.any(np.abs(np.diag(chol)) < 1e-12):
            return 1e12
        sigma = chol @ chol.T
        try:
            return -egd_avg_loglik_reference(samples, weights, sigma, a, b)
        except (np.linalg.LinAlgError, FloatingPointError):
            return 1e12

    theta0 = np.linalg.cholesky(x0_cov)[tril]
    result = minimize(negloglik, theta0, method="L-BFGS-B",
                      options={"maxiter": 20000, "ftol": 1e-14,
                               "gtol": 1e-10})
    return -float(result.fun)


def kmeans_radii_reference(radii, k, max_iter=100):
    """One-dimensional Lloyd iteration on the full K-column distance matrix.

    Seeded at the interior quantiles ``(j + 1/2) / k``; each pass labels a
    radius by ``argmin`` of its distances to the centers (a tie goes to the
    lower index) and moves each center to its cluster's mean, summed in
    ascending order so that it does not depend on the order of the radii,
    or an empty cluster's to the radius farthest from every center.  Stops
    when the labels repeat.
    """
    centers = np.quantile(radii, (np.arange(k) + 0.5) / k)
    labels = np.zeros(radii.shape[0], dtype=int)
    for _ in range(max_iter):
        dist = np.abs(radii[:, None] - centers[None, :])
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = np.sort(radii[mask]).mean()
            else:
                centers[j] = radii[np.argmax(dist.min(axis=1))]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def align_scatters(fitted, truth):
    """Match fitted components to true ones by scatter Frobenius distance."""
    cost = np.array([[np.linalg.norm(f - t) for t in truth] for f in fitted])
    rows, cols = linear_sum_assignment(cost)
    order = np.empty_like(cols)
    order[rows] = cols
    return order


def csv_matrix_reference(text):
    """Per-cell CSV matrix parser: ``csv.reader`` and one ``float()`` a cell.

    A non-numeric first record is a header, blank records are skipped, and
    a bad cell raises ``ValueError`` naming its record.  Malformed line ends
    raise ``csv.Error``.
    """
    rows = []
    reader = csv.reader(io.StringIO(text))
    for line_no, row in enumerate(reader):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if line_no == 0:
            try:
                float(row[0])
            except ValueError:
                continue
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"line {line_no + 1}: {exc}") from None
    if not rows:
        raise ValueError("no numeric rows found")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("rows have inconsistent column counts")
    matrix = np.asarray(rows, dtype="<f8")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix entries must be finite")
    return matrix
