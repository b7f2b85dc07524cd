"""Scatter-matrix maximum likelihood via fixed-point iterations.

With constants

    c = -2 (a - q/2) / n_eff,    d = 2 / (b n_eff),

the stationarity condition for the scatter takes the Kent-Tyler (1991) form

    Sigma = sum_i w_i (d + c / t_i) x_i x_i',    t_i = x_i' Sigma^{-1} x_i,

and every fit works on the data ``x``, the weights ``w`` and ``Sigma``
directly.  The right-hand side at the current iterate is the *candidate*
``Sigma'``; its first term is ``B = d sum_i w_i x_i x_i'``, ``(2/b)`` times
the weighted second moment.  The sign of ``c`` selects the regime:

* ``c <= 0`` (``a >= q/2``) gives a concave log-likelihood and a globally
  convergent iteration ``Sigma <- P (Sigma + c' M)^{-1} P`` with
  ``c' = -c``, ``M = sum_i w_i x_i x_i' / t_i`` and ``P`` the matrix
  geometric mean of ``B`` and ``Sigma``.  The eigenvalues of the pencil
  ``(Sigma, B)`` stay inside a fixed box, and ``c = 0`` lands on ``B``.
* ``c > 0`` (``a < q/2``) accepts ``alpha Sigma'`` with a per-step scalar
  ``alpha`` chosen either by an eigenvalue case analysis or by a trace
  normalization.  Every step evaluates the map matrix ``G2``, the candidate
  at ``Sigma'``, and the next candidate is ``B + alpha (G2 - B)``: only the
  start's candidate is built from the data, and the last one gives the
  stationarity residual.  The data-augmentation baseline of Kent and Tyler
  is the unscaled (``alpha = 1``) iteration ``Sigma <- Sigma'``.

One driver runs all three iterations and stops when the average
log-likelihood changes by less than ``tol`` (for a ``tol`` below the
rounding of the log-likelihood, once the steps also stop shrinking); the EM
scatter M-step takes single steps of the same step generators.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from ._linalg import (chol_lower, quad_forms, reduced_eigvalsh, spd_eigh,
                      symmetrize, tril_inv)
from .core import Dataset, ScatterMatrix, _log_norm_const

__all__ = [
    "RankDeficiencyError",
    "FixedPointConfig",
    "FitReport",
    "compute_constants",
    "stationarity_residual",
    "fit_concave",
    "fit_nonconcave",
    "fit_kent_tyler",
    "fit_scatter",
]

# Quadratic forms are floored here before division; values this small only
# appear for effectively coincident directions.
_DENOM_FLOOR = 1e-300
_NEAR_SINGULAR_REL = 1e-14
# The average log-likelihood is rounded to a few units in its last place;
# a tol no larger than this many spacings cannot be resolved by its change.
_LL_ROUNDING_ULPS = 4.0

_INITS = ("identity", "sample-cov", "user")
_ALPHA_RULES = ("eigen", "trace")


class RankDeficiencyError(ValueError):
    """Raised when the weighted data fail to span R^q."""


class _Breakdown(ValueError):
    """A step left the usable SPD cone; the fit stops near-singular."""


@dataclass(frozen=True, eq=False)
class FixedPointConfig:
    """Options shared by the fixed-point scatter fits.

    ``init`` selects the starting matrix: the identity, the weighted sample
    second moment, or a user matrix supplied via ``user_matrix``.  For the
    fixed points ``'identity'`` is ``Sigma_0 = B = (2/b)`` times the
    weighted second moment, the same start as ``'sample-cov'`` when
    ``b = 2``; for Kent-Tyler it is ``Sigma_0 = I``.  ``alpha_rule`` only
    affects the nonconcave iteration.  A fit stops once the average
    log-likelihood changes by less than ``tol``; a ``tol`` within its
    rounding also waits until the step ``||L^{-1} (Sigma_k - Sigma_{k-1})
    L^{-T}||_F`` (``Sigma_{k-1} = L L'``) stops shrinking.
    """

    init: str = "sample-cov"
    tol: float = 1e-6
    max_iter: int = 1000
    alpha_rule: str = "eigen"
    user_matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.init not in _INITS:
            raise ValueError(f"init must be one of {_INITS}")
        if self.alpha_rule not in _ALPHA_RULES:
            raise ValueError(f"alpha_rule must be one of {_ALPHA_RULES}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if (self.init == "user") != (self.user_matrix is not None):
            raise ValueError("user_matrix required exactly when init='user'")


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a scatter fit.

    ``loglik_trace`` holds the average log-likelihood of each accepted
    iterate, so its length equals ``iterations``.  The alpha and lambda
    traces are populated by the nonconcave iteration only; the lambda traces
    record the extreme eigenvalues of the fixed-point map at each step, the
    pencil ``(Sigma', Sigma)`` of the candidate and the iterate.
    ``iterate_eig_*`` record the extreme eigenvalues of the pencil
    ``(Sigma, B)`` of each iterate and ``B = (2/b)`` times the weighted
    second moment.  ``near_singular`` flags an abort caused by quadratic
    forms collapsing toward zero.
    """

    sigma_hat: ScatterMatrix
    iterations: int
    converged: bool
    final_residual: float
    loglik_trace: np.ndarray
    elapsed_ms_trace: np.ndarray
    alpha_trace: np.ndarray | None = None
    lambda_max_trace: np.ndarray | None = None
    lambda_min_trace: np.ndarray | None = None
    iterate_eig_min_trace: np.ndarray | None = None
    iterate_eig_max_trace: np.ndarray | None = None
    near_singular: bool = False

    def __post_init__(self):
        if len(self.loglik_trace) != self.iterations:
            raise ValueError("loglik_trace length must equal iterations")


def compute_constants(a: float, b: float, q: int, n_eff: float):
    """Stationarity constants ``c = -2(a - q/2)/n_eff`` and ``d = 2/(b n_eff)``."""
    if not (a > 0.0 and b > 0.0 and n_eff > 0.0 and q >= 1):
        raise ValueError("a, b, n_eff must be positive and q at least 1")
    return -2.0 * (a - 0.5 * q) / n_eff, 2.0 / (b * n_eff)


@dataclass(frozen=True, eq=False)
class _Problem:
    """Weighted data and constants of a fit, ``B = b_factor b_factor'`` and
    the factor's inverse ``b_inv``, which reduces pencils ``(M, B)``."""

    x: np.ndarray
    w: np.ndarray
    c: float
    n_eff: float
    shape_a: float
    scale_b: float
    log_const: float
    b_mat: np.ndarray
    b_factor: np.ndarray
    b_inv: np.ndarray


def _problem(data: Dataset, a: float, b: float) -> _Problem:
    """Raises :class:`RankDeficiencyError` when ``B`` is effectively singular."""
    q = data.dim
    c, d = compute_constants(a, b, q, data.total_weight)
    b_mat = symmetrize(d * (data.samples * data.weights[:, None]).T
                       @ data.samples)
    try:
        vals, vecs = spd_eigh(b_mat)
    except ValueError as exc:
        raise RankDeficiencyError("data does not span R^q") from exc
    root = np.sqrt(vals)
    return _Problem(x=data.samples, w=data.weights, c=c,
                    n_eff=data.total_weight, shape_a=a, scale_b=b,
                    log_const=_log_norm_const(q, a, b), b_mat=b_mat,
                    b_factor=vecs * root, b_inv=(vecs / root).T)


def _radii(linv: np.ndarray, x: np.ndarray) -> np.ndarray:
    return np.maximum(quad_forms(linv, x), _DENOM_FLOOR)


def _candidate(b_mat: np.ndarray, c: float, x: np.ndarray, w: np.ndarray,
               t: np.ndarray) -> np.ndarray:
    """``B + c sum_i w_i x_i x_i' / t_i``, one n x q^2 product."""
    return symmetrize(b_mat + (x * (c * w / t)[:, None]).T @ x)


def _residual(sigma: np.ndarray, g: np.ndarray) -> float:
    # ||L^{-1} (G - Sigma) L^{-T}||_F with Sigma = L L' and G the candidate
    # at sigma: the defect of the stationarity condition in coordinates
    # where the iterate is the identity
    linv = tril_inv(chol_lower(sigma))
    return float(np.linalg.norm(linv @ (g - sigma) @ linv.T, "fro"))


def stationarity_residual(sigma: ScatterMatrix, data: Dataset, c: float,
                          d: float) -> float:
    """Frobenius norm of the stationarity-condition defect at ``sigma``.

    The defect is ``L^{-1} (Sigma' - Sigma) L^{-T}`` with ``Sigma = L L'``
    and ``Sigma' = sum_i w_i (d + c / t_i) x_i x_i'`` the candidate.
    """
    if sigma.dim != data.dim:
        raise ValueError("sigma dimension does not match data")
    x, w = data.samples, data.weights
    t = _radii(tril_inv(sigma.cholesky), x)
    b_mat = symmetrize(d * (x * w[:, None]).T @ x)
    return _residual(sigma.entries, _candidate(b_mat, c, x, w, t))


def _start(problem: _Problem, config: FixedPointConfig, identity=None):
    """Initial scatter and its squared radii; ``identity`` defaults to ``B``."""
    if config.init == "identity":
        mat = problem.b_mat if identity is None else identity
    elif config.init == "sample-cov":
        # the weighted second moment is (b/2) B
        mat = (0.5 * problem.scale_b) * problem.b_mat
    else:
        mat = symmetrize(np.asarray(config.user_matrix, dtype=float))
        if mat.shape != problem.b_mat.shape:
            raise ValueError("user_matrix has wrong shape")
    start = ScatterMatrix(mat)
    return start, _radii(tril_inv(start.cholesky), problem.x)


def _avg_loglik(problem: _Problem, t: np.ndarray, logdet: float) -> float:
    q = problem.b_mat.shape[0]
    radial = (problem.shape_a - 0.5 * q) * np.log(t) - t / problem.scale_b
    return (problem.log_const - 0.5 * logdet
            + float(problem.w @ radial) / problem.n_eff)


def _near_singular(eig_lo: float, eig_hi: float) -> bool:
    # collapse shows up in the iterate's spectrum; the spread of the
    # quadratic forms is no signal, since heavy-tailed data (tiny shape)
    # legitimately mixes huge and vanishing radii
    return not eig_lo > _NEAR_SINGULAR_REL * eig_hi


def _run(problem: _Problem, config: FixedPointConfig, steps,
         fields: tuple) -> FitReport:
    """Drive a step generator to the stop described in
    :class:`FixedPointConfig`.

    ``steps`` yields the start and then every accepted iterate as
    ``(sigma, t, avg_loglik, trace_row, candidate)``, where ``t`` holds the
    squared radii at ``sigma`` and ``candidate`` is the candidate at
    ``sigma`` or None when the step does not form it (the concave fit), and
    raises :class:`_Breakdown` when a step leaves the usable SPD cone; the
    last accepted iterate is then reported with ``near_singular`` set.
    ``fields`` names the report traces filled, in order, from the entries of
    each trace row.
    """
    start = time.perf_counter()
    sigma, t, ll_prev, _, g = next(steps)
    lls, rows, elapsed = [], [], []
    converged = False
    near_singular = False
    step_prev = math.inf
    try:
        for item in itertools.islice(steps, config.max_iter):
            sigma_prev, (sigma, t, ll, row, g) = sigma, item
            lls.append(ll)
            rows.append(row)
            elapsed.append(1000.0 * (time.perf_counter() - start))
            settled = abs(ll - ll_prev) < config.tol
            if config.tol <= _LL_ROUNDING_ULPS * np.spacing(abs(ll)):
                # rounded log-likelihoods tie long before the iteration
                # settles; such a tol waits for the step to stop shrinking
                step = _residual(sigma_prev, sigma)
                settled, step_prev = settled and step >= step_prev, step
            if settled:
                converged = True
                break
            ll_prev = ll
    except _Breakdown:
        near_singular = True
    residual = math.nan
    if not near_singular:
        try:
            if g is None:
                g = _candidate(problem.b_mat, problem.c, problem.x,
                               problem.w, t)
            residual = _residual(sigma, g)
        except ValueError:
            near_singular = True
    traces = {name: np.asarray([row[i] for row in rows])
              for i, name in enumerate(fields)}
    return FitReport(
        sigma_hat=ScatterMatrix(sigma),
        iterations=len(lls),
        converged=converged,
        final_residual=residual,
        loglik_trace=np.asarray(lls),
        elapsed_ms_trace=np.asarray(elapsed),
        near_singular=near_singular,
        **traces,
    )


def _concave_steps(problem: _Problem, start: ScatterMatrix, t: np.ndarray):
    # With B = F F', C = F^{-1} Sigma F^{-T} and K = F C^{1/2} (so that
    # Sigma = K K' and P = K F'), the step P (Sigma + c' M)^{-1} P is
    # F (I + c' K^{-1} M K^{-T})^{-1} F', whose inverse is well conditioned
    c_prime = -problem.c
    x, w = problem.x, problem.w
    fac, fac_inv = problem.b_factor, problem.b_inv
    eye = np.eye(fac.shape[0])
    t = np.maximum(t, _DENOM_FLOOR)
    logdet = start.log_det
    sigma = start.entries
    while True:
        vals, vecs = np.linalg.eigh(symmetrize(fac_inv @ sigma @ fac_inv.T))
        ll = _avg_loglik(problem, t, logdet)
        yield sigma, t, ll, (float(vals[0]), float(vals[-1])), None
        # a pencil eigenvalue that rounds to zero or below stops here, so a
        # start that collapses is still reported
        if _near_singular(float(vals[0]), float(vals[-1])):
            raise _Breakdown("iterate is near singular")
        k_inv = ((vecs / np.sqrt(vals)) @ vecs.T) @ fac_inv
        m = (x * (w / t)[:, None]).T @ x
        sigma = symmetrize(fac @ np.linalg.inv(
            eye + c_prime * symmetrize(k_inv @ m @ k_inv.T)) @ fac.T)
        try:
            chol = chol_lower(sigma)
            t = _radii(tril_inv(chol), x)
        except ValueError as exc:
            raise _Breakdown("iterate is not factorizable") from exc
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))


def fit_concave(data: Dataset, a: float, b: float,
                config: FixedPointConfig | None = None) -> FitReport:
    """Fixed point for the concave regime ``a >= q/2`` (``c <= 0``).

    Iterates ``Sigma <- P (Sigma + c' M)^{-1} P`` with ``c' = -c``,
    ``M = sum_i w_i x_i x_i' / t_i`` and ``P`` the geometric mean of ``B``
    and ``Sigma`` (``P Sigma^{-1} P = B``).  Every iterate's pencil
    ``(Sigma, B)`` has its spectrum in ``[(1 + c' n_eff)^{-1}, 1]``; with
    ``c = 0`` the first step lands exactly on ``B``, the weighted sample
    second moment when ``b = 2``.
    """
    config = config or FixedPointConfig()
    problem = _problem(data, a, b)
    if problem.c > 0.0:
        raise ValueError("concave iteration requires a >= dim/2 (c <= 0)")
    return _run(problem, config,
                _concave_steps(problem, *_start(problem, config)),
                ("iterate_eig_min_trace", "iterate_eig_max_trace"))


def _alpha(rule: str, problem: _Problem, sigma_prime: np.ndarray,
           linv: np.ndarray, g2: np.ndarray):
    """Step scaling at the candidate ``sigma_prime`` (inverse Cholesky
    factor ``linv``) and its map matrix ``g2``.

    The eigen rule leaves the step unscaled when the map spectrum ``lam``,
    that of the pencil ``(g2, sigma_prime)``, brackets one; otherwise it
    shrinks the step so the largest map eigenvalue lands on one, or
    stretches it so the smallest does.  Returns ``(alpha, lam)``, with
    ``lam`` None under the trace rule.
    """
    if rule == "trace":
        # at a fixed point tr(Sigma^{-1} Sigma') = q, so tr(Sigma^{-1} B) =
        # q - c n_eff = 2a whatever the weights
        alpha = (float(np.sum((linv.T @ linv) * problem.b_mat))
                 / (2.0 * problem.shape_a))
        lam = None
    else:
        lam = reduced_eigvalsh(g2, linv)
        if lam[-1] >= 1.0 >= lam[0]:
            return 1.0, lam
        avals = reduced_eigvalsh(sigma_prime + problem.b_mat - g2,
                                 problem.b_inv)
        inv_alpha = float(avals[0] if lam[-1] < 1.0 else avals[-1])
        alpha = 1.0 / inv_alpha if inv_alpha != 0.0 else math.inf
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise _Breakdown(f"alpha selection failed: alpha = {alpha}")
    return alpha, lam


def _scaled_steps(problem: _Problem, start: ScatterMatrix, t: np.ndarray,
                  rule: str | None):
    # rule None: every step is accepted unscaled and the map spectrum is
    # not traced (Kent-Tyler)
    c, x, w, b_mat = problem.c, problem.x, problem.w, problem.b_mat
    q = b_mat.shape[0]
    t = np.maximum(t, _DENOM_FLOOR)
    ll = _avg_loglik(problem, t, start.log_det)
    sigma = start.entries
    row = None
    # the candidate at sigma, and the map spectrum if the last step carried it
    g_prime, lam_n = _candidate(b_mat, c, x, w, t), None
    while True:
        yield sigma, t, ll, row, g_prime
        try:
            if rule is not None and lam_n is None:
                lam_n = reduced_eigvalsh(g_prime, tril_inv(chol_lower(sigma)))
            chol = chol_lower(g_prime)
            linv = tril_inv(chol)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise _Breakdown("candidate is not factorizable") from exc
        # the iterate spectrum, relative to B; mathematically Sigma' >= B,
        # so a violated bound or an exploding condition number means the
        # trajectory left the usable SPD cone
        mu = reduced_eigvalsh(g_prime, problem.b_inv)
        if (not np.all(np.isfinite(mu)) or mu[0] <= 1e-8
                or _near_singular(float(mu[0]), float(mu[-1]))):
            raise _Breakdown("candidate is near singular")
        t_prime = _radii(linv, x)
        g2 = _candidate(b_mat, c, x, w, t_prime)
        alpha, lam = 1.0, None
        if rule is not None:
            alpha, lam = _alpha(rule, problem, g_prime, linv, g2)
            row = (alpha, float(lam_n[0]), float(lam_n[-1]),
                   alpha * float(mu[0]), alpha * float(mu[-1]))
        sigma = alpha * g_prime
        t = t_prime / alpha
        ll = _avg_loglik(problem, t, q * math.log(alpha)
                         + 2.0 * float(np.sum(np.log(np.diag(chol)))))
        # With t = t'/alpha the next candidate is B + alpha (G2 - B).  At
        # alpha = 1 it is G2 bit for bit, and G2's spectrum relative to
        # Sigma' = sigma, if the rule computed it, is the next map spectrum.
        if alpha == 1.0:
            g_prime, lam_n = g2, lam
        else:
            g_prime, lam_n = b_mat + alpha * (g2 - b_mat), None


def fit_nonconcave(data: Dataset, a: float, b: float,
                   config: FixedPointConfig | None = None) -> FitReport:
    """Scaled fixed point for the nonconcave regime ``a < q/2`` (``c > 0``).

    Each step forms the candidate
    ``Sigma' = B + c sum_i w_i x_i x_i' / (x_i' Sigma^{-1} x_i)`` and accepts
    ``alpha * Sigma'``.  Under ``alpha_rule='eigen'`` ``alpha`` comes from
    the spectrum of the map at ``Sigma'``: once its extreme eigenvalues
    bracket one the step is unscaled, and the scaling tends to one as the
    iteration converges.  Under ``alpha_rule='trace'`` ``alpha Sigma'`` gets
    the inverse trace ``tr(Sigma^{-1} B) = 2a`` of every fixed point.  Under
    either rule the map matrix ``G2``, built from the candidate's squared
    radii ``t'``, is carried forward: the next candidate is
    ``B + alpha (G2 - B)``, which is ``G2`` itself (with the eigen rule's map
    spectrum) when ``alpha = 1``.
    ``a = q/2`` (``c = 0``) is accepted and lands on ``B`` in a single step.
    """
    config = config or FixedPointConfig()
    problem = _problem(data, a, b)
    if problem.c < 0.0:
        raise ValueError("nonconcave iteration requires a <= dim/2 (c >= 0)")
    return _run(problem, config,
                _scaled_steps(problem, *_start(problem, config),
                              config.alpha_rule),
                ("alpha_trace", "lambda_min_trace", "lambda_max_trace",
                 "iterate_eig_min_trace", "iterate_eig_max_trace"))


def fit_kent_tyler(data: Dataset, a: float, b: float,
                   config: FixedPointConfig | None = None) -> FitReport:
    """Data-augmentation baseline for the regime ``a < q/2``.

    Iterates ``Sigma <- n_eff^{-1} sum_i w_i u(t_i) x_i x_i'`` with
    ``t_i = x_i' Sigma^{-1} x_i`` and ``u(t) = (q - 2a)/t + 2/b``.  This
    update is exactly the nonconcave candidate ``Sigma'``, so the fit runs
    as the unscaled (``alpha = 1``) fixed point, with the same stopping rule
    and report.  ``init='identity'`` starts from ``Sigma = I``.
    """
    config = config or FixedPointConfig()
    q = data.dim
    if a >= 0.5 * q:
        raise ValueError("Kent-Tyler iteration requires a < dim/2")
    problem = _problem(data, a, b)
    return _run(problem, config,
                _scaled_steps(problem, *_start(problem, config, np.eye(q)),
                              None),
                ())


def fit_scatter(data: Dataset, a: float, b: float,
                config: FixedPointConfig | None = None) -> FitReport:
    """Fit the scatter for fixed ``(a, b)``, dispatching on the sign of ``c``."""
    c, _ = compute_constants(a, b, data.dim, data.total_weight)
    fit = fit_concave if c <= 0.0 else fit_nonconcave
    # by keyword: perfbench's span note reads a second positional argument
    # of fit_nonconcave as its config
    return fit(data, a=a, b=b, config=config)


def _steps(data: Dataset, a: float, b: float, start: ScatterMatrix,
           t: np.ndarray):
    """Step generator (see :func:`_run`) of :func:`fit_scatter`'s default
    iteration from ``start``, whose squared radii are ``t``."""
    problem = _problem(data, a, b)
    if problem.c <= 0.0:
        return _concave_steps(problem, start, t)
    return _scaled_steps(problem, start, t, FixedPointConfig.alpha_rule)
