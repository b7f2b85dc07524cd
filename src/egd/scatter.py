"""Scatter-matrix maximum likelihood via fixed-point iterations.

Estimation works on a whitened problem: with constants

    c = -2 (a - q/2) / n_eff,    d = 2 / (b n_eff),

the stationarity condition for the scatter is

    c sum_i w_i S^{-1/2} x_i x_i' S^{-1/2} / (x_i' S^{-1} x_i)
      + d sum_i w_i S^{-1/2} x_i x_i' S^{-1/2}  =  I.

Whitening by ``B = d sum_i w_i x_i x_i'`` absorbs the second sum into a
``Gamma^{-1}`` term and the problem becomes a fixed-point equation in
``Gamma = B^{-1/2} S B^{-1/2}``.  The sign of ``c`` selects the regime:
``c <= 0`` (``a >= q/2``) gives a concave log-likelihood and a globally
convergent inverse-map iteration whose iterate spectra stay inside a fixed
box; ``c > 0`` (``a < q/2``) uses a multiplicative update with a per-step
scalar ``alpha`` chosen either by an eigenvalue case analysis or by a trace
normalization.  Every step evaluates the map matrix
``G2 = I + c sum_i w_i y_i y_i' / s'_i`` at the candidate, and the next
candidate is ``I + alpha (G2 - I)``: only the start's candidate is built
from the data, and the last one gives the stationarity residual.  A
data-augmentation baseline (Kent-Tyler) covers the ``a < q/2`` regime:
whitened, its update is exactly the nonconcave candidate, so it runs as the
unscaled (``alpha = 1``) whitened fixed point.  One driver runs all three
iterations and stops when the average log-likelihood changes by less than
``tol``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from ._linalg import chol_lower, quad_forms_from_chol, spd_sqrt_factors, symmetrize
from .core import Dataset, ScatterMatrix, _log_norm_const

__all__ = [
    "RankDeficiencyError",
    "FixedPointConfig",
    "WhitenedProblem",
    "FitReport",
    "compute_constants",
    "whiten",
    "stationarity_residual",
    "fit_concave",
    "fit_nonconcave",
    "select_alpha",
    "fit_kent_tyler",
    "recover_sigma",
    "fit_scatter",
]

# Quadratic forms are floored here before division; values this small only
# appear for effectively coincident directions.
_DENOM_FLOOR = 1e-300
_NEAR_SINGULAR_REL = 1e-14

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
    second moment, or a user matrix supplied in original coordinates via
    ``user_matrix``.  For the fixed points ``'identity'`` is the whitened
    identity, i.e. ``Sigma_0 = B = (2/b)`` times the weighted second moment,
    the same start as ``'sample-cov'`` when ``b = 2``; for Kent-Tyler it is
    ``Sigma_0 = I``.  ``alpha_rule`` only affects the nonconcave iteration.
    ``residual_check`` controls whether the stationarity residual of the
    final iterate is computed into the report.
    """

    init: str = "sample-cov"
    tol: float = 1e-6
    max_iter: int = 1000
    alpha_rule: str = "eigen"
    residual_check: bool = True
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
class WhitenedProblem:
    """Whitened estimation problem with constants carried alongside.

    ``y`` holds rows ``y_i = B^{-1/2} x_i``; ``shape_a`` and ``scale_b`` are
    recovered from ``(c, d)`` so likelihood traces can include all constant
    terms.
    """

    b_matrix: np.ndarray
    b_half: np.ndarray
    b_half_inv: np.ndarray
    y: np.ndarray
    c: float
    d: float
    weights: np.ndarray
    n: int
    n_eff: float
    dim: int
    logdet_b: float
    shape_a: float
    scale_b: float


@dataclass(frozen=True, eq=False)
class FitReport:
    """Outcome of a scatter fit.

    ``loglik_trace`` holds the average log-likelihood of each accepted
    iterate, so its length equals ``iterations``.  The alpha and lambda
    traces are populated by the nonconcave iteration only; the lambda traces
    record the extreme eigenvalues of the fixed-point map matrix at each
    step.  ``iterate_eig_*`` record the spectral range of each iterate in
    whitened coordinates.  ``near_singular`` flags an abort caused by
    quadratic forms collapsing toward zero.
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


def whiten(data: Dataset, c: float, d: float) -> WhitenedProblem:
    """Build the whitened problem for constants ``(c, d)``.

    Raises :class:`RankDeficiencyError` when the weighted second moment is
    effectively singular, i.e. the data do not span R^q.
    """
    if d <= 0.0:
        raise ValueError("d must be positive")
    x = data.samples
    w = data.weights
    n_eff = data.total_weight
    b_mat = symmetrize(d * (x * w[:, None]).T @ x)
    try:
        fac = spd_sqrt_factors(b_mat)
    except ValueError as exc:
        raise RankDeficiencyError("data does not span R^q") from exc
    q = data.dim
    return WhitenedProblem(
        b_matrix=b_mat,
        b_half=fac.sqrt,
        b_half_inv=fac.inv_sqrt,
        y=x @ fac.inv_sqrt,
        c=c,
        d=d,
        weights=w,
        n=data.n,
        n_eff=n_eff,
        dim=q,
        logdet_b=fac.logdet,
        shape_a=0.5 * q - 0.5 * c * n_eff,
        scale_b=2.0 / (d * n_eff),
    )


def stationarity_residual(sigma: ScatterMatrix, data: Dataset, c: float,
                          d: float) -> float:
    """Frobenius norm of the stationarity-condition defect at ``sigma``."""
    if sigma.dim != data.dim:
        raise ValueError("sigma dimension does not match data")
    inv_half = spd_sqrt_factors(sigma.entries).inv_sqrt
    v = data.samples @ inv_half
    t = np.maximum(np.einsum("ij,ij->i", v, v), _DENOM_FLOOR)
    coeff = data.weights * (c / t + d)
    m = (v * coeff[:, None]).T @ v
    return float(np.linalg.norm(m - np.eye(sigma.dim), "fro"))


def recover_sigma(gamma_star: np.ndarray, problem: WhitenedProblem) -> ScatterMatrix:
    """Map a whitened solution back: ``Sigma = B^{1/2} Gamma B^{1/2}``."""
    return ScatterMatrix(symmetrize(problem.b_half @ gamma_star @ problem.b_half))


def _initial_gamma(problem: WhitenedProblem, config: FixedPointConfig) -> np.ndarray:
    q = problem.dim
    if config.init == "identity":
        return np.eye(q)
    if config.init == "sample-cov":
        # the weighted second moment is B/(d n_eff), i.e. (b/2) I whitened
        return np.eye(q) * (0.5 * problem.scale_b)
    user = symmetrize(np.asarray(config.user_matrix, dtype=float))
    if user.shape != (q, q):
        raise ValueError("user_matrix has wrong shape")
    return symmetrize(problem.b_half_inv @ user @ problem.b_half_inv)


def _avg_loglik(problem: WhitenedProblem, s: np.ndarray, logdet_gamma: float) -> float:
    a = problem.shape_a
    b = problem.scale_b
    q = problem.dim
    radial = (a - 0.5 * q) * np.log(s) - s / b
    return (_log_norm_const(q, a, b)
            - 0.5 * (problem.logdet_b + logdet_gamma)
            + float(problem.weights @ radial) / problem.n_eff)


def _near_singular(eig_lo: float, eig_hi: float) -> bool:
    # collapse shows up in the iterate's spectrum; the spread of the
    # quadratic forms is no signal, since heavy-tailed data (tiny shape)
    # legitimately mixes huge and vanishing radii
    return not eig_lo > _NEAR_SINGULAR_REL * eig_hi


def _candidate(c: float, y: np.ndarray, w: np.ndarray,
               s: np.ndarray) -> np.ndarray:
    """``I + c sum_i w_i y_i y_i' / s_i``, one n x q^2 product."""
    coeff = c * w / s
    return symmetrize(np.eye(y.shape[1]) + (y * coeff[:, None]).T @ y)


def _whitened_residual(gamma: np.ndarray, g: np.ndarray) -> float:
    # ||M - I||_F = ||Gamma^{-1/2} (G - Gamma) Gamma^{-1/2}||_F with G the
    # candidate at gamma; equal to the original-coordinate residual because
    # the two defects are orthogonally similar.
    inv_half = spd_sqrt_factors(gamma).inv_sqrt
    return float(np.linalg.norm(inv_half @ (g - gamma) @ inv_half, "fro"))


def _run(problem: WhitenedProblem, config: FixedPointConfig, steps,
         fields: tuple) -> FitReport:
    """Drive a step generator to the average log-likelihood stop.

    ``steps`` yields the start and then every accepted iterate as
    ``(gamma, s, avg_loglik, trace_row, candidate)``, where ``candidate`` is
    ``I + c sum_i w_i y_i y_i' / s_i`` at ``gamma`` or None when the step
    does not form it (the concave fit), and raises :class:`_Breakdown`
    when a step leaves the usable SPD cone; the last accepted iterate is
    then reported with ``near_singular`` set.  ``fields`` names the report
    traces filled, in order, from the entries of each trace row.
    """
    start = time.perf_counter()
    gamma, s, ll_prev, _, g = next(steps)
    lls, rows, elapsed = [], [], []
    converged = False
    near_singular = False
    try:
        for gamma, s, ll, row, g in itertools.islice(steps, config.max_iter):
            lls.append(ll)
            rows.append(row)
            elapsed.append(1000.0 * (time.perf_counter() - start))
            if abs(ll - ll_prev) < config.tol:
                converged = True
                break
            ll_prev = ll
    except _Breakdown:
        near_singular = True
    residual = math.nan
    if config.residual_check and not near_singular:
        try:
            if g is None:
                g = _candidate(problem.c, problem.y, problem.weights, s)
            residual = _whitened_residual(gamma, g)
        except ValueError:
            near_singular = True
    traces = {name: np.asarray([row[i] for row in rows])
              for i, name in enumerate(fields)}
    return FitReport(
        sigma_hat=recover_sigma(gamma, problem),
        iterations=len(lls),
        converged=converged,
        final_residual=residual,
        loglik_trace=np.asarray(lls),
        elapsed_ms_trace=np.asarray(elapsed),
        near_singular=near_singular,
        **traces,
    )


def _concave_steps(problem: WhitenedProblem, config: FixedPointConfig):
    c_prime = -problem.c
    w = problem.weights
    eye = np.eye(problem.dim)
    gamma = _initial_gamma(problem, config)
    while True:
        vals, vecs = np.linalg.eigh(gamma)
        if vals[0] <= 0.0:
            raise _Breakdown("iterate lost positive definiteness")
        z = problem.y @ ((vecs / np.sqrt(vals)) @ vecs.T)
        s = np.maximum(np.einsum("ij,ij->i", z, z), _DENOM_FLOOR)
        ll = _avg_loglik(problem, s, float(np.log(vals).sum()))
        yield gamma, s, ll, (float(vals[0]), float(vals[-1])), None
        if _near_singular(float(vals[0]), float(vals[-1])):
            raise _Breakdown("iterate is near singular")
        weight_mat = (z * (w / s)[:, None]).T @ z
        gamma = symmetrize(np.linalg.inv(eye + c_prime * weight_mat))


def fit_concave(problem: WhitenedProblem,
                config: FixedPointConfig | None = None) -> FitReport:
    """Fixed point for the concave regime ``a >= q/2`` (``c <= 0``).

    Iterates ``Gamma <- (c' W + I)^{-1}`` with ``c' = -c`` and ``W`` the
    weighted sum of normalized outer products of ``Gamma^{-1/2} y_i``.  Every
    iterate's spectrum lies in ``[(1 + c' n_eff)^{-1}, 1]``; with ``c = 0``
    the first step lands exactly on the identity, recovering the weighted
    sample second moment after unwhitening.
    """
    config = config or FixedPointConfig()
    if problem.c > 0.0:
        raise ValueError("concave iteration requires a >= dim/2 (c <= 0)")
    return _run(problem, config, _concave_steps(problem, config),
                ("iterate_eig_min_trace", "iterate_eig_max_trace"))


def _alpha_eigen(gamma_prime: np.ndarray, g2: np.ndarray, lam: np.ndarray):
    """Case analysis on the spectrum of the map matrix evaluated at Gamma'.

    ``g2`` is the map matrix ``I + c sum_i w_i y_i y_i' / s'_i`` and ``lam``
    its spectrum relative to ``gamma_prime``.  Returns ``(alpha, case_id)``
    with case 1 leaving the step unscaled, case 2 shrinking it so the
    largest map eigenvalue lands on one, and case 3 stretching it so the
    smallest does.
    """
    lam_lo, lam_hi = float(lam[0]), float(lam[-1])
    if lam_hi >= 1.0 >= lam_lo:
        return 1.0, 1
    a_mat = gamma_prime + np.eye(gamma_prime.shape[0]) - g2
    avals = np.linalg.eigvalsh(a_mat)
    inv_alpha = float(avals[0]) if lam_hi < 1.0 else float(avals[-1])
    case = 2 if lam_hi < 1.0 else 3
    if not (inv_alpha > 0.0 and math.isfinite(inv_alpha)):
        raise _Breakdown(
            f"alpha selection failed: case {case} produced 1/alpha = {inv_alpha}")
    return 1.0 / inv_alpha, case


def _alpha(rule: str, shape_a: float, gamma_prime: np.ndarray,
           gvals: np.ndarray, g2: np.ndarray | None):
    # gvals is the spectrum of gamma_prime and g2 the map matrix at it, read
    # by the eigen rule only.  Returns (alpha, case_id, lam); the map
    # spectrum lam is None under the trace rule.
    lam = None
    if rule == "eigen":
        lam = scipy.linalg.eigh(g2, gamma_prime, eigvals_only=True)
        alpha, case = _alpha_eigen(gamma_prime, g2, lam)
    else:
        # at a fixed point tr(Gamma^{-1} Gamma') = q, so tr(Gamma^{-1}) =
        # q - c n_eff = 2a whatever the weights
        alpha, case = float(np.sum(1.0 / gvals)) / (2.0 * shape_a), 0
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise _Breakdown(f"alpha selection failed: alpha = {alpha}")
    return alpha, case, lam


def _quad_forms_from_eig(y: np.ndarray, gvals: np.ndarray,
                         gvecs: np.ndarray) -> np.ndarray:
    ty = y @ gvecs
    return np.maximum((ty * ty) @ (1.0 / gvals), _DENOM_FLOOR)


def select_alpha(gamma_prime: np.ndarray, c: float, y: np.ndarray,
                 weights: np.ndarray, rule: str = "eigen"):
    """Step scaling for the nonconcave iteration at candidate ``gamma_prime``.

    With ``rule='eigen'`` returns ``(alpha, case_id)`` from the three-way
    eigenvalue analysis.  With ``rule='trace'`` returns the trace
    normalization ``alpha = tr(Gamma'^{-1}) / (2 a)`` (case id 0), where
    ``a = q/2 - c n_eff / 2`` is recovered from ``c`` and the total weight
    ``n_eff``: ``alpha Gamma'`` gets the inverse trace ``2a`` of every
    fixed point, whatever the scale of the weights.  Raises ``ValueError`` when
    ``gamma_prime`` is not positive definite or the selection breaks down,
    i.e. yields no positive finite ``alpha``.
    """
    if rule not in _ALPHA_RULES:
        raise ValueError(f"rule must be one of {_ALPHA_RULES}")
    gamma_prime = np.asarray(gamma_prime, dtype=float)
    y = np.asarray(y, dtype=float)
    gvals, gvecs = np.linalg.eigh(gamma_prime)
    if not gvals[0] > 0.0:
        raise ValueError("matrix is not positive definite")
    w = np.asarray(weights, dtype=float)
    g2 = (_candidate(c, y, w, _quad_forms_from_eig(y, gvals, gvecs))
          if rule == "eigen" else None)
    shape_a = 0.5 * gvals.size - 0.5 * c * float(w.sum())
    return _alpha(rule, shape_a, gamma_prime, gvals, g2)[:2]


def _scaled_steps(problem: WhitenedProblem, config: FixedPointConfig,
                  rule: str | None):
    # rule None: every step is accepted unscaled and the map spectrum is
    # not traced (Kent-Tyler)
    c = problem.c
    y = problem.y
    w = problem.weights
    q = problem.dim
    eye = np.eye(q)
    gamma = _initial_gamma(problem, config)
    chol = chol_lower(gamma)
    s = np.maximum(quad_forms_from_chol(chol, y), _DENOM_FLOOR)
    ll = _avg_loglik(problem, s, 2.0 * float(np.sum(np.log(np.diag(chol)))))
    row = None
    # the candidate at gamma, and the map spectrum if the last step carried it
    g_prime, lam_n = _candidate(c, y, w, s), None
    while True:
        yield gamma, s, ll, row, g_prime
        try:
            if rule is not None and lam_n is None:
                lam_n = scipy.linalg.eigh(g_prime, gamma, eigvals_only=True)
            gvals, gvecs = np.linalg.eigh(g_prime)
        except np.linalg.LinAlgError as exc:
            raise _Breakdown("candidate is not factorizable") from exc
        # mathematically Gamma' >= I; a violated bound or an exploding
        # condition number means the trajectory left the usable SPD cone
        if (not np.all(np.isfinite(gvals)) or gvals[0] <= 1e-8
                or _near_singular(float(gvals[0]), float(gvals[-1]))):
            raise _Breakdown("candidate is near singular")
        s_prime = _quad_forms_from_eig(y, gvals, gvecs)
        g2 = _candidate(c, y, w, s_prime)
        alpha, lam = 1.0, None
        if rule is not None:
            alpha, _, lam = _alpha(rule, problem.shape_a, g_prime, gvals, g2)
            row = (alpha, float(lam_n[0]), float(lam_n[-1]),
                   alpha * float(gvals[0]), alpha * float(gvals[-1]))
        gamma = alpha * g_prime
        s = s_prime / alpha
        ll = _avg_loglik(problem, s,
                         q * math.log(alpha) + float(np.log(gvals).sum()))
        # With s = s'/alpha the next candidate is I + alpha (G2 - I).  At
        # alpha = 1 it is G2 bit for bit, and G2's spectrum relative to
        # Gamma' = gamma, if the rule computed it, is the next map spectrum.
        if alpha == 1.0:
            g_prime, lam_n = g2, lam
        else:
            g_prime, lam_n = eye + alpha * (g2 - eye), None


def fit_nonconcave(problem: WhitenedProblem,
                   config: FixedPointConfig | None = None) -> FitReport:
    """Scaled fixed point for the nonconcave regime ``a < q/2`` (``c > 0``).

    Each step forms the candidate
    ``Gamma' = I + c sum_i w_i y_i y_i' / (y_i' Gamma^{-1} y_i)`` and accepts
    ``alpha * Gamma'`` with ``alpha`` from :func:`select_alpha`.  Under the
    eigen rule the extreme eigenvalues of the map matrix bracket one and the
    scaling tends to one as the iteration converges.  Under either rule the
    map matrix ``G2``, built from the candidate's quadratic forms ``s'``, is
    carried forward: the next candidate is ``I + alpha (G2 - I)``, which is
    ``G2`` itself (with the eigen rule's map spectrum) when ``alpha = 1``.
    ``c = 0`` is accepted and lands on the identity in a single step.
    """
    config = config or FixedPointConfig()
    if problem.c < 0.0:
        raise ValueError("nonconcave iteration requires a <= dim/2 (c >= 0)")
    return _run(problem, config,
                _scaled_steps(problem, config, config.alpha_rule),
                ("alpha_trace", "lambda_min_trace", "lambda_max_trace",
                 "iterate_eig_min_trace", "iterate_eig_max_trace"))


def fit_kent_tyler(data: Dataset, a: float, b: float,
                   config: FixedPointConfig | None = None) -> FitReport:
    """Data-augmentation baseline for the regime ``a < q/2``.

    Iterates ``Sigma <- n_eff^{-1} sum_i w_i u(t_i) x_i x_i'`` with
    ``t_i = x_i' Sigma^{-1} x_i`` and ``u(t) = (q - 2a)/t + 2/b``.  Whitened,
    this update is exactly the nonconcave candidate ``Gamma'``, so the fit
    runs as the unscaled (``alpha = 1``) whitened fixed point, with the same
    stopping rule and report.  ``init='identity'`` starts from
    ``Sigma = I`` in original coordinates.
    """
    config = config or FixedPointConfig()
    q = data.dim
    c, d = compute_constants(a, b, q, data.total_weight)
    if a >= 0.5 * q:
        raise ValueError("Kent-Tyler iteration requires a < dim/2")
    if config.init == "identity":
        config = replace(config, init="user", user_matrix=np.eye(q))
    problem = whiten(data, c, d)
    return _run(problem, config, _scaled_steps(problem, config, None), ())


def fit_scatter(data: Dataset, a: float, b: float,
                config: FixedPointConfig | None = None) -> FitReport:
    """Fit the scatter for fixed ``(a, b)``, dispatching on the sign of ``c``."""
    c, d = compute_constants(a, b, data.dim, data.total_weight)
    problem = whiten(data, c, d)
    if c <= 0.0:
        return fit_concave(problem, config)
    return fit_nonconcave(problem, config)
