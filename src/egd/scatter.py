"""Scatter-matrix maximum likelihood via fixed-point iterations.

With constants

    c = -2 (a - q/2) / n_eff,    d = 2 / (b n_eff),

the stationarity condition for the scatter takes the Kent-Tyler (1991) form

    Sigma = sum_i w_i (d + c / t_i) x_i x_i',    t_i = x_i' Sigma^{-1} x_i,

and every fit works on the data ``x``, the weights ``w`` and ``Sigma``
directly.  The right-hand side at an iterate is its *candidate*
``Sigma'``; its first term is ``B = d sum_i w_i x_i x_i'``, ``(2/b)`` times
the weighted second moment.  The sign of ``c`` selects the regime:

* ``c <= 0`` (``a >= q/2``) gives a concave log-likelihood and the
  globally convergent iteration ``Sigma <- P (Sigma + c' M)^{-1} P`` of
  :func:`fit_concave`, which lands on ``B`` when ``c = 0``.
* ``c > 0`` (``a < q/2``): :func:`fit_nonconcave` accepts ``alpha Sigma'``
  with ``alpha`` from an eigenvalue case analysis or a trace
  normalization; the data-augmentation baseline of Kent and Tyler is the
  unscaled (``alpha = 1``) iteration ``Sigma <- Sigma'``.

Each regime is a candidate, a step and a row function, run by one plain
driver loop.  An iterate's candidate is formed once and gives both its
stationarity residual, on which the driver stops (see
:class:`FixedPointConfig`), and the step taken from it; an iterate's
step factors it once, and it holds ``L``, ``L^{-1}`` and ``log|Sigma|``.
Only the driver calls the row functions, which fill the report's traces.
The EM scatter M-step is one iteration of the same candidate and step
functions, with the trace rule for ``c > 0``: one n x q^2 product, the
start's candidate, no ``B``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ._linalg import gram, quad_forms, reduced_eigvalsh, symmetrize
from .core import Dataset, ScatterMatrix, _log_norm_const, _radial_log_density

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
# two iterates within this many spacings of each other tie.
_LL_ROUNDING_ULPS = 4.0

_INITS = ("identity", "sample-cov", "user")
_ALPHA_RULES = ("eigen", "trace")


class RankDeficiencyError(ValueError):
    """Raised when the weighted data fail to span R^q: ``B`` has no Cholesky
    factor ``L``, or ``tr(B) ||L^{-1}||_F^2 >= 1e14`` (at least cond(B))."""


class _Breakdown(ValueError):
    """A step left the usable SPD cone; the fit stops near-singular."""


@dataclass(frozen=True, eq=False)
class FixedPointConfig:
    """Options shared by the fixed-point scatter fits.

    ``init`` selects the start: ``'identity'`` (``B = (2/b)`` times the
    weighted second moment for the fixed points, the ``'sample-cov'``
    start when ``b = 2``; ``I`` for Kent-Tyler), the weighted second
    moment, or ``user_matrix``, which must be symmetric to 1e-12 relative
    Frobenius error and positive definite, or the fit raises
    ``ValueError``.  ``alpha_rule`` only affects the nonconcave iteration.
    A fit stops at the first iterate ``Sigma_k = L L'`` whose stationarity
    residual ``r_k = ||L^{-1} (Sigma'_k - Sigma_k) L^{-T}||_F``, twice the
    norm of the Riemannian gradient, is at most ``tol``, or at its rounding
    floor: ``r_k >= r_{k-1}`` while the average log-likelihood ties within
    a few units in its last place (``r_0`` is the start's).
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

    ``loglik_trace`` and ``residual_trace`` hold the average log-likelihood
    and the stationarity residual of each accepted iterate;
    ``final_residual`` is the last residual, NaN after a near-singular
    stop.  Only the nonconcave iteration fills the alpha and lambda traces;
    the lambda traces hold the extreme eigenvalues of the fixed-point map at
    each step, the pencil ``(Sigma', Sigma)``, and ``iterate_eig_*`` those of
    the pencil ``(Sigma, B)`` of each iterate.  ``near_singular`` flags an
    abort caused by quadratic forms collapsing toward zero.
    """

    sigma_hat: ScatterMatrix
    iterations: int
    converged: bool
    final_residual: float
    loglik_trace: np.ndarray
    residual_trace: np.ndarray
    elapsed_ms_trace: np.ndarray
    alpha_trace: np.ndarray | None = None
    lambda_max_trace: np.ndarray | None = None
    lambda_min_trace: np.ndarray | None = None
    iterate_eig_min_trace: np.ndarray | None = None
    iterate_eig_max_trace: np.ndarray | None = None
    near_singular: bool = False

    def __post_init__(self):
        if not (len(self.loglik_trace) == len(self.residual_trace)
                == self.iterations):
            raise ValueError("trace lengths must equal iterations")


def compute_constants(a: float, b: float, q: int, n_eff: float):
    """Stationarity constants ``c = -2(a - q/2)/n_eff`` and ``d = 2/(b n_eff)``."""
    if not (a > 0.0 and b > 0.0 and n_eff > 0.0 and q >= 1):
        raise ValueError("a, b, n_eff must be positive and q at least 1")
    return -2.0 * (a - 0.5 * q) / n_eff, 2.0 / (b * n_eff)


@dataclass(frozen=True, eq=False)
class _Problem:
    """Weighted data and constants of a fit.  The first read of ``b_scatter``
    factors ``B = F F'`` and raises :class:`RankDeficiencyError` unless
    ``tr(B) ||F^{-1}||_F^2 < 1e14``; a nonconcave EM step never reads it."""

    x: np.ndarray
    w: np.ndarray
    c: float
    d: float
    n_eff: float
    shape_a: float
    scale_b: float
    log_const: float

    @cached_property
    def b_scatter(self) -> ScatterMatrix:
        b_mat = gram(self.x, self.d * self.w)
        try:
            b = ScatterMatrix._factored(b_mat)
        except ValueError as exc:
            raise RankDeficiencyError("data does not span R^q") from exc
        if _ill_conditioned(b):
            raise RankDeficiencyError("data does not span R^q")
        return b


def _problem(x: np.ndarray, w: np.ndarray, a: float, b: float) -> _Problem:
    q, n_eff = x.shape[1], float(w.sum())
    c, d = compute_constants(a, b, q, n_eff)
    return _Problem(x=x, w=w, c=c, d=d, n_eff=n_eff, shape_a=a, scale_b=b,
                    log_const=_log_norm_const(q, a, b))


def _radii(sigma: ScatterMatrix, x: np.ndarray) -> np.ndarray:
    return np.maximum(quad_forms(sigma._chol_inv, x), _DENOM_FLOOR)


def _residual(sigma: ScatterMatrix, g: np.ndarray | None) -> float:
    # ||L^{-1} (G - Sigma) L^{-T}||_F for Sigma = L L' and its candidate G
    # (NaN when it overflowed): the stationarity defect where Sigma is I;
    # at a tiny start it can overflow, to inf or NaN, as the stop rule allows
    if g is None:
        return math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        defect = sigma._chol_inv @ (g - sigma.entries) @ sigma._chol_inv.T
        return float(np.linalg.norm(defect, "fro"))


def stationarity_residual(sigma: ScatterMatrix, data: Dataset, c: float,
                          d: float) -> float:
    """Frobenius norm of the stationarity defect ``L^{-1} (Sigma' - Sigma)
    L^{-T}`` at ``sigma = L L'``, where ``Sigma' = sum_i w_i (d + c / t_i)
    x_i x_i'`` is the candidate."""
    if sigma.dim != data.dim:
        raise ValueError("sigma dimension does not match data")
    t = _radii(sigma, data.samples)
    return _residual(sigma, gram(data.samples, data.weights * (d + c / t)))


def _start(problem: _Problem, config: FixedPointConfig, identity=None):
    """Start, its squared radii and logs; ``identity`` defaults to ``B``.
    Reading ``B`` checks its rank; it and its multiples reuse its factor."""
    if config.init == "identity" and identity is None:
        start = problem.b_scatter
    elif config.init == "sample-cov":
        # the weighted second moment is (b/2) B
        start = problem.b_scatter._scaled(0.5 * problem.scale_b)
    else:
        start = ScatterMatrix(config.user_matrix if config.init == "user"
                              else identity)
        if start.dim != problem.b_scatter.dim:
            raise ValueError("user_matrix has wrong shape")
    t = _radii(start, problem.x)
    return start, t, np.log(t)


def _avg_loglik(problem: _Problem, t: np.ndarray, log_t: np.ndarray,
                logdet: float) -> float:
    # the constants stay outside the weighted sum
    shift = problem.shape_a - 0.5 * problem.x.shape[1]
    radial = _radial_log_density(t, log_t, shift, 0.0, problem.scale_b)
    # radii near DBL_MAX, as at a tiny start, sum to -inf
    with np.errstate(over="ignore"):
        total = float(problem.w @ radial)
    return problem.log_const - 0.5 * logdet + total / problem.n_eff


def _near_singular(eig_lo: float, eig_hi: float) -> bool:
    # collapse shows up in the iterate's spectrum; the spread of the
    # quadratic forms is no signal, since heavy-tailed data (tiny shape)
    # legitimately mixes huge and vanishing radii
    return not eig_lo > _NEAR_SINGULAR_REL * eig_hi


def _ill_conditioned(mat: ScatterMatrix) -> bool:
    # tr(M) ||L^{-1}||_F^2 = tr(M) tr(M^{-1}) (M = L L') is cond(M) to
    # within q^2: B's rank rule and a candidate's breakdown test.  Summed
    # term by term, as tr(M) can overflow where every entry is finite; a
    # term that overflows is inf, which is near singular
    linv = mat._chol_inv
    with np.errstate(over="ignore"):
        rank = float(np.sum(np.diag(mat.entries) * np.sum(linv * linv)))
    return _near_singular(1.0, rank)


def _run(problem: _Problem, config: FixedPointConfig, start, regime,
         fields: tuple = ()) -> FitReport:
    """Run a regime from ``start``, an iterate carrying its factor, its
    squared radii and their logs, to the stop of :class:`FixedPointConfig`.

    A regime is ``(candidate, step, row)``.  ``candidate(problem, sigma,
    t)`` is a tuple led by the candidate at ``sigma``, None when it
    overflows.  ``step(problem, sigma, cand)`` returns the next iterate,
    its squared radii, ``alpha`` (None if concave) and the candidate tuple
    it carries, if any.  ``row(problem, sigma, cand, alpha, next_cand)``
    (None for Kent-Tyler) fills the report traces ``fields`` in order.  A
    step that leaves the usable SPD cone raises :class:`_Breakdown`, and
    the last iterate is reported near-singular.
    """
    candidate, step, row = regime
    clock = time.perf_counter()
    sigma, t, log_t = start
    cand = candidate(problem, sigma, t)
    ll_prev = _avg_loglik(problem, t, log_t, sigma.log_det)
    r_prev = _residual(sigma, cand[0])
    lls, residuals, rows, elapsed = [], [], [], []
    converged = near_singular = False
    try:
        for _ in range(config.max_iter):
            nxt, t, alpha, next_cand = step(problem, sigma, cand)
            next_cand = next_cand or candidate(problem, nxt, t)
            if row is not None:
                rows.append(row(problem, sigma, cand, alpha, next_cand))
            sigma, cand, log_t = nxt, next_cand, np.log(t)
            ll = _avg_loglik(problem, t, log_t, sigma.log_det)
            r = _residual(sigma, cand[0])
            lls.append(ll)
            residuals.append(r)
            elapsed.append(1000.0 * (time.perf_counter() - clock))
            # at the rounding floor the residual stops shrinking while the
            # log-likelihood ties
            tie = abs(ll - ll_prev) <= _LL_ROUNDING_ULPS * np.spacing(abs(ll))
            if r <= config.tol or (r >= r_prev and tie):
                converged = True
                break
            r_prev, ll_prev = r, ll
    except _Breakdown:
        near_singular = True
    traces = {name: np.asarray([items[i] for items in rows])
              for i, name in enumerate(fields)}
    return FitReport(
        sigma_hat=sigma,
        iterations=len(lls),
        converged=converged,
        final_residual=math.nan if near_singular or not lls else r,
        loglik_trace=np.asarray(lls),
        residual_trace=np.asarray(residuals),
        elapsed_ms_trace=np.asarray(elapsed),
        near_singular=near_singular,
        **traces,
    )


def _concave_candidate(problem: _Problem, sigma: ScatterMatrix,
                       t: np.ndarray):
    """At an iterate: the candidate ``B + c M``, the eigenpairs of the
    pencil ``(Sigma, B)`` and ``M = sum_i w_i x_i x_i' / t_i``; ``c = 0``
    needs no ``M``, and an ``M`` that overflows gives None.

    The step is scale-invariant: at ``s Sigma`` the pencil and ``M`` are
    ``s`` times those at ``Sigma``.  So when the pencil overflows, as at a
    start far above ``B``, the eigenpairs and ``M`` are those of
    ``4^-k Sigma``, whose pencil is of order one, with its own squared
    radii; the candidate is still that at ``Sigma``."""
    fac_inv, b_mat = problem.b_scatter._chol_inv, problem.b_scatter.entries
    entries, k = sigma.entries, 0
    with np.errstate(over="ignore", invalid="ignore"):
        pencil = fac_inv @ entries @ fac_inv.T
    if not np.isfinite(pencil).all():
        # entries below 2^e of F^{-1} and 2^f of Sigma give a pencil below
        # q^2 2^(2e + f); its multiple at 4^-k stays below q^2
        e, f = (int(np.frexp(np.abs(arr).max())[1])
                for arr in (fac_inv, entries))
        k = (2 * e + f + 1) // 2
        entries = np.ldexp(entries, -2 * k)
        pencil = fac_inv @ entries @ fac_inv.T
        t = np.maximum(quad_forms(np.ldexp(sigma._chol_inv, k), problem.x),
                       _DENOM_FLOOR)
    vals, vecs = np.linalg.eigh(symmetrize(pencil))
    if problem.c == 0.0:
        return b_mat, vals, vecs, None
    try:
        m = gram(problem.x, problem.w / t)
    except ValueError:
        return None, vals, vecs, None
    # c M can overflow where M does not; its residual is then inf or nan
    with np.errstate(over="ignore"):
        return b_mat + problem.c * np.ldexp(m, 2 * k), vals, vecs, m


def _concave_step(problem: _Problem, sigma: ScatterMatrix, cand: tuple):
    """The step from what :func:`_concave_candidate` found at ``sigma``:
    the next iterate, its squared radii, no ``alpha`` and no candidate."""
    g, vals, vecs, m = cand
    # a pencil eigenvalue that rounds to zero or below stops here, so an
    # iterate that collapses is still reported
    if _near_singular(float(vals[0]), float(vals[-1])):
        raise _Breakdown("iterate is near singular")
    if g is None:
        raise _Breakdown("candidate overflows")
    b = problem.b_scatter
    if m is None:
        # c = 0: the step is F F' = B, which the problem holds
        return b, _radii(b, problem.x), None, None
    # With B = F F', C = F^{-1} Sigma F^{-T} and K = F C^{1/2} (so that
    # Sigma = K K' and P = K F'), the step P (Sigma + c' M)^{-1} P is
    # F (I + c' K^{-1} M K^{-T})^{-1} F', whose inverse is well conditioned
    fac, k_inv = b.cholesky, ((vecs / np.sqrt(vals)) @ vecs.T) @ b._chol_inv
    try:
        nxt = ScatterMatrix._factored(symmetrize(fac @ np.linalg.inv(
            np.eye(fac.shape[0])
            - problem.c * symmetrize(k_inv @ m @ k_inv.T)) @ fac.T))
    except ValueError as exc:
        raise _Breakdown("iterate is not factorizable") from exc
    return nxt, _radii(nxt, problem.x), None, None


def _concave_row(problem, sigma, cand, alpha, next_cand):
    # the spectrum of the next iterate's pencil (Sigma, B)
    return float(next_cand[1][0]), float(next_cand[1][-1])


_CONCAVE = (_concave_candidate, _concave_step, _concave_row)


def fit_concave(data: Dataset, a: float, b: float,
                config: FixedPointConfig | None = None) -> FitReport:
    """Fixed point for the concave regime ``a >= q/2`` (``c <= 0``).

    Iterates ``Sigma <- P (Sigma + c' M)^{-1} P`` with ``c' = -c``,
    ``M = sum_i w_i x_i x_i' / t_i`` and ``P`` the geometric mean of ``B``
    and ``Sigma`` (``P Sigma^{-1} P = B``).  Every iterate's pencil
    ``(Sigma, B)`` has its spectrum in ``[(1 + c' n_eff)^{-1}, 1]``.  With
    ``c = 0`` every step returns ``B`` itself, the weighted sample second
    moment when ``b = 2``, with the Cholesky factor the fit computed for
    it, and forms no product of the data beyond ``B`` and the radii.
    """
    config = config or FixedPointConfig()
    problem = _problem(data.samples, data.weights, a, b)
    if problem.c > 0.0:
        raise ValueError("concave iteration requires a >= dim/2 (c <= 0)")
    return _run(problem, config, _start(problem, config), _CONCAVE,
                ("iterate_eig_min_trace", "iterate_eig_max_trace"))


def _alpha(rule: str, problem: _Problem, prime: ScatterMatrix,
           t_prime: np.ndarray, g2: np.ndarray | None):
    """Step scaling at the candidate ``prime`` (squared radii ``t_prime``)
    and its map matrix ``g2``; the trace rule reads only ``t_prime``.

    The eigen rule leaves the step unscaled when the map spectrum, that of
    the pencil ``(g2, prime)``, brackets one; otherwise it shrinks
    the step so the largest map eigenvalue lands on one, or stretches it so
    the smallest does.
    """
    if rule == "trace":
        # at a fixed point tr(Sigma^{-1} Sigma') = q, so tr(Sigma^{-1} B) =
        # q - c n_eff = 2a whatever the weights; tr(Sigma'^{-1} B) is
        # d sum_i w_i t'_i
        alpha = (problem.d * float(problem.w @ t_prime)
                 / (2.0 * problem.shape_a))
    else:
        lam = reduced_eigvalsh(g2, prime._chol_inv)
        if lam[-1] >= 1.0 >= lam[0]:
            return 1.0
        b = problem.b_scatter
        avals = reduced_eigvalsh(prime.entries + b.entries - g2, b._chol_inv)
        inv_alpha = float(avals[0] if lam[-1] < 1.0 else avals[-1])
        alpha = 1.0 / inv_alpha if inv_alpha != 0.0 else math.inf
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise _Breakdown(f"alpha selection failed: alpha = {alpha}")
    return alpha


def _scaled_candidate(problem: _Problem, sigma, t: np.ndarray):
    # the candidate at squared radii t, or None when it overflows
    try:
        return (gram(problem.x, problem.w * (problem.d + problem.c / t)),)
    except ValueError:
        return (None,)


def _scaled_step(problem: _Problem, sigma: ScatterMatrix, cand: tuple,
                 rule: str | None):
    """The step to ``alpha Sigma'`` from the candidate ``Sigma'``, unscaled
    under rule None (Kent-Tyler): it, its squared radii, ``alpha`` and the
    eigen rule's candidate at it (None under other rules)."""
    (g_prime,) = cand
    if g_prime is None:
        raise _Breakdown("candidate overflows")
    try:
        prime = ScatterMatrix._factored(g_prime)
    except ValueError as exc:
        raise _Breakdown("candidate is not factorizable") from exc
    # Sigma' >= B, which spans R^q, so a candidate that fails B's rank
    # rule means the trajectory left the usable SPD cone
    if _ill_conditioned(prime):
        raise _Breakdown("candidate is near singular")
    t_prime = _radii(prime, problem.x)
    g2 = None
    if rule == "eigen":
        (g2,) = _scaled_candidate(problem, None, t_prime)
        if g2 is None:
            raise _Breakdown("map matrix overflows")
    alpha = 1.0 if rule is None else _alpha(rule, problem, prime, t_prime, g2)
    if g2 is not None and alpha != 1.0:
        # with t = t'/alpha the candidate at alpha Sigma' is B + alpha (G2 - B)
        b_mat = problem.b_scatter.entries
        g2 = b_mat + alpha * (g2 - b_mat)
    return (prime._scaled(alpha), t_prime / alpha, alpha,
            None if g2 is None else (g2,))


def _scaled_row(problem, sigma, cand, alpha, next_cand):
    # alpha, then the spectra of (Sigma', Sigma) and (alpha Sigma', B)
    lam = reduced_eigvalsh(cand[0], sigma._chol_inv)
    mu = reduced_eigvalsh(cand[0], problem.b_scatter._chol_inv)
    return (alpha, float(lam[0]), float(lam[-1]),
            alpha * float(mu[0]), alpha * float(mu[-1]))


def _scaled(rule: str | None):
    """The nonconcave regime under ``rule``; Kent-Tyler (None) has no row."""
    return (_scaled_candidate, partial(_scaled_step, rule=rule),
            None if rule is None else _scaled_row)


def fit_nonconcave(data: Dataset, a: float, b: float,
                   config: FixedPointConfig | None = None) -> FitReport:
    """Scaled fixed point for the nonconcave regime ``a < q/2`` (``c > 0``).

    Each step accepts ``alpha Sigma'``.  Under ``alpha_rule='eigen'``
    ``alpha`` comes from the spectrum of the map at ``Sigma'``: once its
    extreme eigenvalues bracket one the step is unscaled, and the scaling
    tends to one as the iteration converges.  This rule forms the map
    matrix ``G2``, the candidate at ``Sigma'``, and carries
    ``B + alpha (G2 - B)`` forward as the next candidate.  Under
    ``alpha_rule='trace'`` ``alpha Sigma'`` gets the inverse trace
    ``tr(Sigma^{-1} B) = 2a`` of every fixed point, read from the squared
    radii at ``Sigma'``, and each candidate is built from the data.
    ``a = q/2`` (``c = 0``) is accepted and lands on ``B`` in a single step.
    """
    config = config or FixedPointConfig()
    problem = _problem(data.samples, data.weights, a, b)
    if problem.c < 0.0:
        raise ValueError("nonconcave iteration requires a <= dim/2 (c >= 0)")
    return _run(problem, config, _start(problem, config),
                _scaled(config.alpha_rule),
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
    problem = _problem(data.samples, data.weights, a, b)
    return _run(problem, config, _start(problem, config, np.eye(q)),
                _scaled(None))


def fit_scatter(data: Dataset, a: float, b: float,
                config: FixedPointConfig | None = None) -> FitReport:
    """Fit the scatter for fixed ``(a, b)``, dispatching on the sign of ``c``."""
    c, _ = compute_constants(a, b, data.dim, data.total_weight)
    fit = fit_concave if c <= 0.0 else fit_nonconcave
    # by keyword: perfbench's span note reads a second positional argument
    # of fit_nonconcave as its config
    return fit(data, a=a, b=b, config=config)


def _em_step(x: np.ndarray, w: np.ndarray, a: float, b: float,
             start: ScatterMatrix, t: np.ndarray, log_t: np.ndarray):
    """One iteration of the fits' concave or trace-rule candidate and step
    functions on the rows ``x`` under weights ``w`` from ``start`` (squared
    radii ``t``, logs ``log_t``), with no row: the average log-likelihoods
    at the start and the step, the step, its squared radii and logs.  A
    failed step, as on a rank-deficient subset, raises :class:`_Breakdown`."""
    problem = _problem(x, w, a, b)
    t = np.maximum(t, _DENOM_FLOOR)
    ll_start = _avg_loglik(problem, t, log_t, start.log_det)
    candidate, step, _ = _CONCAVE if problem.c <= 0.0 else _scaled("trace")
    sigma, t, *_ = step(problem, start, candidate(problem, start, t))
    log_t = np.log(t)
    return (ll_start, _avg_loglik(problem, t, log_t, sigma.log_det), sigma,
            t, log_t)
