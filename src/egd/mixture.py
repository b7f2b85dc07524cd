"""EM fitting for mixtures of elliptical gamma distributions.

The M-step is split into two blocks, alternated in stages: stage 1 refits
each component's scatter by the regime-appropriate weighted fixed point with
the radial parameters held fixed, stage 2 refits each component's gamma
shape and scale from the squared radii under the current scatters.

The scatter block is a generalized-EM step (Dempster, Laird & Rubin 1977):
each component takes one fixed-point step from its current scatter per
sweep instead of solving its subproblem.  A nonconcave component's step
uses the trace rule for its scaling, so it forms one n x q^2 product, the
candidate at the start, and no weighted second moment, and the refit keeps
the Cholesky factor the step computed.  The M-step then compares the
refit with its start: when the refit lowers the component's weighted
log-likelihood it is dropped and the start kept, so no scatter sweep lowers
the EM objective and the per-sweep trace is nondecreasing by construction,
not up to a solver tolerance.

The radial stage converges linearly, so it runs as SQUAREM cycles (Varadhan
& Roland 2008) over ``theta = (log a_k, log b_k, log pi_k)`` with the
scatters fixed: two plain sweeps ``theta0 -> theta1 -> theta2``, then, unless
the step length is capped at -1 (where the point is ``theta2``), one E-step
at the extrapolated point.  The point is kept, and refitted, only when its
average log-likelihood is at least the last one recorded and no component
would be removed there; otherwise the cycle goes on from ``theta2``.
So this stage, too, never lowers the trace.

The squared radii ``t_ki = x_i' Sigma_k^{-1} x_i`` depend on the scatters
only, so :func:`fit_mixture` keeps the K x n matrix of radii and of their
logarithms and reuses both in every E-step and radial refit until the next
scatter update (the conditional-maximization structure of ECM, Meng & Rubin
1993).  A scatter step starts from the radii and their logs at hand and
leaves those of its refit behind, which agree to rounding with the ones
:func:`e_step` computes from the refitted scatter.  The E-step forms the
K x n log-joint in one pass over the cached matrices, and the radial refit
needs only each component's weighted mean radius and mean log radius.  The
public :func:`e_step`, :func:`m_step_scatter` and :func:`m_step_shape`
compute the radii afresh and run the same private kernels.  The
``kmeans-on-radii`` start is one Lloyd loop on the sample norms, sorted once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._linalg import gram
from .core import (Dataset, EgdParams, MixtureModel, ScatterMatrix, _log,
                   _log_norm_const, _radial_log_density, sample,
                   squared_radius)
from .gammafit import _fit_gamma_moments
from . import scatter
from .scatter import RankDeficiencyError

__all__ = [
    "Responsibilities",
    "EmConfig",
    "EmReport",
    "e_step",
    "m_step_scatter",
    "m_step_shape",
    "fit_mixture",
    "sample_mixture",
    "mixture_log_likelihood",
    "mi_rate",
    "preprocess_patches",
]

_EM_INITS = ("random-assignment", "kmeans-on-radii", "user-model")

# most E-steps of a radial stage, rejected extrapolations included; stage 2
# stops early when it stalls
_STAGE2_E_STEPS = 20

# most Lloyd passes of the k-means-on-radii start
_KMEANS_PASSES = 100


class Responsibilities:
    """Posterior component probabilities, one column per sample, held as a
    read-only view of the caller's array, as in :class:`egd.Dataset`."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.ascontiguousarray(np.asarray(matrix, dtype=float)).view()
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("responsibilities must be a (K, n) array")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("responsibilities must be finite and nonnegative")
        if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-12:
            raise ValueError("responsibility columns must sum to one")
        m.setflags(write=False)
        self._matrix = m

    @classmethod
    def _unchecked(cls, matrix: np.ndarray) -> "Responsibilities":
        # the E-step's own output, which is valid by construction
        matrix.setflags(write=False)
        out = object.__new__(cls)
        out._matrix = matrix
        return out

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n_components(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        k, n = self._matrix.shape
        return f"Responsibilities(n_components={k}, n={n})"


@dataclass(frozen=True, eq=False)
class EmConfig:
    """Options for :func:`fit_mixture`.

    Each outer round runs one scatter sweep followed by a radial stage of
    SQUAREM cycles with at most 20 E-steps, rejected extrapolations
    included (stage 2 stops early once its own improvement falls below
    ``tol``).  The run converges when the average log-likelihood changes by
    less than ``tol`` over a full round.

    The default ``init="kmeans-on-radii"`` labels the samples by their
    norms.  ``init="random-assignment"`` labels them by a random balanced
    permutation drawn from ``seed``, which drives nothing else; it suits
    components that differ only in orientation, whose norms do not tell
    them apart.  ``init="user-model"`` starts from ``user_model``, which
    must have ``n_components`` components.

    A component's radial parameters are frozen for a sweep while its
    effective weight is at most ``q(q+1)/2 + 1`` (see :func:`m_step_shape`),
    and its scatter while that weight is below ``q``.
    """

    n_components: int
    outer_rounds: int = 100
    tol: float = 1e-6
    seed: int = 0
    init: str = "kmeans-on-radii"
    user_model: MixtureModel | None = None

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")
        if self.outer_rounds < 1:
            raise ValueError("outer_rounds must be at least 1")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive")
        if self.init not in _EM_INITS:
            raise ValueError(f"init must be one of {_EM_INITS}")
        if (self.init == "user-model") != (self.user_model is not None):
            raise ValueError("user_model required exactly when init='user-model'")
        if (self.user_model is not None
                and self.user_model.n_components != self.n_components):
            raise ValueError("user_model must have n_components components")


@dataclass(frozen=True, eq=False)
class EmReport:
    model: MixtureModel
    loglik_trace: np.ndarray
    responsibilities: Responsibilities
    converged: bool
    rounds: int


def e_step(model: MixtureModel, data: Dataset):
    """Responsibilities and total weighted log-likelihood under ``model``.

    Computed entirely in log space with a per-sample max shift.  A sample
    with zero density under every component raises, reporting its index.
    """
    if data.dim != model.dim:
        raise ValueError("data dimension does not match model")
    return _e_step(model, data, *_squared_radii(model, data))


def _squared_radii(model, data):
    """K x n squared radii of each sample under each scatter, and their logs."""
    radii = np.stack([squared_radius(comp.scatter, data.samples)
                      for comp in model.components])
    return radii, _log(radii)


def _e_step(model, data, radii, log_radii):
    """:func:`e_step` from the K x n squared radii and their logarithms.

    Row ``j`` of the log-joint is ``log p_j(x_i) + log pi_j``: the radial
    kernel's row, constant ``|Sigma_j|`` term included, plus ``log pi_j``.
    """
    q = model.dim
    log_joint = np.empty_like(radii)
    for k, comp in enumerate(model.components):
        const = (_log_norm_const(q, comp.shape_a, comp.scale_b)
                 - 0.5 * comp.scatter.log_det)
        _radial_log_density(radii[k], log_radii[k], comp.shape_a - 0.5 * q,
                            const, comp.scale_b, out=log_joint[k])
    log_joint += _log(model.mix_probs)[:, None]
    peak = log_joint.max(axis=0)
    finite = np.isfinite(peak)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"sample {idx} has zero density under every component")
    work = np.subtract(log_joint, peak)
    np.exp(work, out=work)
    log_norm = peak + np.log(work.sum(axis=0))
    log_joint -= log_norm
    resp = np.exp(log_joint, out=log_joint)
    total = float(data.weights @ log_norm)
    return Responsibilities._unchecked(resp), total


def mixture_log_likelihood(model: MixtureModel, data: Dataset) -> float:
    """Total weighted log-likelihood of ``data`` under ``model``."""
    return e_step(model, data)[1]


def m_step_scatter(data: Dataset, resp: Responsibilities,
                   model: MixtureModel) -> MixtureModel:
    """Refit every component scatter with radial parameters held fixed.

    Component ``k`` takes one step of its regime's fixed point (a
    generalized-EM update) with weights ``w_i t_ki`` from its current
    scatter; a nonconcave step is scaled by the trace rule
    (``alpha_rule='trace'``) and forms one n x q^2 product, its candidate.
    The refit is then compared with its start, and a refit that lowers the
    component's weighted log-likelihood (or whose log-likelihood is not a
    number) is dropped in favour of the start, so the M-step never lowers
    the EM objective.  A component whose effective weight falls below the
    dimension, or whose step fails (on a rank-deficient subset, say), is
    kept for the sweep with a warning.  Mixing probabilities are refreshed
    from the responsibilities.
    """
    if resp.matrix.shape != (model.n_components, data.n):
        raise ValueError("responsibilities shape does not match model and data")
    return _m_step_scatter(data, resp, model, *_squared_radii(model, data))


def _component_weights(data, resp):
    """Each component's weights ``w_i t_ki`` as one K x n product, the
    total of each row and the mixing probabilities they give."""
    weights = data.weights * resp.matrix
    totals = [float(wk.sum()) for wk in weights]
    probs = np.asarray(totals) / data.total_weight
    return weights, totals, probs / probs.sum()


def _m_step_scatter(data, resp, model, radii, log_radii):
    # the rows of ``radii`` and ``log_radii`` of a refitted component are
    # overwritten in place with the refit's; a component that keeps its
    # scatter keeps its rows
    weights, totals, probs = _component_weights(data, resp)
    comps = list(model.components)
    for k, comp in enumerate(model.components):
        wk, swk = weights[k], totals[k]
        if swk < data.dim:
            warnings.warn(f"component {k} is degenerate (effective weight "
                          f"{swk:.3g} < dim); scatter frozen for this sweep")
            continue
        try:
            ll_start, ll, sigma, refit_radii, refit_log_radii = (
                scatter._em_step(data.samples, wk, comp.shape_a,
                                 comp.scale_b, comp.scatter, radii[k],
                                 log_radii[k]))
        except (RankDeficiencyError, scatter._Breakdown) as exc:
            warnings.warn(f"component {k} scatter frozen for this sweep: {exc}")
            continue
        if ll >= ll_start:
            comps[k] = EgdParams(sigma, comp.shape_a, comp.scale_b)
            radii[k] = refit_radii
            log_radii[k] = refit_log_radii
    return MixtureModel(comps, probs)


def m_step_shape(data: Dataset, resp: Responsibilities,
                 model: MixtureModel) -> MixtureModel:
    """Refit every component's gamma shape and scale from squared radii.

    A component whose effective weight ``sum_i w_i t_ki`` is at most
    ``q(q+1)/2 + 1`` keeps its shape and scale, with a warning: that few
    points can lie on one centered ellipsoid, where their radii are equal,
    the shape runs off and the mixture likelihood grows without bound
    (Hathaway 1985).
    """
    if resp.matrix.shape != (model.n_components, data.n):
        raise ValueError("responsibilities shape does not match model and data")
    return _m_step_shape(data, resp, model, *_squared_radii(model, data))


def _m_step_shape(data, resp, model, radii, log_radii):
    # the weighted mean radius and mean log radius are all a gamma fit reads
    weights, totals, probs = _component_weights(data, resp)
    # x'Mx = 1 is linear in the q(q+1)/2 entries of M, so that many points
    # can share one ellipsoid; without the + 1 some shapes still ran off
    floor = 0.5 * data.dim * (data.dim + 1) + 1.0
    comps = list(model.components)
    for k, comp in enumerate(model.components):
        wk, swk = weights[k], totals[k]
        if swk <= floor:
            warnings.warn(f"component {k} has effective weight {swk:.3g} <= "
                          f"{floor:g}; radial parameters frozen for this sweep")
            continue
        try:
            fit = _fit_gamma_moments(float(wk @ radii[k]) / swk,
                                     float(wk @ log_radii[k]) / swk)
        except ValueError:
            warnings.warn(f"component {k} has degenerate radii; radial "
                          "parameters frozen for this sweep")
            continue
        comps[k] = EgdParams(comp.scatter, fit.shape_a, fit.scale_b)
    return MixtureModel(comps, probs)


def _live(resp, data):
    # removing a component with at most eps = 2^-52 times n_eff of effective
    # weight moves the average log-likelihood by about 2 eps at most
    return resp.matrix @ data.weights > 2.0 ** -52 * data.total_weight


def _respond(model, radii, log_radii, data):
    """E-step that removes, with a warning, the components it leaves empty
    (see :func:`_live`) and their rows of the radii, then repeats."""
    while True:
        resp, total = _e_step(model, data, radii, log_radii)
        keep = _live(resp, data)
        if keep.all() or model.n_components == 1:
            return model, radii, log_radii, resp, total
        warnings.warn(f"removing {int(np.count_nonzero(~keep))} "
                      "empty component(s)")
        probs = model.mix_probs[keep]
        model = MixtureModel([c for c, k in zip(model.components, keep) if k],
                             probs / probs.sum())
        radii, log_radii = radii[keep], log_radii[keep]


def _radial_theta(model):
    """``(log a_k, log b_k, log pi_k)``, the point SQUAREM extrapolates."""
    comps = model.components
    return np.log([c.shape_a for c in comps] + [c.scale_b for c in comps]
                  + list(model.mix_probs))


def _extrapolated(model0, model1, model2):
    """SQUAREM point of two radial sweeps ``theta0 -> theta1 -> theta2``.

    With ``r = theta1 - theta0``, ``v = theta2 - theta1 - r`` and the step
    length ``alpha = -|r| / |v|`` (Varadhan & Roland 2008, scheme S3), the
    point is ``theta0 - 2 alpha r + alpha^2 v``, a model with the shared
    scatters of the three.  Returns None when ``alpha`` is capped at -1,
    where the point is ``theta2`` itself, or when the point has no model
    (a shape or scale that overflows or underflows).
    """
    theta0, theta1, theta2 = (_radial_theta(m) for m in (model0, model1,
                                                          model2))
    r = theta1 - theta0
    v = theta2 - theta1 - r
    norm_r, norm_v = math.sqrt(r @ r), math.sqrt(v @ v)
    if not 0.0 < norm_v < norm_r:
        return None
    alpha = -norm_r / norm_v
    theta = theta0 - 2.0 * alpha * r + (alpha * alpha) * v
    k = model2.n_components
    try:
        comps = [EgdParams(comp.scatter, math.exp(theta[j]),
                           math.exp(theta[k + j]))
                 for j, comp in enumerate(model2.components)]
    except (OverflowError, ValueError):
        return None
    probs = np.exp(theta[2 * k:] - theta[2 * k:].max())
    return MixtureModel(comps, probs / probs.sum())


def _radial_stage(data, model, radii, log_radii, tol, trace):
    """Stage 2 of a round as SQUAREM cycles; see :func:`fit_mixture`."""
    n_eff = data.total_weight
    cycle = [model]
    trial = None
    prev = None
    for e_step in range(1, _STAGE2_E_STEPS + 1):
        if trial is None:
            k = model.n_components
            model, radii, log_radii, resp, total = _respond(model, radii,
                                                            log_radii, data)
            # a pruned component restarts the cycle
            if model.n_components != k:
                cycle = []
        else:
            point, trial = trial, None
            # a rejected point leaves no trace: no record and no warning
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    resp, total = _e_step(point, data, radii, log_radii)
            except ValueError:
                continue
            if not (total / n_eff >= prev and _live(resp, data).all()):
                continue
            # an accepted point restarts the cycle too
            model, cycle = point, []
        avg = total / n_eff
        trace.append(avg)
        model = _m_step_shape(data, resp, model, radii, log_radii)
        if prev is not None and abs(avg - prev) < tol:
            break
        prev = avg
        cycle.append(model)
        if len(cycle) == 3 and e_step < _STAGE2_E_STEPS:
            trial = _extrapolated(*cycle)
            cycle = [model]
    return model, radii, log_radii


def _labels_to_model(data, labels, k):
    x, w, total = data.samples, data.weights, data.total_weight
    # an empty cluster, or one whose moment fails, takes the pooled one
    pooled = None
    comps = []
    probs = np.empty(k)
    for j in range(k):
        wj = w * (labels == j)
        swj = float(wj.sum())
        probs[j] = swj / total
        sigma = None
        if swj > 0.0:
            try:
                sigma = ScatterMatrix(gram(x, wj / swj))
            except ValueError:
                pass
        if sigma is None:
            if pooled is None:
                moment = gram(x, w / total)
                try:
                    pooled = ScatterMatrix(moment)
                except ValueError as exc:
                    raise RankDeficiencyError("data does not span R^q") from exc
            sigma = pooled
        comps.append(EgdParams(sigma, 0.5 * data.dim, 2.0))
    probs = np.maximum(probs, 1.0 / (k * data.n))
    return MixtureModel(comps, probs / probs.sum())


def _kmeans_radii_labels(radii, k):
    """One-dimensional Lloyd iteration on the radii, sorted once.

    Seeded at the interior quantiles ``(j + 1/2) / k``; each pass labels a
    radius by ``argmin`` of its distances to the centers (a tie goes to the
    lower index) and moves each center to its cluster's mean, which the
    sorted radii sum in ascending order, or an empty cluster's to the
    radius farthest from every center (of equally far ones, the first in
    the input).  Stops when the labels repeat.
    """
    order = np.argsort(radii)
    s = radii[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(s.size)
    centers = np.quantile(s, (np.arange(k) + 0.5) / k)
    labels = np.zeros(s.size, dtype=int)
    for _ in range(_KMEANS_PASSES):
        dist = np.abs(s[:, None] - centers[None, :])
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = s[mask].mean()
            else:
                centers[j] = radii[np.argmax(dist.min(axis=1)[rank])]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels[rank]


def _init_model(data, config):
    k = config.n_components
    if config.init == "user-model":
        model = config.user_model
        if model.dim != data.dim:
            raise ValueError("user model dimension does not match data")
        return model
    if config.init == "kmeans-on-radii":
        x = data.samples
        # squares of entries past 2^500 could overflow; one power-of-two
        # scale of every row is exact and leaves the Lloyd labels unchanged
        shift = int(np.frexp(np.abs(x).max())[1]) - 500
        labels = _kmeans_radii_labels(
            np.linalg.norm(np.ldexp(x, -shift) if shift > 0 else x, axis=1), k)
    else:
        # a balanced labelling: floor(n/k) >= q samples in every component
        labels = np.random.default_rng(config.seed).permutation(data.n) % k
    return _labels_to_model(data, labels, k)


def fit_mixture(data: Dataset, config: EmConfig) -> EmReport:
    """Two-stage EM for an elliptical gamma mixture.

    EM starts from ``config.init``: by default k-means on the sample norms,
    or a seeded balanced random labelling (see :class:`EmConfig`).  Each
    round's stage 1 is one E-step followed by one scatter sweep (see
    :func:`m_step_scatter`).  Its stage 2 alternates E-steps with radial
    refits in SQUAREM cycles: after every two refits the radial parameters
    are extrapolated, and the extrapolated point is kept and refitted only
    if its E-step does not lower the average log-likelihood and leaves no
    component empty.  Stage 2 takes at most 20 E-steps and stops early once
    the change between two recorded ones falls below ``tol``.
    ``loglik_trace`` records the average log-likelihood of every accepted
    E-step, plus a final evaluation of the returned model; a rejected
    extrapolation is neither recorded nor warned about.  Components whose
    effective weight falls to ``2^-52 n_eff`` are removed with a warning.

    The squared radii and their logarithms are computed once for the
    initial model.  Each scatter refit overwrites its component's rows of
    both with those the refit leaves behind; the rows are shared by every
    E-step and radial refit until the next scatter refit and dropped with a
    pruned component.  The results are those of calling :func:`e_step`,
    :func:`m_step_scatter` and :func:`m_step_shape`, which recompute the
    radii, in the same schedule, to rounding.  The returned responsibility
    matrix is read-only.  Positive-weight rows that do not span R^q raise
    :class:`RankDeficiencyError` at a data-driven start.
    """
    k = config.n_components
    if data.n < k * data.dim:
        raise ValueError("need at least n_components * dim samples")
    model = _init_model(data, config)
    radii, log_radii = _squared_radii(model, data)
    n_eff = data.total_weight
    trace = []
    converged = False
    prev_round = None
    for rounds in range(1, config.outer_rounds + 1):
        model, radii, log_radii, resp, total = _respond(model, radii,
                                                        log_radii, data)
        trace.append(total / n_eff)
        model = _m_step_scatter(data, resp, model, radii, log_radii)
        model, radii, log_radii = _radial_stage(data, model, radii, log_radii,
                                                config.tol, trace)
        if prev_round is not None and abs(trace[-1] - prev_round) < config.tol:
            converged = True
            break
        prev_round = trace[-1]
    model, _, _, resp, total = _respond(model, radii, log_radii, data)
    trace.append(total / n_eff)
    return EmReport(model=model, loglik_trace=np.asarray(trace),
                    responsibilities=resp, converged=converged, rounds=rounds)


def sample_mixture(model: MixtureModel, n: int, seed: int) -> Dataset:
    """Draw ``n`` samples from a mixture; deterministic for a given seed."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = np.random.default_rng(seed)
    labels = rng.choice(model.n_components, size=n, p=model.mix_probs)
    comp_seeds = rng.integers(0, 2**63, size=model.n_components)
    out = np.empty((n, model.dim))
    for k, comp in enumerate(model.components):
        mask = labels == k
        nk = int(mask.sum())
        if nk:
            out[mask] = sample(comp, nk, int(comp_seeds[k])).samples
    return Dataset(out)


def mi_rate(avg_loglik_per_patch: float, entropy_source: Dataset, q: int,
            bins: int | None = None) -> float:
    """Multi-information rate, in bits per pixel.

    ``(H + avg_loglik_per_patch / (q - 1)) / log 2`` where ``H`` is the
    plug-in differential entropy (nats) of the pooled one-dimensional
    marginal of ``entropy_source``, estimated with an equal-width histogram.
    The bin count defaults to ``ceil(N^(1/3))`` over the ``N`` pooled
    entries and can be overridden via ``bins``.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    pooled = entropy_source.samples.ravel()
    n_pooled = pooled.size
    if bins is None:
        bins = int(math.ceil(n_pooled ** (1.0 / 3.0)))
    counts, edges = np.histogram(pooled, bins=bins)
    width = float(edges[1] - edges[0])
    probs = counts[counts > 0] / n_pooled
    entropy = -float(np.sum(probs * np.log(probs))) + math.log(width)
    return (entropy + avg_loglik_per_patch / (q - 1)) / math.log(2.0)


def preprocess_patches(raw: Dataset, noise_fraction: float = 0.002,
                       seed: int = 0) -> Dataset:
    """Log-transform positive intensities and add scaled Gaussian noise.

    The noise variance is ``noise_fraction`` times the pooled variance of
    the log intensities; ``noise_fraction = 0`` yields the pure log
    transform.  Deterministic for a given seed.
    """
    if noise_fraction < 0.0 or not math.isfinite(noise_fraction):
        raise ValueError("noise_fraction must be nonnegative")
    x = raw.samples
    bad = np.argwhere(x <= 0.0)
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"entry ({int(i)}, {int(j)}) is not positive; "
                         "intensities must be positive")
    logged = np.log(x)
    if noise_fraction > 0.0:
        std = math.sqrt(noise_fraction * float(logged.var()))
        rng = np.random.default_rng(seed)
        logged = logged + rng.normal(0.0, std, size=logged.shape)
    return Dataset(logged, raw.weights)
