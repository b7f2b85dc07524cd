"""EM fitting for mixtures of elliptical gamma distributions.

The M-step is split into two blocks, alternated in stages: stage 1 refits
each component's scatter by the regime-appropriate weighted fixed point with
the radial parameters held fixed, stage 2 refits each component's gamma
shape and scale from the squared radii under the current scatters.

The scatter block is a generalized-EM step (Dempster, Laird & Rubin 1977):
each component takes one fixed-point step from its current scatter per
sweep instead of solving its subproblem.  The M-step then compares the
refit with its start: when the refit lowers the component's weighted
log-likelihood it is dropped and the start kept, so no scatter sweep lowers
the EM objective and the per-sweep trace is nondecreasing by construction,
not up to a solver tolerance.

The squared radii ``x_i' Sigma_k^{-1} x_i`` depend on the scatters only, so
:func:`fit_mixture` computes each component's radii once per scatter update
and reuses them in every E-step and radial refit until the next one (the
conditional-maximization structure of ECM, Meng & Rubin 1993).  The same
scatter always yields the same radii, so this changes no result.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (Dataset, EgdParams, MixtureModel, ScatterMatrix,
                   _log_density_from_radii, sample, squared_radius)
from .gammafit import WeightedSample, fit_gamma_weighted
from . import scatter
from .scatter import FixedPointConfig, RankDeficiencyError

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

# most radial sweeps per outer round; stage 2 stops early when it stalls
_STAGE2_SWEEPS = 20

# one step per component per sweep (generalized EM); the M-step's check
# against the start, not a subproblem tolerance, keeps the trace monotone
_SCATTER_STEP = FixedPointConfig(tol=1e-10, max_iter=1, residual_check=False)


class Responsibilities:
    """Posterior component probabilities, one column per sample."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.ascontiguousarray(np.asarray(matrix, dtype=float))
        if m.ndim != 2 or m.shape[0] < 1:
            raise ValueError("responsibilities must be a (K, n) array")
        if np.any(m < 0.0) or not np.all(np.isfinite(m)):
            raise ValueError("responsibilities must be finite and nonnegative")
        if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-12:
            raise ValueError("responsibility columns must sum to one")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def n_components(self) -> int:
        return self._matrix.shape[0]


@dataclass(frozen=True, eq=False)
class EmConfig:
    """Options for :func:`fit_mixture`.

    Each outer round runs one scatter sweep followed by up to 20 radial
    sweeps (stage 2 stops early once its own improvement falls below
    ``tol``).  The run converges when the average log-likelihood changes by
    less than ``tol`` over a full round.
    """

    n_components: int
    outer_rounds: int = 100
    tol: float = 1e-6
    seed: int = 0
    init: str = "random-assignment"
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
    return _e_step(model, data, _squared_radii(model, data))


def _squared_radii(model, data):
    """K x n matrix of every sample's squared radius under every scatter."""
    return np.stack([squared_radius(comp.scatter, data.samples)
                     for comp in model.components])


def _e_step(model, data, radii):
    log_joint = np.empty(radii.shape)
    with np.errstate(divide="ignore"):
        log_probs = np.log(model.mix_probs)
    for j, comp in enumerate(model.components):
        log_joint[j] = _log_density_from_radii(comp, radii[j]) + log_probs[j]
    shift = log_joint.max(axis=0)
    finite = np.isfinite(shift)
    if not finite.all():
        idx = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"sample {idx} has zero density under every component")
    log_norm = shift + np.log(np.exp(log_joint - shift).sum(axis=0))
    resp = np.exp(log_joint - log_norm)
    total = float(data.weights @ log_norm)
    return Responsibilities(resp), total


def mixture_log_likelihood(model: MixtureModel, data: Dataset) -> float:
    """Total weighted log-likelihood of ``data`` under ``model``."""
    return e_step(model, data)[1]


def m_step_scatter(data: Dataset, resp: Responsibilities,
                   model: MixtureModel) -> MixtureModel:
    """Refit every component scatter with radial parameters held fixed.

    Component ``k`` takes one fixed-point step (a generalized-EM update)
    with weights ``w_i t_ki`` from its current scatter.  The refit is then
    compared with its start, and a refit that lowers the component's
    weighted log-likelihood is dropped in favour of the start, so the M-step
    never lowers the EM objective.  A component whose effective weight falls
    below the dimension is left unchanged for the sweep and flagged with a
    warning.  Mixing probabilities are refreshed from the responsibilities.
    """
    if resp.matrix.shape != (model.n_components, data.n):
        raise ValueError("responsibilities shape does not match model and data")
    return _m_step_scatter(data, resp, model, _squared_radii(model, data))[0]


def _m_step_scatter(data, resp, model, radii):
    # returns the model and its K x n radius matrix; a component that keeps
    # its scatter keeps its row of ``radii``
    t = resp.matrix
    radii = radii.copy()
    new_comps = []
    new_probs = np.empty(model.n_components)
    for k, comp in enumerate(model.components):
        wk = data.weights * t[k]
        swk = float(wk.sum())
        new_probs[k] = swk / data.total_weight
        if swk < data.dim:
            warnings.warn(f"component {k} is degenerate (effective weight "
                          f"{swk:.3g} < dim); scatter frozen for this sweep")
            new_comps.append(comp)
            continue
        cfg_k = replace(_SCATTER_STEP, init="user",
                        user_matrix=comp.scatter.entries)
        try:
            report = scatter.fit_scatter(data._reweighted(wk), comp.shape_a,
                                         comp.scale_b, cfg_k)
        except RankDeficiencyError:
            warnings.warn(f"component {k} weights concentrate on a rank-deficient "
                          "subset; scatter frozen for this sweep")
            new_comps.append(comp)
            continue
        refit = EgdParams(report.sigma_hat, comp.shape_a, comp.scale_b)
        refit_radii = squared_radius(refit.scatter, data.samples)
        if (wk @ _log_density_from_radii(refit, refit_radii)
                < wk @ _log_density_from_radii(comp, radii[k])):
            new_comps.append(comp)
            continue
        new_comps.append(refit)
        radii[k] = refit_radii
    return MixtureModel(new_comps, new_probs / new_probs.sum()), radii


def m_step_shape(data: Dataset, resp: Responsibilities,
                 model: MixtureModel) -> MixtureModel:
    """Refit every component's gamma shape and scale from squared radii."""
    if resp.matrix.shape != (model.n_components, data.n):
        raise ValueError("responsibilities shape does not match model and data")
    return _m_step_shape(data, resp, model, _squared_radii(model, data))


def _m_step_shape(data, resp, model, radii):
    t = resp.matrix
    new_comps = []
    new_probs = np.empty(model.n_components)
    for k, comp in enumerate(model.components):
        wk = data.weights * t[k]
        swk = float(wk.sum())
        new_probs[k] = swk / data.total_weight
        if swk <= 0.0:
            warnings.warn(f"component {k} is empty; radial parameters frozen")
            new_comps.append(comp)
            continue
        try:
            fit = fit_gamma_weighted(WeightedSample(radii[k], wk))
        except ValueError:
            warnings.warn(f"component {k} has degenerate radii; radial "
                          "parameters frozen for this sweep")
            new_comps.append(comp)
            continue
        new_comps.append(EgdParams(comp.scatter, fit.shape_a, fit.scale_b))
    return MixtureModel(new_comps, new_probs / new_probs.sum())


def _prune_empty(model, radii, resp, data):
    eff = resp.matrix @ data.weights
    if float(eff.min()) > 0.0 or model.n_components == 1:
        return model, radii, False
    keep = eff > 0.0
    warnings.warn(f"removing {int(np.count_nonzero(~keep))} empty component(s)")
    probs = model.mix_probs[keep]
    model = MixtureModel([c for c, k in zip(model.components, keep) if k],
                         probs / probs.sum())
    return model, radii[keep], True


def _respond(model, radii, data):
    while True:
        resp, total = _e_step(model, data, radii)
        model, radii, pruned = _prune_empty(model, radii, resp, data)
        if not pruned:
            return model, radii, resp, total


def _second_moment(x, w):
    total = float(w.sum())
    return (x * w[:, None]).T @ x / total


def _labels_to_model(data, labels, k):
    x = data.samples
    w = data.weights
    q = data.dim
    pooled = _second_moment(x, w)
    comps = []
    probs = np.empty(k)
    for j in range(k):
        mask = labels == j
        wj = w * mask
        swj = float(wj.sum())
        probs[j] = swj / data.total_weight
        mat = _second_moment(x, wj) if swj > 0.0 else pooled
        try:
            sigma = ScatterMatrix(mat)
        except ValueError:
            sigma = ScatterMatrix(pooled)
        comps.append(EgdParams(sigma, 0.5 * q, 2.0))
    probs = np.maximum(probs, 1.0 / (k * max(data.n, 1)))
    return MixtureModel(comps, probs / probs.sum())


def _kmeans_radii_labels(radii, k, max_iter=100):
    # one-dimensional Lloyd iteration seeded at interior quantiles
    centers = np.quantile(radii, (np.arange(k) + 0.5) / k)
    labels = np.zeros(radii.shape[0], dtype=int)
    for _ in range(max_iter):
        dist = np.abs(radii[:, None] - centers[None, :])
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            mask = new_labels == j
            if mask.any():
                centers[j] = radii[mask].mean()
            else:
                centers[j] = radii[np.argmax(dist.min(axis=1))]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def _init_model(data, config, rng):
    k = config.n_components
    if config.init == "user-model":
        model = config.user_model
        if model.dim != data.dim:
            raise ValueError("user model dimension does not match data")
        return model
    if config.init == "kmeans-on-radii":
        labels = _kmeans_radii_labels(np.linalg.norm(data.samples, axis=1), k)
    else:
        labels = rng.integers(0, k, size=data.n)
        # keep every component populated enough to be fittable
        for _ in range(20):
            counts = np.bincount(labels, minlength=k)
            if counts.min() > data.dim:
                break
            labels = rng.integers(0, k, size=data.n)
        else:
            labels = np.arange(data.n) % k
    return _labels_to_model(data, labels, k)


def fit_mixture(data: Dataset, config: EmConfig) -> EmReport:
    """Two-stage EM for an elliptical gamma mixture.

    Each round's stage 1 is one E-step followed by one scatter sweep (see
    :func:`m_step_scatter`); its stage 2 is up to 20 sweeps that alternate
    an E-step with radial refits and stop early once their own improvement
    stalls.  ``loglik_trace`` records the average log-likelihood at the
    start of every sweep plus a final evaluation of the returned model.
    Components that lose all responsibility are removed with a warning.

    The squared radii are computed once for the initial model and once for
    each refitted scatter, then shared by every E-step and radial refit until
    the next scatter refit.  They depend on the scatters alone, so the
    results are those of calling :func:`e_step`, :func:`m_step_scatter` and
    :func:`m_step_shape`, which recompute them, in the same schedule.
    """
    k = config.n_components
    if data.n < k * data.dim:
        raise ValueError("need at least n_components * dim samples")
    rng = np.random.default_rng(config.seed)
    model = _init_model(data, config, rng)
    radii = _squared_radii(model, data)
    n_eff = data.total_weight
    trace = []
    converged = False
    prev_round = None
    rounds = 0
    for _ in range(config.outer_rounds):
        rounds += 1
        model, radii, resp, total = _respond(model, radii, data)
        trace.append(total / n_eff)
        model, radii = _m_step_scatter(data, resp, model, radii)
        prev_stage = None
        for _ in range(_STAGE2_SWEEPS):
            model, radii, resp, total = _respond(model, radii, data)
            avg = total / n_eff
            trace.append(avg)
            model = _m_step_shape(data, resp, model, radii)
            if prev_stage is not None and abs(avg - prev_stage) < config.tol:
                break
            prev_stage = avg
        if prev_round is not None and abs(trace[-1] - prev_round) < config.tol:
            converged = True
            break
        prev_round = trace[-1]
    model, _, resp, total = _respond(model, radii, data)
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
