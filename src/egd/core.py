"""Elliptical gamma distributions: parameter types, densities, exact sampling.

The family is parameterized by an SPD scatter matrix ``Sigma``, a shape
``a > 0`` and a scale ``b > 0``.  The squared Mahalanobis radius
``t = x' Sigma^{-1} x`` of a draw follows a gamma distribution with shape
``a`` and scale ``b``, while the direction is uniform on the ellipsoid
induced by ``Sigma``.  With ``a = q/2`` and ``b = 2`` the family reduces to
the centered Gaussian with covariance ``Sigma``; more generally the second
moment is ``(a b / q) Sigma``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import (chol_logdet, chol_lower, quad_forms, symmetrize,
                      tril_inv)

__all__ = [
    "ScatterMatrix",
    "EgdParams",
    "Dataset",
    "MixtureModel",
    "log_density",
    "gamma_log_density",
    "squared_radius",
    "log_likelihood",
    "sample",
    "gsm_density_mc",
]

_SYMMETRY_RTOL = 1e-12


class ScatterMatrix:
    """Symmetric positive definite scatter parameter.

    Construction verifies symmetry to 1e-12 relative Frobenius error,
    symmetrizes exactly, and rejects any matrix whose Cholesky factorization
    fails (i.e. whose eigenvalues are not all strictly positive).  It holds
    ``L``, its Cholesky factor and the only square root the package uses,
    ``L^{-1}`` and ``log|Sigma|``, computed once, here; no caller inverts L.
    """

    __slots__ = ("_entries", "_chol", "_chol_inv", "_log_det")

    def __init__(self, entries):
        mat = np.asarray(entries, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise ValueError("scatter matrix must be square")
        if not np.all(np.isfinite(mat)):
            raise ValueError("scatter matrix entries must be finite")
        # compared at unit scale, so that norms of tiny entries do not
        # underflow to zero
        peak = float(np.abs(mat).max())
        unit = mat / peak if peak > 0.0 else mat
        scale = float(np.linalg.norm(unit))
        if scale == 0.0 or float(np.linalg.norm(unit - unit.T)) > _SYMMETRY_RTOL * scale:
            raise ValueError("scatter matrix must be symmetric")
        self._factor(np.ascontiguousarray(symmetrize(mat)))

    def _factor(self, sym: np.ndarray) -> "ScatterMatrix":
        # the one place a scatter is factored, from an exactly symmetric array
        chol = chol_lower(sym)
        sym.setflags(write=False)
        self._entries, self._chol, self._chol_inv, self._log_det = (
            sym, chol, tril_inv(chol), chol_logdet(chol))
        return self

    @classmethod
    def _factored(cls, sym: np.ndarray) -> "ScatterMatrix":
        # B or a fit's iterate, unchecked
        return object.__new__(cls)._factor(sym)

    def _scaled(self, s: float) -> "ScatterMatrix":
        # s Sigma: sqrt(s) L, L^{-1} / sqrt(s) and q log s + log|Sigma|
        out, root = object.__new__(ScatterMatrix), math.sqrt(s)
        out._entries = s * self._entries
        out._entries.setflags(write=False)
        out._chol, out._chol_inv = root * self._chol, self._chol_inv / root
        out._log_det = self.dim * math.log(s) + self._log_det
        return out

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def cholesky(self) -> np.ndarray:
        """Lower Cholesky factor."""
        return self._chol

    @property
    def log_det(self) -> float:
        return self._log_det

    @classmethod
    def identity(cls, dim: int) -> "ScatterMatrix":
        return cls(np.eye(dim))

    def __repr__(self) -> str:
        return f"ScatterMatrix(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class EgdParams:
    """Parameters of a single elliptical gamma distribution."""

    scatter: ScatterMatrix
    shape_a: float
    scale_b: float

    def __post_init__(self):
        if not (math.isfinite(self.shape_a) and self.shape_a > 0.0):
            raise ValueError("shape_a must be positive")
        if not (math.isfinite(self.scale_b) and self.scale_b > 0.0):
            raise ValueError("scale_b must be positive")

    @property
    def dim(self) -> int:
        return self.scatter.dim


def _checked_weights(weights, n: int) -> np.ndarray:
    # a view, so that freezing it leaves the caller's array writable
    w = np.ascontiguousarray(np.asarray(weights, dtype=float)).view()
    if w.shape != (n,):
        raise ValueError("weights must be a vector with one entry per sample")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and nonnegative")
    if float(w.sum()) <= 0.0:
        raise ValueError("weights must have positive total")
    return w


class Dataset:
    """Immutable bundle of samples (rows) and optional nonnegative weights.

    Rejects nonfinite entries, exact zero rows (the density is singular or
    zero at the origin for ``a != q/2``), negative weights, and weight
    vectors summing to zero.  Holds read-only views of the caller's arrays
    when they are C-contiguous float64 (copies otherwise), so the caller's
    arrays stay writable, and writing to them changes the dataset.
    """

    __slots__ = ("_samples", "_weights")

    def __init__(self, samples, weights=None):
        x = np.ascontiguousarray(np.asarray(samples, dtype=float)).view()
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError("samples must be a nonempty 2-D array")
        if not np.all(np.isfinite(x)):
            raise ValueError("samples must be finite")
        zero_rows = np.flatnonzero(~x.any(axis=1))
        if zero_rows.size:
            raise ValueError(f"sample {int(zero_rows[0])} is the exact zero vector")
        if weights is None:
            w = np.ones(x.shape[0])
        else:
            w = _checked_weights(weights, x.shape[0])
        x.setflags(write=False)
        w.setflags(write=False)
        self._samples = x
        self._weights = w

    @property
    def samples(self) -> np.ndarray:
        return self._samples

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def n(self) -> int:
        return self._samples.shape[0]

    @property
    def dim(self) -> int:
        return self._samples.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self._weights.sum())

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, dim={self.dim})"


class MixtureModel:
    """Finite mixture of elliptical gamma components; ``mix_probs`` is a
    read-only view of the caller's array, as in :class:`Dataset`."""

    __slots__ = ("_components", "_mix_probs")

    def __init__(self, components, mix_probs):
        comps = tuple(components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        dim = comps[0].dim
        if any(c.dim != dim for c in comps):
            raise ValueError("all components must share one dimension")
        probs = np.ascontiguousarray(np.asarray(mix_probs, dtype=float)).view()
        if probs.shape != (len(comps),):
            raise ValueError("one mixing probability per component required")
        if np.any(probs < 0.0) or not np.all(np.isfinite(probs)):
            raise ValueError("mixing probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError("mixing probabilities must sum to one")
        probs.setflags(write=False)
        self._components = comps
        self._mix_probs = probs

    @property
    def components(self) -> tuple:
        return self._components

    @property
    def mix_probs(self) -> np.ndarray:
        return self._mix_probs

    @property
    def n_components(self) -> int:
        return len(self._components)

    @property
    def dim(self) -> int:
        return self._components[0].dim

    def __repr__(self) -> str:
        return f"MixtureModel(n_components={self.n_components}, dim={self.dim})"


def _lgamma(x: float) -> float:
    """``log Gamma(x)`` for ``x > 0``; inf where ``math.lgamma`` overflows."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _log_norm_const(q: int, a: float, b: float) -> float:
    """Log normalizing constant excluding the |Sigma| term."""
    return (_lgamma(0.5 * q) - 0.5 * q * math.log(math.pi)
            - _lgamma(a) - a * math.log(b))


def squared_radius(scatter: ScatterMatrix, x) -> float | np.ndarray:
    """Quadratic form ``x' Sigma^{-1} x`` via the inverse Cholesky factor.

    Accepts a single vector of length ``dim`` (returns a float) or an
    ``(n, dim)`` array (returns a length-``n`` array).  The rows are
    multiplied by the inverse ``L^{-1}`` of the factor ``Sigma = L L'`` that
    the scatter holds; nothing is inverted here, and an overflow gives inf.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape != (scatter.dim,):
            raise ValueError("x has wrong dimension")
        return float(quad_forms(scatter._chol_inv, x[None, :])[0])
    if x.ndim != 2 or x.shape[1] != scatter.dim:
        raise ValueError("x must be a vector or an (n, dim) array")
    return quad_forms(scatter._chol_inv, x)


def _log(t):
    # log 0 = -inf without a warning: a zero mixing probability, or a zero
    # radius, which the radial kernel rejects where it matters
    with np.errstate(divide="ignore"):
        return np.log(t)


def _radial_log_density(t, log_t, shift: float, const: float, scale: float,
                        out=None):
    """EGD log density ``(shift log t + const) - t / scale`` of squared radii
    ``t`` with logarithms ``log_t`` (``shift = a - q/2``), into ``out`` if
    given.  A Gaussian row (``shift = 0``) is ``const - t / scale``; any
    other rejects a zero radius, where the density is singular or zero."""
    if shift == 0.0:
        return np.subtract(const, t / scale, out=out)
    if np.any(t == 0.0):
        prefix = "" if np.ndim(t) == 0 else f"sample {int(np.argmin(t))}: "
        raise ValueError(prefix + "density singular/zero at origin")
    # a radius that overflowed to inf would make inf - inf: capping log t
    # at 710 > log(DBL_MAX) makes that row -inf and leaves the others as
    # they are
    out = np.minimum(log_t, 710.0, out=out)
    out *= shift
    out += const
    out -= t / scale
    return out


def log_density(params: EgdParams, x) -> float | np.ndarray:
    """Log density of the elliptical gamma distribution.

    Parameters
    ----------
    params : EgdParams
    x : array_like
        Single vector of length ``dim`` or an ``(n, dim)`` array.

    Returns
    -------
    float or ndarray

    Notes
    -----
    The value is the full normalized log density: the term
    ``(a - q/2) log(x' Sigma^{-1} x)`` vanishes identically for the
    Gaussian boundary ``a = q/2``, in which case ``x = 0`` is allowed.
    For ``a != q/2`` a zero vector raises, because the density is either
    singular or zero at the origin.
    """
    t = squared_radius(params.scatter, x)
    q, a, b = params.dim, params.shape_a, params.scale_b
    const = _log_norm_const(q, a, b) - 0.5 * params.scatter.log_det
    out = _radial_log_density(t, _log(t), a - 0.5 * q, const, b)
    return float(out) if np.ndim(t) == 0 else out


def gamma_log_density(v, a: float, b: float) -> float | np.ndarray:
    """Log density of the gamma distribution with shape ``a`` and scale ``b``."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("shape and scale must be positive")
    v_arr = np.asarray(v, dtype=float)
    scalar = v_arr.ndim == 0
    v_arr = np.atleast_1d(v_arr)
    if np.any(v_arr <= 0.0) or not np.all(np.isfinite(v_arr)):
        raise ValueError("gamma density requires positive finite values")
    out = ((a - 1.0) * np.log(v_arr) - _lgamma(a)
           - a * math.log(b) - v_arr / b)
    return float(out[0]) if scalar else out


def log_likelihood(params: EgdParams, data: Dataset) -> float:
    """Weighted total log-likelihood, all normalization constants included."""
    if data.dim != params.dim:
        raise ValueError("data dimension does not match parameters")
    return float(data.weights @ log_density(params, data.samples))


def sample(params: EgdParams, n: int, seed: int) -> Dataset:
    """Draw ``n`` exact samples.

    A draw is ``sqrt(v) * L u`` where ``v`` is gamma with shape ``a`` and
    scale ``b``, ``u`` is uniform on the unit sphere (a normalized standard
    normal vector) and ``Sigma = L L'`` the cached Cholesky factorization;
    as ``Sigma^{-1/2} L`` is orthogonal, this is the law of
    ``sqrt(v) * Sigma^{1/2} u``.  Directions are drawn before radii, so the
    stream layout is fixed; the same seed always yields bit-identical output
    (within a version: earlier versions drew ``Sigma^{1/2} u``).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    q = params.dim
    rng = np.random.default_rng(seed)
    # one n x q array is normalized and scaled in place
    u = rng.standard_normal((n, q))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii_sq = rng.gamma(shape=params.shape_a, scale=params.scale_b, size=n)
    u *= np.sqrt(radii_sq)[:, None]
    return Dataset(u @ params.scatter.cholesky.T)


def gsm_density_mc(scatter: ScatterMatrix, a: float, x, num_mc: int,
                   seed: int) -> float:
    """Monte Carlo density via the Gaussian scale-mixture form (scale 2 only).

    For ``0 < a < q/2`` and ``b = 2`` the density is a continuous mixture of
    centered Gaussians ``N(x; 0, u Sigma)`` with ``u`` beta-distributed with
    parameters ``(q/2 - a, a)``.  Averages ``num_mc`` mixture draws; the
    estimate converges to ``exp(log_density(...))`` with ``b = 2``.
    """
    q = scatter.dim
    if not 0.0 < a < 0.5 * q:
        raise ValueError("scale-mixture form requires 0 < a < dim/2")
    if num_mc < 1:
        raise ValueError("num_mc must be at least 1")
    t = squared_radius(scatter, np.asarray(x, dtype=float))
    rng = np.random.default_rng(seed)
    u = rng.beta(0.5 * q - a, a, size=num_mc)
    u = np.maximum(u, np.finfo(float).tiny)
    log_terms = (-0.5 * q * np.log(2.0 * math.pi * u)
                 - 0.5 * scatter.log_det - t / (2.0 * u))
    # log-sum-exp shifted by the largest term; no term above -inf gives 0
    shift = float(np.max(log_terms))
    if shift == -math.inf:
        return 0.0
    total = float(np.sum(np.exp(log_terms - shift)))
    return float(np.exp(shift + math.log(total) - math.log(num_mc)))
