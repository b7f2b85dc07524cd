"""Weighted maximum likelihood for gamma shape and scale parameters, and
the digamma and trigamma functions its shape solver needs, in numpy and
the standard library alone."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _checked_weights

__all__ = ["WeightedSample", "GammaFit", "digamma", "trigamma",
           "fit_gamma_weighted"]

# Bernoulli-number coefficients of the asymptotic series, valid to double
# precision for x >= 10: B_2n / (2n) for digamma (Abramowitz & Stegun
# 6.3.18) and B_2n for trigamma (6.4.12), n = 1..7
_DIGAMMA_SERIES = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12)
_TRIGAMMA_SERIES = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66,
                    -691 / 2730, 7 / 6)

# a log-moment gap within this many rounding units of its larger term is
# noise: fewer units let small mixtures' shapes run off on it, and more
# would refuse a gap of 1e-13 when |log(vbar)| is 7
_GAP_NOISE = 64 * 2.0 ** -52


def _series(coefficients, x: float) -> float:
    """sum_n c_n x^(-2n) for n = 1..len(coefficients), by Horner's rule."""
    r = 1.0 / (x * x)
    total = 0.0
    for c in reversed(coefficients):
        total = r * (c + total)
    return total


def _digamma(x: float) -> float:
    """Digamma of a float x > 0: psi(x) = psi(x + 1) - 1/x up to x >= 10,
    then the asymptotic series."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    return math.log(x) - (0.5 / x + _series(_DIGAMMA_SERIES, x)) - shift


def _trigamma(x: float) -> float:
    """Trigamma of a float x > 0: psi'(x) = psi'(x + 1) + 1/x^2 up to
    x >= 10, then the asymptotic series."""
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    return (1.0 + 0.5 / x + _series(_TRIGAMMA_SERIES, x)) / x + shift


def digamma(x):
    """Digamma function on the positive half line."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("digamma requires x > 0")
    out = np.vectorize(_digamma, otypes=[float])(x_arr)
    return float(out) if np.ndim(x) == 0 else out


def trigamma(x):
    """Trigamma function on the positive half line."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0):
        raise ValueError("trigamma requires x > 0")
    out = np.vectorize(_trigamma, otypes=[float])(x_arr)
    return float(out) if np.ndim(x) == 0 else out


class WeightedSample:
    """Positive values with nonnegative weights of positive total."""

    __slots__ = ("_values", "_weights")

    def __init__(self, values, weights=None):
        v = np.ascontiguousarray(np.asarray(values, dtype=float))
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty vector")
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            raise ValueError("values must be positive and finite")
        w = (np.ones_like(v) if weights is None
             else _checked_weights(weights, v.size))
        v.setflags(write=False)
        w.setflags(write=False)
        self._values = v
        self._weights = w

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def weights(self) -> np.ndarray:
        return self._weights


@dataclass(frozen=True)
class GammaFit:
    shape_a: float
    scale_b: float
    iterations: int
    converged: bool


def fit_gamma_weighted(data: WeightedSample, tol: float = 1e-10,
                       max_iter: int = 100) -> GammaFit:
    """Weighted ML estimate of gamma shape and scale.

    The shape solves ``log(a) - digamma(a) = gap``, where ``gap =
    log(vbar) - mlog`` for the weighted mean ``vbar`` and mean log ``mlog``
    of the values.  As ``1/(2a) < log(a) - digamma(a) < 1/a`` (Alzer 1997),
    the root lies in ``[1/(2 gap), 1/gap]``.  From ``a = 1/(2 gap)``, each
    step narrows that bracket by the sign of the score and takes the
    generalized Newton update on the inverse shape,

        1/a_new = 1/a + (log(a) - digamma(a) - gap)
                  / (a^2 (1/a - trigamma(a))),

    if it stays in the bracket and is at most half the previous step, and
    the bracket's midpoint if not, until the relative change is below
    ``tol`` or ``max_iter`` steps are spent.  ``b = vbar / a`` exactly.  A
    gap within 64 rounding units of ``max(1, |log(vbar)|, |mlog|)`` counts
    as zero: the shape is unbounded and the fit raises ``ValueError``.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    v = data.values
    w = data.weights
    total = float(w.sum())
    return _fit_gamma_moments(float(w @ v) / total,
                              float(w @ np.log(v)) / total, tol, max_iter)


def _fit_gamma_moments(vbar: float, mlog: float, tol: float = 1e-10,
                       max_iter: int = 100) -> GammaFit:
    """:func:`fit_gamma_weighted` from the weighted mean ``vbar`` and the
    weighted mean log ``mlog`` of the values; raises ``ValueError`` when
    they are not finite or the shape is unbounded."""
    if not (math.isfinite(vbar) and math.isfinite(mlog) and vbar > 0.0):
        raise ValueError("moments must be finite with a positive mean")
    log_vbar = math.log(vbar)
    gap = log_vbar - mlog
    # gap > 0 by Jensen unless every weighted value is identical; within
    # the rounding of its two terms its size is noise
    if gap <= _GAP_NOISE * max(1.0, abs(log_vbar), abs(mlog)):
        raise ValueError("degenerate sample: shape unbounded")
    # 1/(2a) < log(a) - digamma(a) < 1/a (Alzer 1997) brackets the root
    a = lo = 0.5 / gap
    hi = 1.0 / gap
    step = math.inf
    for iterations in range(1, max_iter + 1):
        # a > 0 throughout, so the validating wrappers are skipped
        score = math.log(a) - _digamma(a) - gap
        if score > 0.0:
            lo = a
        else:
            hi = a
        try:
            denom = a * a * (1.0 / a - _trigamma(a))
            a_new = 1.0 / (1.0 / a + score / denom)
        except ZeroDivisionError:
            a_new = 0.0
        # halving the step keeps Newton from creeping along a score that
        # rounding has flattened; a step that is not a number bisects too
        if not (lo <= a_new <= hi and abs(a_new - a) <= 0.5 * step):
            a_new = 0.5 * (lo + hi)
        step = abs(a_new - a)
        if step <= tol * a:
            return GammaFit(shape_a=a_new, scale_b=vbar / a_new,
                            iterations=iterations, converged=True)
        a = a_new
    return GammaFit(shape_a=a, scale_b=vbar / a, iterations=max_iter,
                    converged=False)
