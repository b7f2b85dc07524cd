"""Maximum-likelihood tools for elliptical gamma distributions.

The density family pairs an SPD scatter matrix with a gamma law on the
squared Mahalanobis radius.  This package provides exact sampling, scatter
estimation by globally convergent fixed-point iterations (with a classic
reweighting baseline for comparison), gamma shape/scale fitting, EM for
mixtures, and a small CLI around all of it.
"""

from .core import (Dataset, EgdParams, MixtureModel, ScatterMatrix,
                   gamma_log_density, gsm_density_mc, log_density,
                   log_likelihood, sample, squared_radius)
from .gammafit import (GammaFit, WeightedSample, digamma, fit_gamma_weighted,
                       trigamma)
from .mixture import (EmConfig, EmReport, Responsibilities, e_step,
                      fit_mixture, m_step_scatter, m_step_shape, mi_rate,
                      mixture_log_likelihood, preprocess_patches,
                      sample_mixture)
from .scatter import (FitReport, FixedPointConfig, RankDeficiencyError,
                      compute_constants, fit_concave, fit_kent_tyler,
                      fit_nonconcave, fit_scatter, select_alpha,
                      stationarity_residual)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EgdParams",
    "MixtureModel",
    "ScatterMatrix",
    "gamma_log_density",
    "gsm_density_mc",
    "log_density",
    "log_likelihood",
    "sample",
    "squared_radius",
    "GammaFit",
    "WeightedSample",
    "digamma",
    "fit_gamma_weighted",
    "trigamma",
    "EmConfig",
    "EmReport",
    "Responsibilities",
    "e_step",
    "fit_mixture",
    "m_step_scatter",
    "m_step_shape",
    "mi_rate",
    "mixture_log_likelihood",
    "preprocess_patches",
    "sample_mixture",
    "FitReport",
    "FixedPointConfig",
    "RankDeficiencyError",
    "compute_constants",
    "fit_concave",
    "fit_kent_tyler",
    "fit_nonconcave",
    "fit_scatter",
    "select_alpha",
    "stationarity_residual",
    "__version__",
]
