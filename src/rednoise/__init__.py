"""rednoise: red (and other colored) noise differentials for stochastic models.

Exact samplers, closed-form spectra and autocovariances, SDE integration with
colored forcing, spectral estimation, and finite-horizon high-frequency
analysis — all driven by seeded, reproducible Gaussian streams.
"""

from .models import (Ar1Driven, DiffU, Fgn, Mixed, NoiseModel, RedOuDt, White,
                     fgn_increment_cov, finite_psd_theoretical, increments,
                     ou_autocov, ou_exact_sample, ou_increment_cov,
                     parse_model, psd_kernel_auto, psd_kernel_cross,
                     theoretical_psd)
from .series import TimeSeries, load_values, save_series, write_csv
from .simulate import (ContinuousSystemParams, DiscreteSystemParams,
                       continuous_from_discrete, simulate_discrete,
                       simulate_exact, stationary_autocorr)
from .spectral import (AcfEstimate, AvgSpectrum, band_average, empirical_acf,
                       loglog_slope, periodogram)
from .streams import GaussianStream
from .figures import (AcfComparison, PlateauReport, RestoringResult,
                      SpectraResult, SpectrumComparison, plateau_experiment,
                      restoring_run, spectra_run)

__version__ = "0.1.0"

__all__ = [
    "Ar1Driven", "DiffU", "Fgn", "Mixed", "NoiseModel", "RedOuDt", "White",
    "fgn_increment_cov", "increments", "ou_autocov",
    "ou_exact_sample", "ou_increment_cov", "parse_model", "theoretical_psd",
    "finite_psd_theoretical", "psd_kernel_auto", "psd_kernel_cross",
    "TimeSeries", "load_values", "save_series", "write_csv",
    "ContinuousSystemParams", "DiscreteSystemParams",
    "continuous_from_discrete", "simulate_discrete", "simulate_exact",
    "stationary_autocorr",
    "AcfEstimate", "AvgSpectrum", "band_average", "empirical_acf",
    "loglog_slope", "periodogram",
    "GaussianStream",
    "AcfComparison", "RestoringResult", "SpectraResult", "SpectrumComparison",
    "restoring_run", "spectra_run", "PlateauReport", "plateau_experiment",
    "__version__",
]
