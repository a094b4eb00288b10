"""Multiscaling proxies vs average cross-correlation of stock returns.

Pipeline: price-panel cleaning -> demeaned log-returns -> structure-function
scaling proxies (A_hat, B_hat, estimated for the whole panel at once into one
ScalingResult of per-stock arrays) and significance-filtered average
cross-correlations (rho_bar) -> association statistics (Kendall tau, partial
correlation against log-capitalization), with synchronous-shuffle and
marginal-Gaussianization surrogates and synthetic ground-truth panels for
validation.
"""

from .association import (AssociationReport, build_report, kendall_tau,
                          partial_correlation, simple_ols)
from .config import PipelineConfig, build_config, parse_config_file
from .crosscorr import (CorrelationSummary, correlation_matrix, pearson,
                        pearson_pvalue)
from .errors import ConfigError, DataError, EstimationError, PipelineError
from .panel import (PricePanel, PriceRecords, RawPriceSeries, ReturnPanel,
                    compute_returns, load_capitalizations, load_prices,
                    log_capitalizations, median_capitalization, preprocess)
from .pipeline import __version__, compare_reports, run
from .scaling import ScalingResult, estimate_scaling_panel
from .surrogates import SurrogateSpec, marginal_gaussianize, synchronous_shuffle
from .synth import MarketRecipe, generate
