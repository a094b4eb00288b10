"""Multiscaling proxies vs average cross-correlation of stock returns.

Pipeline: price-panel cleaning -> demeaned log-returns -> structure-function
scaling proxies (A_hat, B_hat) and significance-filtered average
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
from .panel import (CapitalizationTable, PricePanel, RawPriceSeries,
                    ReturnPanel, compute_returns, load_capitalizations,
                    load_prices, median_capitalization, preprocess)
from .pipeline import __version__, compare_reports, run
from .scaling import (MomentCurve, ScalingResult, aggregate_returns,
                      estimate_scaling, estimate_scaling_panel, estimate_zeta,
                      fit_proxies, structure_function)
from .surrogates import SurrogateSpec, marginal_gaussianize, synchronous_shuffle
from .synth import MarketRecipe, generate, stylized_fact_experiment
