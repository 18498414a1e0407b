"""Coverage, caching, and cost analysis for multi-tier cellular networks.

Two engines evaluate the same scenario description: an analytic engine
(adaptive quadrature over a per-radio table of each tier's interference
Laplace exponent) and a snapshot Monte Carlo engine. Both reduce the
scenario to deliveries averaged over request popularity, and one metric
path turns those into a MetricReport with cache-hit (content-aware coverage),
backhaul-usage, area-spectral-efficiency, cost, and caching-efficiency
metrics.
"""

__version__ = "0.1.0"

from .channel import (LOS, NLOS, TierRadioParams, los_probability, path_loss,
                      sample_fading)
from .content import (MPC, RCS, ContentModel, TierCachePolicy,
                      cache_probability_vector)
from .quadrature import QuadratureError, integrate_adaptive
from .scenario import (AUTO, ConfigError, CostModel, IntegrationSettings,
                       ScenarioConfig, SimulationProtocol, TierConfig,
                       default_scenario, desk_scale_protocol, load_config,
                       save_config, serialize_config)
from .analytic import (CoverageTable, alzer_coefficient, build_coverage_table,
                       interference_laplace_exponent, tier_coverage_density)
from .metrics import (MetricReport, UndefinedEfficiencyError,
                      analytic_report, caching_efficiency, tier_rates)
from .montecarlo import run_simulation
from .experiments import (GridSearchResult, grid_search, run_experiment,
                          run_preset, set_parameter, write_csv)

__all__ = [
    "__version__",
    # channel
    "LOS", "NLOS", "TierRadioParams", "los_probability", "path_loss",
    "sample_fading",
    # content
    "MPC", "RCS", "ContentModel", "TierCachePolicy",
    "cache_probability_vector",
    # quadrature
    "QuadratureError", "integrate_adaptive",
    # scenario
    "AUTO", "ConfigError", "CostModel", "IntegrationSettings",
    "ScenarioConfig", "SimulationProtocol", "TierConfig", "default_scenario",
    "desk_scale_protocol", "load_config", "save_config", "serialize_config",
    # analytic
    "CoverageTable", "alzer_coefficient", "build_coverage_table",
    "interference_laplace_exponent", "tier_coverage_density",
    # metrics
    "MetricReport", "UndefinedEfficiencyError", "analytic_report",
    "caching_efficiency", "tier_rates",
    # monte carlo
    "run_simulation",
    # experiments
    "GridSearchResult", "grid_search", "run_experiment", "run_preset",
    "set_parameter", "write_csv",
]
