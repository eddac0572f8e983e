"""Two-period difference-in-differences with missing outcomes.

Panel units are observed in two periods with treatment assigned between
them; either period's outcome may be missing.  The package provides the
complete-case estimator and three ways past its bias — instrument-style
corrections using auxiliary response indicators, fractional trimming bounds
for the ATT among always-respondents, and stratum-weighted estimation under
within-cell response ignorability — plus empirical response-rate tables, a
latent-strata simulator with an exact oracle, and the ``did-miss`` command
line tool.
"""

from .bounds import (
    INCONSISTENT_FLAG,
    BoundResult,
    BoundsBootstrap,
    StrataProportions,
    att_ar_bounds,
    bootstrap_bounds,
    strata_proportions_bounds,
    strata_proportions_monotone,
    trimmed_mean,
)
from .common import EPS_DENOM, ClipEvent, Interval
from .errors import DidMissError, EstimatorError, InputError
from .estimators import (
    ESTIMATOR_HANDLES,
    BootstrapConfig,
    Estimate,
    bootstrap_ci,
    did_complete_case,
    naive_did_all,
)
from .iv import IvDiagnostics, att_iv, att_iv_multi
from .panel import (
    ColumnMapping,
    PanelDataset,
    RateTable,
    compute_rates,
    load_panel,
    save_panel,
)
from .principal import (
    SCORE_STRATA,
    CellScores,
    PrincipalScoreTable,
    att_principal_ignorability,
    principal_scores,
)
from .simulate import (
    PRESET_KINDS,
    STRATUM_LABELS,
    STRATUM_PAIRS,
    AttDecomposition,
    AuxModel,
    Cell,
    DgpSpec,
    OraclePanel,
    OracleRecord,
    OracleTruth,
    R1Model,
    TrendMixtureReport,
    check_trend_mixture,
    decompose_att,
    load_oracle,
    make_preset,
    save_oracle,
    simulate_panel,
    strip_missingness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DidMissError",
    "InputError",
    "EstimatorError",
    # shared utilities
    "Interval",
    "ClipEvent",
    "EPS_DENOM",
    # panel data
    "PanelDataset",
    "ColumnMapping",
    "RateTable",
    "load_panel",
    "save_panel",
    "compute_rates",
    # point estimators and bootstrap
    "Estimate",
    "BootstrapConfig",
    "ESTIMATOR_HANDLES",
    "did_complete_case",
    "naive_did_all",
    "bootstrap_ci",
    "IvDiagnostics",
    "att_iv",
    "att_iv_multi",
    # strata proportions and bounds
    "StrataProportions",
    "BoundResult",
    "BoundsBootstrap",
    "INCONSISTENT_FLAG",
    "strata_proportions_monotone",
    "strata_proportions_bounds",
    "trimmed_mean",
    "att_ar_bounds",
    "bootstrap_bounds",
    # principal scores
    "SCORE_STRATA",
    "CellScores",
    "PrincipalScoreTable",
    "principal_scores",
    "att_principal_ignorability",
    # simulation and oracle
    "STRATUM_LABELS",
    "STRATUM_PAIRS",
    "PRESET_KINDS",
    "R1Model",
    "AuxModel",
    "Cell",
    "DgpSpec",
    "OracleRecord",
    "OraclePanel",
    "OracleTruth",
    "simulate_panel",
    "make_preset",
    "strip_missingness",
    "decompose_att",
    "AttDecomposition",
    "check_trend_mixture",
    "TrendMixtureReport",
    "save_oracle",
    "load_oracle",
]
