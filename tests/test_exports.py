"""The package's public names: each module's ``__all__``, collected once."""

from __future__ import annotations

import didmiss

PUBLIC_NAMES = [
    "AttDecomposition",
    "AuxModel",
    "BootstrapConfig",
    "BoundResult",
    "BoundsBootstrap",
    "Cell",
    "CellScores",
    "ClipEvent",
    "ColumnMapping",
    "DgpSpec",
    "DidMissError",
    "EPS_DENOM",
    "ESTIMATOR_HANDLES",
    "Estimate",
    "EstimatorError",
    "INCONSISTENT_FLAG",
    "InputError",
    "Interval",
    "IvDiagnostics",
    "OraclePanel",
    "OracleRecord",
    "OracleTruth",
    "PRESET_KINDS",
    "PanelDataset",
    "PrincipalScoreTable",
    "R1Model",
    "RateTable",
    "SCORE_STRATA",
    "STRATUM_LABELS",
    "STRATUM_PAIRS",
    "StrataProportions",
    "TrendMixtureReport",
    "__version__",
    "att_ar_bounds",
    "att_iv",
    "att_iv_multi",
    "att_principal_ignorability",
    "bootstrap_bounds",
    "bootstrap_ci",
    "check_trend_mixture",
    "compute_rates",
    "decompose_att",
    "did_complete_case",
    "load_oracle",
    "load_panel",
    "make_preset",
    "naive_did_all",
    "principal_scores",
    "save_oracle",
    "save_panel",
    "simulate_panel",
    "strata_proportions_bounds",
    "strata_proportions_monotone",
    "strip_missingness",
    "trimmed_mean",
]


def test_the_package_exports_exactly_its_public_names_once():
    assert sorted(didmiss.__all__) == PUBLIC_NAMES
    assert len(didmiss.__all__) == len(set(didmiss.__all__))
    namespace: dict[str, object] = {}
    exec("from didmiss import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(didmiss, name), name
