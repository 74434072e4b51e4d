"""Carbon embodied in trade and GVC participation from inter-country IO
tables, with the panel estimators and diagnostics used to analyze them."""

from .diagnostics import (
    CdReport,
    RankTable,
    correlation_matrix,
    descriptive_stats,
    pesaran_cd,
    rank_table,
)
from .estimators import (
    RegressionResult,
    RegressionSpec,
    anderson_hsiao,
    fgls_ar1,
    ols,
    with_time_effects,
)
from .mrio import (
    EmbodiedAccounts,
    EmissionIntensity,
    IcioTable,
    LeontiefModel,
    build_model,
    compute_accounts,
    leontief_inverse,
)
from .panel import PanelDataset, assemble_panel, derive_variable

__version__ = "0.1.0"

__all__ = [
    "CdReport",
    "EmbodiedAccounts",
    "EmissionIntensity",
    "IcioTable",
    "LeontiefModel",
    "PanelDataset",
    "RankTable",
    "RegressionResult",
    "RegressionSpec",
    "anderson_hsiao",
    "assemble_panel",
    "build_model",
    "compute_accounts",
    "correlation_matrix",
    "derive_variable",
    "descriptive_stats",
    "fgls_ar1",
    "leontief_inverse",
    "ols",
    "pesaran_cd",
    "rank_table",
    "with_time_effects",
]
