"""Query processing: query types, DIPRS and filtered DIPRS."""

from .dipr import DIPRSearchStats, FrontierScratch, GroupDIPRSearchStats, diprs_search_group
from .filtered import filtered_diprs_search_group, predicate_mask
from .types import (
    DIPRQuery,
    FilterPredicate,
    IndexKind,
    QueryKind,
    TopKQuery,
    alpha_from_beta,
    beta_from_alpha,
)

__all__ = [
    "DIPRQuery",
    "DIPRSearchStats",
    "FilterPredicate",
    "FrontierScratch",
    "GroupDIPRSearchStats",
    "IndexKind",
    "QueryKind",
    "TopKQuery",
    "alpha_from_beta",
    "beta_from_alpha",
    "diprs_search_group",
    "filtered_diprs_search_group",
    "predicate_mask",
]
