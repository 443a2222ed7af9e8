"""Interactive analysis over engine results (paper's "next frontier")."""

from .session import AnalysisSession, ClusterSummary, DocumentHit

__all__ = [
    "AnalysisSession",
    "ClusterSummary",
    "DocumentHit",
]
