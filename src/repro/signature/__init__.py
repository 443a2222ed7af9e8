"""Knowledge signature generation: topicality, association, DocVecs."""

from .association import (
    association_matrix,
    count_cooccurrences,
    major_row_table,
)
from .docvec import SignatureBatch, compute_signatures
from .topicality import (
    RankedTerm,
    condensation_scores,
    local_candidates,
    rank_candidates,
    select_major_terms,
)

__all__ = [
    "RankedTerm",
    "SignatureBatch",
    "association_matrix",
    "compute_signatures",
    "condensation_scores",
    "count_cooccurrences",
    "local_candidates",
    "major_row_table",
    "rank_candidates",
    "select_major_terms",
]
