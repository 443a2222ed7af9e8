"""Text substrate: documents, tokenization, corpus I/O."""

from .documents import Corpus, Document, partition_documents
from .formats import (
    parse_medline,
    parse_trec_sgml,
    read_medline,
    read_source,
    read_trec_sgml,
    write_medline,
    write_trec_sgml,
)
from .io import read_corpus, write_corpus
from .stopwords import DEFAULT_STOPWORDS
from .tokenizer import Tokenizer, TokenizerConfig

__all__ = [
    "Corpus",
    "DEFAULT_STOPWORDS",
    "Document",
    "Tokenizer",
    "TokenizerConfig",
    "parse_medline",
    "parse_trec_sgml",
    "read_medline",
    "read_source",
    "read_trec_sgml",
    "write_medline",
    "write_trec_sgml",
    "partition_documents",
    "read_corpus",
    "write_corpus",
]
