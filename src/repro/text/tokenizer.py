"""Tokenization: bytes -> terms.

Terms are separated by whitespace "or any delimiters specified during
configuration" (paper §3.2).  The tokenizer normalizes case, drops
terms outside a length band, and filters stopwords; an optional light
suffix-stripping stemmer folds trivial morphological variants.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .stopwords import DEFAULT_STOPWORDS


def _light_stem(term: str) -> str:
    """Cheap suffix stripping (not a full Porter stemmer).

    Keeps the reproduction dependency-free while folding the plural /
    gerund variants that would otherwise fragment term statistics.
    """
    for suffix in ("ingly", "edly", "ing", "ied", "ies", "ed", "es", "s"):
        if term.endswith(suffix) and len(term) - len(suffix) >= 3:
            stripped = term[: -len(suffix)]
            if suffix in ("ied", "ies"):
                stripped += "y"
            return stripped
    return term


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer behaviour knobs."""

    #: characters (beyond whitespace) treated as term delimiters
    delimiters: str = ".,;:!?\"'()[]{}<>/\\|`~@#$%^&*+=–—"
    lowercase: bool = True
    min_len: int = 2
    max_len: int = 32
    drop_numeric: bool = True
    stem: bool = False
    stopwords: frozenset[str] = field(
        default_factory=lambda: frozenset(DEFAULT_STOPWORDS)
    )


#: per-tokenizer bound on memoized raw tokens; a corpus vocabulary is
#: far smaller, so the cap only guards pathological unbounded streams
NORM_CACHE_MAX = 1 << 20


class Tokenizer:
    """Splits field text into normalized terms.

    Term normalization (length band, numeric filter, stopwords,
    stemming) is memoized per raw token: corpus token streams are
    highly redundant (Zipf), so nearly every token after the first few
    thousand documents is a cache hit that skips the regex match, the
    stopword probe, and the stemmer entirely.
    """

    def __init__(self, config: TokenizerConfig | None = None):
        self.config = config if config is not None else TokenizerConfig()
        escaped = re.escape(self.config.delimiters)
        #: reference delimiter pattern; :meth:`split` is its fast path
        self._split_re = re.compile(rf"[\s{escaped}]+")
        self._delim_to_space = str.maketrans(
            dict.fromkeys(self.config.delimiters, " ")
        )
        self._numeric_re = re.compile(r"^[\d\-]+$")
        #: raw (post-split, post-lowercase) token -> normalized term,
        #: or None when the token is dropped
        self._norm_cache: dict[str, str | None] = {}

    def _normalize_uncached(self, raw: str) -> str | None:
        """Reference normalization of one raw token (no memoization).

        Returns the normalized term, or ``None`` when the token is
        filtered out.  The memoized path in :meth:`tokens` must agree
        with this for every input (property-tested).
        """
        cfg = self.config
        if not cfg.min_len <= len(raw) <= cfg.max_len:
            return None
        if cfg.drop_numeric and self._numeric_re.match(raw):
            return None
        if raw in cfg.stopwords:
            return None
        if cfg.stem:
            raw = _light_stem(raw)
            if len(raw) < cfg.min_len:
                return None
        return raw

    def split(self, text: str) -> list[str]:
        """Raw (lowercased, unnormalized) tokens of ``text`` in order:
        the non-empty pieces of ``_split_re.split`` (property-tested)."""
        if self.config.lowercase:
            text = text.lower()
        return text.translate(self._delim_to_space).split()

    def tokens(self, text: str) -> list[str]:
        """All terms of ``text`` in order (duplicates preserved)."""
        cache = self._norm_cache
        out: list[str] = []
        for raw in self.split(text):
            try:
                term = cache[raw]
            except KeyError:
                term = self._normalize_uncached(raw)
                if len(cache) < NORM_CACHE_MAX:
                    cache[raw] = term
            if term is not None:
                out.append(term)
        return out

    def unique_terms(self, texts: Iterable[str]) -> set[str]:
        """Set of distinct terms across ``texts``."""
        seen: set[str] = set()
        for t in texts:
            seen.update(self.tokens(t))
        return seen
