"""On-disk shard store for the serving layer.

A *store* is a directory holding one ``model`` container (the
replicated per-collection state: major-term dictionary and statistics,
association matrix, cluster centroids, optional PCA projection), P
``shard-XXX`` containers (each a contiguous document-row slice of the
result: doc ids, L1-normalized signatures, landscape coordinates,
cluster assignments, block-aligned delta-coded major-term postings
and, for stamped collections, facet sections), and a
``manifest.json`` describing the layout.

Container format (one file, one version)::

    offset 0   magic     b"REPROSHD"                       (8 bytes)
    offset 8   version   u32 little-endian, FORMAT_VERSION (4 bytes)
    offset 12  reserved  u32, zero                         (4 bytes)
    offset 16  hdr_len   u64 little-endian                 (8 bytes)
    offset 24  header    UTF-8 JSON, hdr_len bytes
    ...        padding to the next 64-byte boundary
    ...        sections  raw little-endian arrays, each 64-aligned

The header JSON lists the ordered section table (name, dtype, shape)
plus free-form ``meta``; section offsets are *recomputed* from that
table identically by writer and reader, so they can never disagree
with the payload.  Each container file is memory-mapped once, on the
first section load, and every section is a read-only zero-copy view
on that one map -- opening a store touches only headers, and a query
reads only the sections (and pages) it scans.

Sections come in groups.  Every container holds the required columns
of its kind (:data:`MODEL_SECTIONS`, or :data:`SHARD_SECTIONS` for
shards and delta segments), and each optional group of
:data:`SECTION_GROUPS` -- the five postings sections, the four facet
sections, the three PCA sections -- whole or not at all.
:func:`check_sections` enforces both from the header alone; every
reader runs it when it opens a container.

Malformed input -- bad magic, any version but :data:`FORMAT_VERSION`,
truncated or corrupt header, a section entry with a negative or
non-int dimension or an object or zero-size dtype, section table
overrunning the file (when the header is read, or when the file is
mapped), a missing required section or a partial group -- raises
:class:`ShardFormatError` carrying the offending path.

The framing is frozen: container sizes are data (live publish charges
a delta's size as I/O, the compaction policy compares delta with base
sizes), so changing a byte of it moves virtual time.

Postings are stored block-aligned: each term run is chunked into
blocks (:func:`repro.index.termindex.compute_posting_blocks`) whose
boundaries and max tf are the sections ``post_block_offsets`` /
``post_block_maxtf``, and the row delta coding restarts at each block
-- every block's first entry is an absolute row, so a block is
independently decodable and a search that skips a block really skips
its decode.

Facet sections -- ``facet_stamp_s`` / ``facet_source`` (per-document
arrival stamp and source-region id, in row order) plus per-block stamp
bounds ``facet_block_lo`` / ``facet_block_hi``
(:data:`FACET_BLOCK_ROWS` rows per block) -- are written only for
stamped collections and detected by presence.  They let a window query
prune whole row blocks by stamp range without touching their stamps;
a facet query on an unstamped store gets a typed error, not a crash.

Generational stores (live ingest)
---------------------------------

A store becomes *generational* once :mod:`repro.ingest` publishes its
first delta generation.  Generation 0 is the static layout above
(``manifest.json``).  Generation ``k >= 1`` adds a directory
``gen-0000k/`` holding that generation's new containers (delta
segments, or rewritten base shards after a compaction) plus a manifest
``manifest-0000k.json`` -- the same :data:`MANIFEST_FORMAT` as
``manifest.json``, written and read by the same codec -- recording the
base shard table *and* the ordered delta list.  A small ``CURRENT``
pointer file names the active generation and is replaced atomically
(``os.replace``), so a reader either sees the old complete generation
or the new complete generation -- never a torn store.  Publish order
is therefore: delta containers, then the generation manifest, then
``CURRENT``.

A stale pointer (``CURRENT`` naming a manifest that does not exist),
a corrupt pointer, a manifest missing a field, or a generation
manifest referencing a missing or truncated container all raise
:class:`ShardFormatError` carrying the offending path.
"""

from __future__ import annotations

import functools
import json
import mmap
import os
from dataclasses import asdict, dataclass

import numpy as np

from repro.engine.results import EngineResult
from repro.index.termindex import (
    BLOCK_SIZE,
    TermPostings,
    build_term_postings,
    compute_posting_blocks,
)
from repro.project.pca import PCATransform
from repro.signature.topicality import RankedTerm

MAGIC = b"REPROSHD"
#: the one container version; a file stamped with any other is refused
FORMAT_VERSION = 4
#: document rows per facet block (one min/max stamp pair per block)
FACET_BLOCK_ROWS = 128
MANIFEST_FORMAT = "repro-serve/3"
CURRENT_FORMAT = "repro-serve-current/1"
_ALIGN = 64
_PREFIX_LEN = 24
_MAX_HEADER = 64 * 1024 * 1024

MODEL_FILE = "model.repro"
MANIFEST_FILE = "manifest.json"
CURRENT_FILE = "CURRENT"

#: sections every model container holds
MODEL_SECTIONS = (
    "association",
    "centroids",
    "term_gid",
    "term_score",
    "term_df",
    "term_cf",
)
#: per-row columns every shard and delta segment holds, with dtypes
SHARD_COLUMNS = {
    "doc_ids": np.int64,
    "signatures": np.float64,
    "coords": np.float64,
    "assignments": np.int64,
}
SHARD_SECTIONS = tuple(SHARD_COLUMNS)
POSTINGS_SECTIONS = (
    "post_offsets",
    "post_rows_delta",
    "post_tf",
    "post_block_offsets",
    "post_block_maxtf",
)
#: optional section groups: a container holds each whole or not at all
SECTION_GROUPS = {
    "postings": POSTINGS_SECTIONS,
    "facet": (
        "facet_stamp_s",
        "facet_source",
        "facet_block_lo",
        "facet_block_hi",
    ),
    "projection": ("pca_mean", "pca_components", "pca_explained_variance"),
}


def generation_dir(generation: int) -> str:
    """Relative directory name of one published generation."""
    return f"gen-{generation:05d}"


def manifest_file(generation: int) -> str:
    """Manifest filename of one generation (0 = the static layout)."""
    if generation == 0:
        return MANIFEST_FILE
    return f"manifest-{generation:05d}.json"


class ShardFormatError(Exception):
    """A store file is malformed, truncated, incomplete, or of another
    format version.

    ``context`` names *which copy* hit the problem when replicas are
    in play (e.g. ``"shard 3 copy 1 on worker 5 (rank 9)"``), so an
    operator can tell a corrupt replica from a corrupt store.
    """

    def __init__(self, path: str, reason: str, context: str = ""):
        self.path = str(path)
        self.reason = reason
        self.context = context
        suffix = f" [{context}]" if context else ""
        super().__init__(f"{path}: {reason}{suffix}")

    def __reduce__(self):
        # rebuilt from its fields, so it survives the trip from an mp
        # rank process to the caller
        return type(self), (self.path, self.reason, self.context)


def _pad(n: int) -> int:
    return (-n) % _ALIGN


@functools.lru_cache(maxsize=64)
def _section_dtype(spec: str) -> np.dtype:
    """The dtype a header names; ``ValueError`` if no section may hold
    it (object dtypes and zero-size items cannot be a raw array view)."""
    dtype = np.dtype(spec)
    if dtype.hasobject or dtype.itemsize <= 0:
        raise ValueError(f"{spec!r} is not a raw array dtype")
    return dtype


def _parse_sections(path: str, sections: list, hdr_len: int) -> dict:
    """``name -> (dtype, shape, offset, nbytes)`` from the ordered
    section table, validated once.

    Offsets are recomputed exactly as :func:`write_container` lays them
    out.  Sizes are Python-int products, so no shape can overflow into
    a small byte count; a negative or non-int dimension, or a dtype no
    section can hold, is a corrupt header naming the section.
    """
    pos = _PREFIX_LEN + hdr_len
    pos += _pad(pos)
    table = {}
    for sec in sections:
        name = sec["name"]
        shape = sec["shape"]
        if type(shape) is not list:
            raise ShardFormatError(
                path, f"corrupt header: section {name!r} shape {shape!r}"
            )
        count = 1
        for dim in shape:
            if type(dim) is not int or dim < 0:
                raise ShardFormatError(
                    path,
                    f"corrupt header: section {name!r} shape {shape!r} "
                    "has a dimension that is not a non-negative int",
                )
            count *= dim
        try:
            dtype = _section_dtype(sec["dtype"])
        except (TypeError, ValueError) as exc:
            raise ShardFormatError(
                path, f"corrupt header: section {name!r} dtype: {exc}"
            ) from exc
        nbytes = count * dtype.itemsize
        table[name] = (dtype, tuple(shape), pos, nbytes)
        pos += nbytes + _pad(nbytes)
    return table


def write_container(
    path: str | os.PathLike, arrays: dict[str, np.ndarray], meta: dict
) -> int:
    """Write one container file; returns its size in bytes."""
    sections = []
    payload = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.byteorder == ">":
            arr = arr.astype(arr.dtype.newbyteorder("<"))
        sections.append(
            {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
        )
        payload.append(arr)
    header = json.dumps(
        {"sections": sections, "meta": meta}, sort_keys=True
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(FORMAT_VERSION.to_bytes(4, "little") + b"\x00\x00\x00\x00")
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        f.write(b"\x00" * _pad(_PREFIX_LEN + len(header)))
        for arr in payload:
            data = arr.tobytes()
            f.write(data)
            f.write(b"\x00" * _pad(len(data)))
        return f.tell()


class Container:
    """Lazy reader of one container file.

    The header is parsed eagerly (and validated).  The first section
    load maps the whole file once, read-only; each section is then a
    cached zero-copy, non-writeable ndarray view on that one map.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = str(path)
        try:
            with open(self.path, "rb", buffering=0) as f:
                size = os.fstat(f.fileno()).st_size
                prefix = f.read(_PREFIX_LEN)
                if len(prefix) < _PREFIX_LEN or prefix[:8] != MAGIC:
                    raise ShardFormatError(
                        self.path, "bad magic: not a repro shard container"
                    )
                version = int.from_bytes(prefix[8:12], "little")
                if version != FORMAT_VERSION:
                    raise ShardFormatError(
                        self.path,
                        f"unsupported format version {version} "
                        f"(reader supports {FORMAT_VERSION})",
                    )
                hdr_len = int.from_bytes(prefix[16:24], "little")
                if hdr_len > _MAX_HEADER or _PREFIX_LEN + hdr_len > size:
                    raise ShardFormatError(
                        self.path,
                        f"header length {hdr_len} exceeds file size {size}",
                    )
                raw = f.read(hdr_len)
                if len(raw) < hdr_len:
                    raise ShardFormatError(self.path, "truncated header")
        except OSError as exc:
            raise ShardFormatError(self.path, f"unreadable: {exc}") from exc
        try:
            header = json.loads(raw.decode("utf-8"))
            self.meta = header["meta"]
            self._sections = _parse_sections(
                self.path, header["sections"], hdr_len
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ShardFormatError(
                self.path, f"corrupt header: {exc}"
            ) from exc
        self._check_layout(size)
        self._map: mmap.mmap | None = None
        self._cache: dict[str, np.ndarray] = {}

    def _check_layout(self, size: int) -> None:
        for name, (_dtype, _shape, off, nbytes) in self._sections.items():
            if off + nbytes > size:
                raise ShardFormatError(
                    self.path,
                    f"section {name!r} [{off}, {off + nbytes}) overruns "
                    f"file size {size}",
                )

    def _mapping(self) -> mmap.mmap:
        """The file's one read-only map, made on first use.

        The file may have shrunk since its header was read, so the
        section table is checked against its size again first.
        """
        if self._map is None:
            try:
                with open(self.path, "rb", buffering=0) as f:
                    self._check_layout(os.fstat(f.fileno()).st_size)
                    self._map = mmap.mmap(
                        f.fileno(), 0, access=mmap.ACCESS_READ
                    )
            except OSError as exc:
                raise ShardFormatError(
                    self.path, f"unreadable: {exc}"
                ) from exc
        return self._map

    @property
    def section_names(self) -> list[str]:
        return list(self._sections)

    def nbytes(self, name: str) -> int:
        """Payload size of one section (bytes-scanned accounting)."""
        return self._sections[name][3]

    def __contains__(self, name: str) -> bool:
        return name in self._sections

    def load(self, name: str) -> np.ndarray:
        """One section as a view on the file's map (cached, read-only)."""
        arr = self._cache.get(name)
        if arr is None:
            if name not in self._sections:
                raise KeyError(f"{self.path}: no section {name!r}")
            dtype, shape, offset, nbytes = self._sections[name]
            arr = np.frombuffer(
                self._mapping(),
                dtype=dtype,
                count=nbytes // dtype.itemsize,
                offset=offset,
            ).reshape(shape)
            self._cache[name] = arr
        return arr


def check_sections(
    container: Container, required: tuple[str, ...] = SHARD_SECTIONS
) -> Container:
    """``container``, once it holds every ``required`` section and each
    of :data:`SECTION_GROUPS` whole or not at all.

    Reads only the parsed header (no map, no decode); a violation
    raises :class:`ShardFormatError` naming the path and the section.
    """
    for group, names in SECTION_GROUPS.items():
        missing = [name for name in names if name not in container]
        if 0 < len(missing) < len(names):
            raise ShardFormatError(
                container.path,
                f"missing section {missing[0]!r} of the partial "
                f"{group} group",
            )
    for name in required:
        if name not in container:
            raise ShardFormatError(
                container.path, f"missing section {name!r}"
            )
    return container


# ----------------------------------------------------------------------
# postings: block-aligned delta coding
# ----------------------------------------------------------------------
def encode_postings_sections(
    postings: TermPostings, block_size: int = BLOCK_SIZE
) -> dict[str, np.ndarray]:
    """The five postings sections of one segment.

    Document rows are delta-coded with the coding restarting at every
    *block* boundary (block starts include every run start), so each
    block decodes independently with one ``np.cumsum`` -- the property
    that lets the block-max kernel skip a block's decode entirely, and
    that makes a block's first row readable without any decode at all.

    Every segment writer goes through here, so identical postings
    always encode to identical bytes (the compaction-parity invariant).
    """
    block_offsets, block_maxtf = compute_posting_blocks(
        postings.offsets, postings.tf, block_size
    )
    delta = np.diff(postings.rows, prepend=0).astype(np.int64)
    starts = block_offsets[:-1]
    delta[starts] = postings.rows[starts]
    return {
        "post_offsets": np.asarray(postings.offsets, dtype=np.int64),
        "post_rows_delta": delta,
        "post_tf": np.asarray(postings.tf, dtype=np.int64),
        "post_block_offsets": np.asarray(block_offsets, dtype=np.int64),
        "post_block_maxtf": np.asarray(block_maxtf, dtype=np.int64),
    }


class BlockPostings:
    """Lazily-decoded block-aligned postings of one shard container.

    Wraps the raw ``post_*`` sections without decoding anything: block
    boundaries and per-block max-tf are readable up front, while a
    contiguous block run's rows are cumsum-decoded only on first touch
    and cached.  The term-search kernel consumes this interface; the
    honest bytes-scanned accounting counts exactly the blocks touched.

    Corrupt block sections -- boundaries that do not tile the postings,
    term runs not aligned to block boundaries, or a max-tf table of the
    wrong length -- raise :class:`ShardFormatError` naming the
    container path.
    """

    def __init__(self, container: Container, n_docs: int):
        self.path = container.path
        self.n_docs = int(n_docs)
        self.offsets = np.asarray(
            container.load("post_offsets"), dtype=np.int64
        )
        # left as map views: a query touches only the blocks it scans
        self.delta = container.load("post_rows_delta")
        self.tf = container.load("post_tf")
        self.block_offsets = np.asarray(
            container.load("post_block_offsets"), dtype=np.int64
        )
        self.block_maxtf = np.asarray(
            container.load("post_block_maxtf"), dtype=np.int64
        )
        #: first block of each term's run (and one past the last run)
        self.term_blocks = self._validate()
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._tfs: dict[tuple[int, int], np.ndarray] = {}

    def _fail(self, reason: str) -> None:
        raise ShardFormatError(self.path, reason)

    def _validate(self) -> np.ndarray:
        """Check the block sections; return each term offset's block
        index."""
        bo = self.block_offsets
        total = int(self.delta.shape[0])
        if bo.ndim != 1 or bo.shape[0] < 1:
            self._fail("corrupt block sections: empty post_block_offsets")
        if int(bo[0]) != 0 or int(bo[-1]) != total:
            self._fail(
                "corrupt block sections: post_block_offsets "
                f"[{int(bo[0])}..{int(bo[-1])}] do not tile "
                f"{total} postings"
            )
        if not (bo[1:] > bo[:-1]).all():
            self._fail(
                "corrupt block sections: post_block_offsets not "
                "strictly increasing"
            )
        if self.block_maxtf.shape != (bo.shape[0] - 1,):
            self._fail(
                "corrupt block sections: post_block_maxtf has "
                f"{self.block_maxtf.shape[0]} entries for "
                f"{bo.shape[0] - 1} blocks (truncated?)"
            )
        if int(self.tf.shape[0]) != total:
            self._fail(
                "corrupt postings: post_tf length "
                f"{int(self.tf.shape[0])} != post_rows_delta length "
                f"{total}"
            )
        # every term run must start and end on a block boundary: the
        # boundary at each offset's insertion point is the offset
        hits = bo.searchsorted(self.offsets)
        if not (bo.take(hits, mode="clip") == self.offsets).all():
            self._fail(
                "corrupt block sections: term offsets misaligned with "
                "post_block_offsets"
            )
        return hits

    @property
    def n_terms(self) -> int:
        return int(self.offsets.shape[0] - 1)

    @property
    def n_blocks(self) -> int:
        return int(self.block_offsets.shape[0] - 1)

    def __len__(self) -> int:
        return int(self.delta.shape[0])

    def term_block_range(self, term_row: int) -> tuple[int, int]:
        """Block-index range ``[lo, hi)`` of one term's run."""
        tb = self.term_blocks
        return int(tb[term_row]), int(tb[term_row + 1])

    def run_rows(self, j0: int, j1: int) -> np.ndarray:
        """Decoded document rows of the contiguous block run
        ``[j0, j1)``, via one segmented cumsum (cached per run)."""
        rows = self._rows.get((j0, j1))
        if rows is None:
            lo = int(self.block_offsets[j0])
            hi = int(self.block_offsets[j1])
            cs = np.cumsum(
                np.asarray(self.delta[lo:hi], dtype=np.int64)
            )
            starts = (
                np.asarray(self.block_offsets[j0 + 1 : j1]) - lo
            )
            if starts.size:
                # each later block's prefix sums carry the spurious
                # running total of everything before its absolute
                # first row; subtract it per segment
                seg_lens = np.diff(
                    np.concatenate(([0], starts, [hi - lo]))
                )
                corr = np.concatenate(([0], cs[starts - 1]))
                rows = cs - np.repeat(corr, seg_lens)
            else:
                rows = cs
            self._rows[(j0, j1)] = rows
        return rows

    def run_tf(self, j0: int, j1: int) -> np.ndarray:
        tf = self._tfs.get((j0, j1))
        if tf is None:
            lo = int(self.block_offsets[j0])
            hi = int(self.block_offsets[j1])
            tf = np.asarray(self.tf[lo:hi], dtype=np.int64)
            self._tfs[(j0, j1)] = tf
        return tf

    def to_term_postings(self) -> TermPostings:
        """Fully-decoded postings (the exhaustive reference search, set
        kernels and the compactor), via one segmented cumsum over every
        block."""
        if self.n_blocks:
            rows = self.run_rows(0, self.n_blocks)
        else:
            rows = np.empty(0, dtype=np.int64)
        return TermPostings(
            n_docs=self.n_docs,
            offsets=self.offsets,
            rows=rows,
            tf=np.asarray(self.tf, dtype=np.int64),
        )


# ----------------------------------------------------------------------
# facet sections (stamped collections, detected by presence)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FacetData:
    """Row-aligned facet arrays of one collection (or one batch).

    ``stamp_s`` is the per-document arrival stamp (virtual seconds,
    float64) and ``source`` the per-document source-region id (int64,
    ``0 <= source < n_sources``), both in document-row order.
    """

    stamp_s: np.ndarray
    source: np.ndarray
    n_sources: int
    source_names: tuple[str, ...] = ()

    def __post_init__(self):
        stamp = np.asarray(self.stamp_s, dtype=np.float64)
        source = np.asarray(self.source, dtype=np.int64)
        if stamp.ndim != 1 or source.shape != stamp.shape:
            raise ValueError(
                "facet stamp_s and source must be 1-D arrays of "
                f"equal length, got {stamp.shape} and {source.shape}"
            )
        object.__setattr__(self, "stamp_s", stamp)
        object.__setattr__(self, "source", source)

    @property
    def n_docs(self) -> int:
        return int(self.stamp_s.shape[0])

    def slice(self, row_lo: int, row_hi: int) -> "FacetData":
        return FacetData(
            stamp_s=self.stamp_s[row_lo:row_hi],
            source=self.source[row_lo:row_hi],
            n_sources=self.n_sources,
            source_names=self.source_names,
        )


def facet_data_from_meta(meta: dict) -> FacetData | None:
    """Decode a corpus's ``meta["facets"]`` carrier, if present.

    The generators and the ingest feed stamp corpora by attaching
    ``{"stamp_s": [...], "source": [...], "n_sources": k,
    "source_names": [...]}`` to ``Corpus.meta`` (which round-trips
    through the jsonl journal).  Unstamped corpora return ``None``.
    """
    fac = (meta or {}).get("facets")
    if fac is None:
        return None
    try:
        return FacetData(
            stamp_s=np.asarray(fac["stamp_s"], dtype=np.float64),
            source=np.asarray(fac["source"], dtype=np.int64),
            n_sources=int(fac["n_sources"]),
            source_names=tuple(fac.get("source_names", ())),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"corrupt corpus facet metadata: {exc}") from exc


def encode_facet_sections(
    stamp_s: np.ndarray,
    source: np.ndarray,
    block_rows: int = FACET_BLOCK_ROWS,
) -> dict[str, np.ndarray]:
    """The four facet sections of one stamped segment.

    Every segment writer goes through here, so identical rows always
    encode to identical facet sections (the compaction-parity
    invariant extends to facets).
    """
    stamp = np.ascontiguousarray(np.asarray(stamp_s, dtype=np.float64))
    src = np.ascontiguousarray(np.asarray(source, dtype=np.int64))
    if stamp.ndim != 1 or src.shape != stamp.shape:
        raise ValueError(
            "facet stamp/source must be 1-D arrays of equal length, "
            f"got {stamp.shape} and {src.shape}"
        )
    n = stamp.shape[0]
    if n:
        starts = np.arange(0, n, block_rows, dtype=np.int64)
        block_lo = np.minimum.reduceat(stamp, starts)
        block_hi = np.maximum.reduceat(stamp, starts)
    else:
        block_lo = np.empty(0, dtype=np.float64)
        block_hi = np.empty(0, dtype=np.float64)
    return {
        "facet_stamp_s": stamp,
        "facet_source": src,
        "facet_block_lo": np.asarray(block_lo, dtype=np.float64),
        "facet_block_hi": np.asarray(block_hi, dtype=np.float64),
    }


class FacetSections:
    """Lazily-read facet arrays of one shard container.

    Stamps and sources stay map views; the small per-block stamp
    bounds are materialized eagerly so a window query can prune whole
    blocks -- ``[t0, t1)`` only touches blocks whose
    ``[block_lo, block_hi]`` envelope intersects the window.  The
    honest bytes-scanned accounting counts the bounds scan plus
    exactly the stamp/source bytes of the blocks touched.

    Corrupt facet sections -- stamp or source arrays whose length is
    not the shard's row count, a bounds table of the wrong length, or
    an inverted ``lo > hi`` envelope -- raise
    :class:`ShardFormatError` naming the container path.
    """

    def __init__(self, container: Container, n_docs: int):
        self.path = container.path
        self.n_docs = int(n_docs)
        self.block_rows = FACET_BLOCK_ROWS
        self.stamp_s = container.load("facet_stamp_s")
        self.source = container.load("facet_source")
        self.block_lo = np.asarray(
            container.load("facet_block_lo"), dtype=np.float64
        )
        self.block_hi = np.asarray(
            container.load("facet_block_hi"), dtype=np.float64
        )
        self._validate()

    def _fail(self, reason: str) -> None:
        raise ShardFormatError(self.path, reason)

    def _validate(self) -> None:
        n = self.n_docs
        if self.stamp_s.ndim != 1 or int(self.stamp_s.shape[0]) != n:
            self._fail(
                "corrupt facet sections: facet_stamp_s has "
                f"{int(self.stamp_s.shape[0])} stamps for {n} rows"
            )
        if self.source.shape != self.stamp_s.shape:
            self._fail(
                "corrupt facet sections: facet_source has "
                f"{int(self.source.shape[0])} entries for {n} rows"
            )
        nblocks = -(-n // self.block_rows) if n else 0
        if self.block_lo.shape != (nblocks,) or self.block_hi.shape != (
            nblocks,
        ):
            self._fail(
                "corrupt facet sections: stamp bounds have "
                f"{int(self.block_lo.shape[0])}/"
                f"{int(self.block_hi.shape[0])} entries for "
                f"{nblocks} blocks (truncated?)"
            )
        if nblocks and bool(np.any(self.block_lo > self.block_hi)):
            self._fail(
                "corrupt facet sections: block stamp envelope has "
                "lo > hi"
            )

    @property
    def n_blocks(self) -> int:
        return int(self.block_lo.shape[0])

    def window_rows(
        self, t0: float, t1: float, source: int = -1
    ) -> tuple[np.ndarray, int]:
        """Ascending local rows with ``t0 <= stamp < t1``.

        ``source >= 0`` additionally filters to one source region.
        Returns ``(rows, bytes_scanned)``; the scan count is the full
        bounds table plus the stamp (and, under a source filter, the
        source) bytes of every block the pruning could not skip.
        """
        scanned = 16 * self.n_blocks
        if t1 <= t0 or not self.n_blocks:
            return np.empty(0, dtype=np.int64), scanned
        cand = np.flatnonzero(
            (self.block_lo < t1) & (self.block_hi >= t0)
        )
        parts = []
        for b in cand:
            lo = int(b) * self.block_rows
            hi = min(lo + self.block_rows, self.n_docs)
            stamps = np.asarray(self.stamp_s[lo:hi], dtype=np.float64)
            scanned += 8 * (hi - lo)
            rows = np.flatnonzero((stamps >= t0) & (stamps < t1)) + lo
            if source >= 0 and rows.size:
                scanned += 8 * int(rows.size)
                src = np.asarray(self.source[rows], dtype=np.int64)
                rows = rows[src == source]
            if rows.size:
                parts.append(rows)
        if not parts:
            return np.empty(0, dtype=np.int64), scanned
        return np.concatenate(parts).astype(np.int64), scanned

    def source_counts(
        self, t0: float, t1: float, n_sources: int
    ) -> tuple[np.ndarray, int]:
        """Per-source document counts within ``[t0, t1)`` (int64)."""
        rows, scanned = self.window_rows(t0, t1)
        counts = np.zeros(n_sources, dtype=np.int64)
        if rows.size:
            scanned += 8 * int(rows.size)
            src = np.asarray(self.source[rows], dtype=np.int64)
            src = src[(src >= 0) & (src < n_sources)]
            counts += np.bincount(src, minlength=n_sources).astype(
                np.int64
            )
        return counts, scanned


def load_facet_sections(
    container: Container, n_docs: int
) -> FacetSections | None:
    """The container's facet sections, or ``None`` if unstamped."""
    if "facet_stamp_s" not in container:
        return None
    return FacetSections(container, n_docs)


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardInfo:
    """One shard's row/doc coverage as recorded in the manifest."""

    file: str
    row_lo: int
    row_hi: int
    doc_lo: int
    doc_hi: int
    nbytes: int

    @property
    def n_docs(self) -> int:
        return self.row_hi - self.row_lo


@dataclass(frozen=True)
class DeltaInfo:
    """One delta segment appended by a published generation.

    ``owner`` is the index of the base shard whose server rank also
    serves this segment; rows are global (appended after every earlier
    segment's rows).
    """

    file: str
    generation: int
    owner: int
    row_lo: int
    row_hi: int
    doc_lo: int
    doc_hi: int
    nbytes: int

    @property
    def n_docs(self) -> int:
        return self.row_hi - self.row_lo


@dataclass(frozen=True)
class FacetsInfo:
    """Store-level facet summary recorded in a stamped manifest.

    ``stamp_lo`` / ``stamp_hi`` bracket every stamp in the store
    (base shards plus deltas) so a dashboard can pick windows without
    scanning; unstamped stores simply omit the entry
    (``StoreManifest.facets is None``).
    """

    n_sources: int
    source_names: tuple[str, ...]
    stamp_lo: float
    stamp_hi: float
    block_rows: int = FACET_BLOCK_ROWS


@dataclass(frozen=True)
class StoreManifest:
    """Directory-level description of a sharded store.

    A static store is generation 0 with an empty ``deltas`` tuple.  In
    a generational store ``shards`` stays the base shard table (which a
    compaction rewrites) while ``deltas`` is the ordered list of live
    delta segments; ``n_docs`` always counts base plus deltas.
    """

    nshards: int
    n_docs: int
    corpus_name: str
    model_file: str
    bbox: tuple[float, float, float, float]
    shards: tuple[ShardInfo, ...]
    generation: int = 0
    deltas: tuple[DeltaInfo, ...] = ()
    ingested_batches: int = 0
    #: virtual publish instant within the serving session that wrote
    #: this generation (0.0 = published offline / before the session);
    #: the broker only adopts generations with ``published_s <= now``
    published_s: float = 0.0
    #: replicas per shard the replicated tier should place by default
    #: (1 = unreplicated; carried through every later generation)
    replication: int = 1
    #: facet summary of a stamped store (None = unstamped; facet
    #: queries get a typed error instead of a fan-out)
    facets: FacetsInfo | None = None

    @property
    def base_n_docs(self) -> int:
        """Documents covered by the base shards alone."""
        return self.shards[-1].row_hi if self.shards else 0

    @property
    def delta_nbytes(self) -> int:
        return sum(d.nbytes for d in self.deltas)

    @property
    def base_nbytes(self) -> int:
        return sum(s.nbytes for s in self.shards)

    def shard_of_row(self, row: int) -> int:
        """Index of the base shard whose rank owns a global row.

        Delta rows map to the *serving* shard (their ``owner``), not a
        base row range.
        """
        for i, s in enumerate(self.shards):
            if s.row_lo <= row < s.row_hi:
                return i
        for d in self.deltas:
            if d.row_lo <= row < d.row_hi:
                return d.owner
        raise KeyError(f"row {row} outside store of {self.n_docs} docs")


def _manifest_from_data(path: str, data: dict) -> StoreManifest:
    """Decode a manifest document; every field is required."""
    try:
        if data["format"] != MANIFEST_FORMAT:
            raise ShardFormatError(
                path,
                f"unsupported store format {data['format']!r} "
                f"(reader supports {MANIFEST_FORMAT!r})",
            )
        fac = data["facets"]
        return StoreManifest(
            nshards=int(data["nshards"]),
            n_docs=int(data["n_docs"]),
            corpus_name=data["corpus_name"],
            model_file=data["model_file"],
            bbox=tuple(data["bbox"]),
            shards=tuple(ShardInfo(**s) for s in data["shards"]),
            generation=int(data["generation"]),
            deltas=tuple(DeltaInfo(**d) for d in data["deltas"]),
            ingested_batches=int(data["ingested_batches"]),
            published_s=float(data["published_s"]),
            replication=int(data["replication"]),
            facets=None if fac is None else FacetsInfo(
                **{**fac, "source_names": tuple(fac["source_names"])}
            ),
        )
    except ShardFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardFormatError(path, f"corrupt manifest: {exc}") from exc


def write_manifest(
    store_dir: str | os.PathLike, manifest: StoreManifest
) -> str:
    """Write one generation's manifest file; returns its path.

    The one writer of both ``manifest.json`` (generation 0) and
    ``manifest-0000k.json``: every field, always.
    """
    path = os.path.join(str(store_dir), manifest_file(manifest.generation))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(
            {"format": MANIFEST_FORMAT, **asdict(manifest)},
            f,
            indent=2,
            sort_keys=True,
        )
        f.write("\n")
    return path


def _read_json(path: str, what: str) -> dict:
    try:
        with open(path, "rb") as f:
            return json.loads(f.read().decode("utf-8"))
    except OSError as exc:
        raise ShardFormatError(path, f"unreadable: {exc}") from exc
    except ValueError as exc:
        raise ShardFormatError(path, f"corrupt {what}: {exc}") from exc


def current_generation(store_dir: str | os.PathLike) -> int:
    """The published generation of a store (0 = static layout).

    Reads only the small ``CURRENT`` pointer, so polling between
    queries is cheap.
    """
    path = os.path.join(str(store_dir), CURRENT_FILE)
    if not os.path.exists(path):
        return 0
    data = _read_json(path, "generation pointer")
    try:
        if data["format"] != CURRENT_FORMAT:
            raise ShardFormatError(
                path,
                f"unsupported pointer format {data['format']!r} "
                f"(reader supports {CURRENT_FORMAT!r})",
            )
        return int(data["generation"])
    except ShardFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ShardFormatError(
            path, f"corrupt generation pointer: {exc}"
        ) from exc


def load_manifest_generation(
    store_dir: str | os.PathLike, generation: int
) -> StoreManifest:
    """Load one specific generation's manifest.

    Generation 0 is the static ``manifest.json``; generation ``k >= 1``
    is ``manifest-0000k.json`` as published by the ingest subsystem.  A
    missing generation manifest raises :class:`ShardFormatError`
    naming it a *stale generation pointer* -- the pointer survived but
    the generation it names is gone.
    """
    path = os.path.join(str(store_dir), manifest_file(generation))
    if generation and not os.path.exists(path):
        raise ShardFormatError(
            path,
            f"stale generation pointer: generation {generation} "
            "manifest does not exist",
        )
    return _manifest_from_data(path, _read_json(path, "manifest"))


def load_manifest(store_dir: str | os.PathLike) -> StoreManifest:
    """Parse and validate a store's *current* manifest.

    Static stores read ``manifest.json`` directly; generational stores
    follow the atomic ``CURRENT`` pointer to the active generation.
    """
    return load_manifest_generation(
        store_dir, current_generation(store_dir)
    )


def publish_generation(
    store_dir: str | os.PathLike, manifest: StoreManifest
) -> None:
    """Write a generation's manifest, then atomically flip the store's
    ``CURRENT`` pointer to it.

    The generation's containers must already be on disk; the pointer
    is written to a temporary file and ``os.replace``\\ d into place,
    so concurrent readers see either the previous or the new
    generation in full.
    """
    if manifest.generation < 1:
        raise ValueError(
            "published generations start at 1; generation 0 is the "
            "static manifest.json"
        )
    store = str(store_dir)
    write_manifest(store, manifest)
    tmp = os.path.join(store, CURRENT_FILE + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(
            {
                "format": CURRENT_FORMAT,
                "generation": manifest.generation,
                "manifest": manifest_file(manifest.generation),
            },
            f,
            sort_keys=True,
        )
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(store, CURRENT_FILE))


def verify_store(store_dir: str | os.PathLike) -> StoreManifest:
    """Open the model and every container the current generation
    references.

    Validates the generation pointer, the manifest, and each
    referenced container's header, section table and section groups
    (which catches truncation, a dropped section and a missing
    generation directory), raising :class:`ShardFormatError` with the
    offending path on the first problem.  Returns the verified
    manifest.
    """
    model = load_model(store_dir)
    manifest = model.manifest
    for seg in manifest.shards + manifest.deltas:
        check_sections(
            Container(os.path.join(model.store_dir, seg.file)),
            model.shard_sections,
        )
    return manifest


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
def write_segment(
    path: str | os.PathLike,
    columns: dict[str, np.ndarray],
    postings: TermPostings | None,
    facets: FacetData | None,
    meta: dict,
) -> int:
    """Write one shard or delta segment container; returns its size.

    ``columns`` maps each of :data:`SHARD_SECTIONS` to the segment's
    rows; ``postings`` (segment-local rows) and ``facets`` add the
    optional postings and facet groups.
    """
    arrays = {
        name: np.asarray(columns[name], dtype=dtype)
        for name, dtype in SHARD_COLUMNS.items()
    }
    if postings is not None:
        arrays.update(encode_postings_sections(postings))
    if facets is not None:
        arrays.update(encode_facet_sections(facets.stamp_s, facets.source))
    return write_container(path, arrays, meta)


def write_shards(
    store_dir: str,
    prefix: str,
    nshards: int,
    columns: dict[str, np.ndarray],
    postings: TermPostings | None,
    facets: FacetData | None,
    corpus_name: str,
) -> tuple[ShardInfo, ...]:
    """Split global-row ``columns`` into ``nshards`` contiguous shards.

    The one shard-split loop of :func:`build_shards` and the
    compactor: the pipeline partitioner's ``np.array_split`` row
    ranges, shard ``i`` written to ``<prefix>shard-<i>.repro`` under
    ``store_dir``.  Returns the shard table.
    """
    doc_ids = columns["doc_ids"]
    n_docs = int(doc_ids.shape[0])
    shards: list[ShardInfo] = []
    row_lo = 0
    for i, rows in enumerate(np.array_split(np.arange(n_docs), nshards)):
        row_hi = row_lo + int(rows.size)
        fname = f"{prefix}shard-{i:03d}.repro"
        nbytes = write_segment(
            os.path.join(store_dir, fname),
            {name: col[row_lo:row_hi] for name, col in columns.items()},
            None if postings is None else postings.restrict(row_lo, row_hi),
            None if facets is None else facets.slice(row_lo, row_hi),
            {
                "kind": "shard",
                "shard": i,
                "row_lo": row_lo,
                "row_hi": row_hi,
                "corpus_name": corpus_name,
            },
        )
        shards.append(
            ShardInfo(
                file=fname,
                row_lo=row_lo,
                row_hi=row_hi,
                doc_lo=int(doc_ids[row_lo]) if row_hi > row_lo else 0,
                doc_hi=int(doc_ids[row_hi - 1]) if row_hi > row_lo else 0,
                nbytes=nbytes,
            )
        )
        row_lo = row_hi
    return tuple(shards)


def build_shards(
    result: EngineResult,
    out_dir: str | os.PathLike,
    nshards: int,
    corpus=None,
    postings: TermPostings | None = None,
    tokenizer_config=None,
    replication: int = 1,
    facets: FacetData | None = None,
) -> StoreManifest:
    """Partition an engine result into a P-shard on-disk store.

    Documents are split into ``nshards`` contiguous row ranges (the
    same ``np.array_split`` convention as the pipeline's partitioner).
    Term postings come from ``postings`` or are inverted from
    ``corpus``; without either, the store serves signature/cluster
    queries but not ranked term search.  ``replication`` is recorded
    in the manifest as the replicated tier's default copy count; it
    does not change the on-disk layout (every worker reads the same
    immutable containers).

    ``facets`` (or a stamped ``corpus`` whose ``meta["facets"]``
    carries them) makes the store *stamped*: every shard gains the
    facet sections and the manifest records a :class:`FacetsInfo`
    summary.  An unstamped build simply has no facet sections.
    """
    if replication < 1:
        raise ValueError(f"replication must be >= 1, got {replication}")
    if result.signatures is None:
        raise ValueError(
            "build_shards needs signatures; run the engine with "
            "keep_signatures=True"
        )
    if nshards < 1:
        raise ValueError(f"nshards must be >= 1, got {nshards}")
    n_docs = int(result.doc_ids.shape[0])
    if postings is None and corpus is not None:
        postings = build_term_postings(
            corpus, result, tokenizer_config=tokenizer_config
        )
    if facets is None and corpus is not None:
        facets = facet_data_from_meta(corpus.meta)
    if facets is not None and facets.n_docs != n_docs:
        raise ValueError(
            f"facet arrays cover {facets.n_docs} docs but the result "
            f"has {n_docs}"
        )
    out = str(out_dir)
    os.makedirs(out, exist_ok=True)

    model_meta = {
        "kind": "model",
        "corpus_name": result.corpus_name,
        "n_docs": n_docs,
        "n_topics": int(result.centroids.shape[1]),
        "terms": [t.term for t in result.major_terms],
        "topic_terms": [t.term for t in result.topic_terms],
        "has_postings": postings is not None,
    }
    model_arrays = {
        "association": np.asarray(result.association, dtype=np.float64),
        "centroids": np.asarray(result.centroids, dtype=np.float64),
        "term_gid": np.array(
            [t.gid for t in result.major_terms], dtype=np.int64
        ),
        "term_score": np.array(
            [t.score for t in result.major_terms], dtype=np.float64
        ),
        "term_df": np.array(
            [t.df for t in result.major_terms], dtype=np.int64
        ),
        "term_cf": np.array(
            [t.cf for t in result.major_terms], dtype=np.int64
        ),
    }
    if result.projection is not None:
        model_arrays["pca_mean"] = np.asarray(
            result.projection.mean, dtype=np.float64
        )
        model_arrays["pca_components"] = np.asarray(
            result.projection.components, dtype=np.float64
        )
        model_arrays["pca_explained_variance"] = np.asarray(
            result.projection.explained_variance, dtype=np.float64
        )
    write_container(os.path.join(out, MODEL_FILE), model_arrays, model_meta)

    shards = write_shards(
        out,
        "",
        nshards,
        {name: getattr(result, name) for name in SHARD_COLUMNS},
        postings,
        facets,
        result.corpus_name,
    )
    bbox = (
        float(result.coords[:, 0].min()) if n_docs else 0.0,
        float(result.coords[:, 1].min()) if n_docs else 0.0,
        float(result.coords[:, 0].max()) if n_docs else 0.0,
        float(result.coords[:, 1].max()) if n_docs else 0.0,
    )
    facets_info = None
    if facets is not None:
        facets_info = FacetsInfo(
            n_sources=facets.n_sources,
            source_names=tuple(facets.source_names),
            stamp_lo=float(facets.stamp_s.min()) if n_docs else 0.0,
            stamp_hi=float(facets.stamp_s.max()) if n_docs else 0.0,
        )
    manifest = StoreManifest(
        nshards=nshards,
        n_docs=n_docs,
        corpus_name=result.corpus_name,
        model_file=MODEL_FILE,
        bbox=bbox,
        shards=shards,
        replication=replication,
        facets=facets_info,
    )
    write_manifest(out, manifest)
    return manifest

# ----------------------------------------------------------------------
# model-side loading helpers
# ----------------------------------------------------------------------
def load_model(store_dir: str | os.PathLike) -> "ServeModel":
    """Open a store: its current manifest and its model container.

    A serving session calls this once, in the calling process, and
    hands the result to every rank.
    """
    store = str(store_dir)
    manifest = load_manifest(store)
    cont = Container(os.path.join(store, manifest.model_file))
    return ServeModel(manifest=manifest, container=cont, store_dir=store)


@dataclass
class ServeModel:
    """Replicated per-collection state every query consults.

    Read-only once built: one instance is shared by every rank of a
    session (sim ranks directly, mp ranks through the fork).
    ``manifest`` is the generation current when the store was opened.
    """

    manifest: StoreManifest
    container: Container
    store_dir: str

    def __post_init__(self):
        c = check_sections(self.container, MODEL_SECTIONS)
        self.terms: list[str] = list(c.meta["terms"])
        self.topic_terms: list[str] = list(c.meta["topic_terms"])
        self.term_row = {t: i for i, t in enumerate(self.terms)}
        self.association = np.asarray(c.load("association"))
        self.centroids = np.asarray(c.load("centroids"))
        self.term_df = np.asarray(c.load("term_df"))
        self.has_postings = bool(c.meta["has_postings"])

    @property
    def n_docs(self) -> int:
        return self.manifest.n_docs

    @property
    def shard_sections(self) -> tuple[str, ...]:
        """Sections every shard and delta segment of this store holds."""
        if self.has_postings:
            return SHARD_SECTIONS + POSTINGS_SECTIONS
        return SHARD_SECTIONS

    def major_terms(self) -> list[RankedTerm]:
        c = self.container
        gid = np.asarray(c.load("term_gid"))
        score = np.asarray(c.load("term_score"))
        cf = np.asarray(c.load("term_cf"))
        return [
            RankedTerm(
                term=t,
                gid=int(gid[i]),
                score=float(score[i]),
                df=int(self.term_df[i]),
                cf=int(cf[i]),
            )
            for i, t in enumerate(self.terms)
        ]

    def projection(self) -> PCATransform | None:
        c = self.container
        if "pca_mean" not in c:
            return None
        return PCATransform(
            mean=np.asarray(c.load("pca_mean")),
            components=np.asarray(c.load("pca_components")),
            explained_variance=np.asarray(
                c.load("pca_explained_variance")
            ),
        )
