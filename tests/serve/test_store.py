"""Shard store format: round-trips, block delta coding, typed errors."""

import hashlib
import json

import numpy as np
import pytest

from repro.serve.query import ShardStore
from repro.serve.store import (
    FORMAT_VERSION,
    MAGIC,
    BlockPostings,
    Container,
    ShardFormatError,
    build_shards,
    encode_postings_sections,
    load_manifest,
    load_model,
    write_container,
)
from tests.serve.conftest import patch_section


def _write(tmp_path, arrays=None, meta=None):
    path = tmp_path / "test.repro"
    write_container(
        path,
        arrays if arrays is not None else {"a": np.arange(5)},
        meta if meta is not None else {"kind": "test"},
    )
    return path


class TestContainer:
    def test_round_trip(self, tmp_path):
        arrays = {
            "ints": np.arange(7, dtype=np.int64),
            "floats": np.linspace(0, 1, 12).reshape(3, 4),
            "empty": np.empty((0, 3), dtype=np.float64),
        }
        path = _write(tmp_path, arrays, {"kind": "test", "n": 7})
        cont = Container(path)
        assert cont.meta == {"kind": "test", "n": 7}
        assert cont.section_names == ["ints", "floats", "empty"]
        for name, arr in arrays.items():
            np.testing.assert_array_equal(cont.load(name), arr)
            assert cont.load(name).dtype == arr.dtype

    def test_sections_are_64_aligned(self, tmp_path):
        path = _write(
            tmp_path,
            {"a": np.arange(3, dtype=np.int8), "b": np.arange(5)},
        )
        cont = Container(path)
        for name in cont.section_names:
            assert cont._sections[name][2] % 64 == 0

    def test_load_is_lazy_memmap(self, tmp_path):
        path = _write(
            tmp_path,
            {"a": np.arange(5), "b": np.ones((2, 3)), "c": np.arange(0)},
        )
        cont = Container(path)
        assert cont._map is None  # opening touches only the header
        sections = [cont.load(name) for name in ("a", "b", "c")]
        for arr in sections:
            assert type(arr) is np.ndarray
            assert not arr.flags.writeable
            assert arr.ctypes.data % 64 == 0 or arr.size == 0
            base = arr
            while isinstance(base, np.ndarray):
                base = base.base
            # one mapping for the whole file
            assert memoryview(base).obj is cont._map
        assert cont.load("a") is cont.load("a")
        with pytest.raises(ValueError):
            sections[0][0] = 7

    def test_truncated_after_open(self, tmp_path):
        path = _write(tmp_path, {"a": np.arange(4), "b": np.arange(100)})
        cont = Container(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 128])
        with pytest.raises(ShardFormatError) as err:
            cont.load("a")
        assert err.value.path == str(path)
        assert "section 'b'" in str(err.value)
        assert "overruns" in str(err.value)

    def test_unknown_section_raises_keyerror(self, tmp_path):
        cont = Container(_write(tmp_path))
        with pytest.raises(KeyError):
            cont.load("nope")

    def test_nbytes_accounting(self, tmp_path):
        cont = Container(_write(tmp_path, {"a": np.arange(5)}))
        assert cont.nbytes("a") == 40


class TestShardFormatError:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.repro"
        path.write_bytes(b"NOTASHRD" + b"\x00" * 64)
        with pytest.raises(ShardFormatError) as err:
            Container(path)
        assert err.value.path == str(path)
        assert "magic" in str(err.value)

    @staticmethod
    def _stamp_version(tmp_path, version):
        path = _write(tmp_path)
        data = bytearray(path.read_bytes())
        data[8:12] = version.to_bytes(4, "little")
        path.write_bytes(bytes(data))
        return path

    def test_writes_the_one_version(self, tmp_path):
        data = _write(tmp_path).read_bytes()
        assert data[8:12] == FORMAT_VERSION.to_bytes(4, "little")

    def test_version_mismatch(self, tmp_path):
        unsupported = FORMAT_VERSION + 1
        path = self._stamp_version(tmp_path, unsupported)
        with pytest.raises(ShardFormatError) as err:
            Container(path)
        assert f"version {unsupported}" in str(err.value)
        assert err.value.path == str(path)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_versions_are_refused(self, tmp_path, version):
        path = self._stamp_version(tmp_path, version)
        with pytest.raises(ShardFormatError) as err:
            Container(path)
        assert f"unsupported format version {version}" in str(err.value)
        assert err.value.path == str(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "trunc.repro"
        path.write_bytes(MAGIC + b"\x00" * 4)
        with pytest.raises(ShardFormatError):
            Container(path)

    def test_corrupt_header_json(self, tmp_path):
        path = _write(tmp_path)
        data = bytearray(path.read_bytes())
        hdr_len = int.from_bytes(data[16:24], "little")
        data[24 : 24 + hdr_len] = b"{" * hdr_len
        path.write_bytes(bytes(data))
        with pytest.raises(ShardFormatError) as err:
            Container(path)
        assert "corrupt header" in str(err.value)

    def test_header_overruns_file(self, tmp_path):
        path = _write(tmp_path)
        data = bytearray(path.read_bytes())
        data[16:24] = (10**9).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ShardFormatError) as err:
            Container(path)
        assert "header length" in str(err.value)

    def test_section_overruns_file(self, tmp_path):
        path = _write(tmp_path, {"a": np.arange(100)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 128])
        with pytest.raises(ShardFormatError) as err:
            Container(path)
        assert "overruns" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ShardFormatError):
            Container(tmp_path / "absent.repro")

    @pytest.mark.parametrize(
        "fields, reason",
        [
            # used to load 112 elements running into the next section
            ({"shape": [-4]}, "corrupt header: section 'a'"),
            # used to overflow np.prod to 0 bytes and pass the check
            ({"shape": [2**61, 8]}, "section 'a'"),
            ({"shape": [-1, -4]}, "corrupt header: section 'a'"),
            ({"shape": [4.0]}, "corrupt header: section 'a'"),
            ({"shape": 4}, "corrupt header: section 'a'"),
            ({"dtype": "|O"}, "corrupt header: section 'a'"),
            ({"dtype": "|V0"}, "corrupt header: section 'a'"),
            ({"dtype": "<q9"}, "corrupt header: section 'a'"),
        ],
        ids=[
            "negative-dim",
            "overflowing-dims",
            "negative-dims",
            "float-dim",
            "scalar-shape",
            "object-dtype",
            "zero-itemsize",
            "unknown-dtype",
        ],
    )
    def test_corrupt_section_entry(self, tmp_path, fields, reason):
        path = _write(
            tmp_path,
            {"a": np.arange(4, dtype=np.int64), "b": np.arange(100)},
            # a list meta, so the compact re-encoding leaves room
            {"kind": "test", "labels": list("abcdefghijklmnop")},
        )
        patch_section(path, "a", **fields)
        with pytest.raises(ShardFormatError) as err:
            Container(path).load("a")
        assert err.value.path == str(path)
        assert reason in err.value.reason


def test_container_bytes_are_pinned(tmp_path):
    """The container framing is frozen: live publish charges a delta's
    size as I/O and compaction compares delta with base sizes, so any
    change to these bytes moves virtual time and must be deliberate."""
    arrays = {
        "ids": np.arange(5, dtype=np.int64),
        "x": np.linspace(0.0, 1.0, 6).reshape(2, 3),
        "small": np.arange(3, dtype=np.int8),
        "big": np.arange(4, dtype=">i4"),
        "empty": np.empty((0, 2), dtype=np.float64),
    }
    path = tmp_path / "pinned.repro"
    nbytes = write_container(path, arrays, {"kind": "shard", "n": 5})
    data = path.read_bytes()
    assert nbytes == len(data) == 576
    assert hashlib.sha256(data).hexdigest() == (
        "7634b4804efc17bdc5092b384ac7fba39a80312d77a9484e6421ec456b643402"
    )


class TestManifest:
    def test_load_round_trip(self, stores):
        manifest = load_manifest(stores[4])
        assert manifest.nshards == 4
        assert len(manifest.shards) == 4
        assert manifest.shards[0].row_lo == 0
        assert manifest.shards[-1].row_hi == manifest.n_docs
        for a, b in zip(manifest.shards, manifest.shards[1:]):
            assert a.row_hi == b.row_lo

    def test_shard_of_row(self, stores):
        manifest = load_manifest(stores[4])
        for row in (0, manifest.n_docs - 1):
            i = manifest.shard_of_row(row)
            assert (
                manifest.shards[i].row_lo
                <= row
                < manifest.shards[i].row_hi
            )
        with pytest.raises(KeyError):
            manifest.shard_of_row(manifest.n_docs)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardFormatError):
            load_manifest(tmp_path)

    def test_corrupt_manifest_json(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(ShardFormatError) as err:
            load_manifest(tmp_path)
        assert "corrupt manifest" in str(err.value)

    def test_unsupported_store_format(self, stores, tmp_path):
        data = json.loads(
            (stores[1] / "manifest.json").read_text()
        )
        data["format"] = "repro-serve/999"
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(ShardFormatError) as err:
            load_manifest(tmp_path)
        assert "repro-serve/999" in str(err.value)


class TestDeltaCoding:
    def test_encode_decode_round_trip(self, postings, tmp_path):
        path = _write(tmp_path, encode_postings_sections(postings))
        decoded = BlockPostings(
            Container(path), postings.n_docs
        ).to_term_postings()
        np.testing.assert_array_equal(decoded.rows, postings.rows)
        np.testing.assert_array_equal(decoded.tf, postings.tf)
        np.testing.assert_array_equal(
            decoded.offsets, postings.offsets
        )

    def test_deltas_are_small(self, postings):
        # the point of the coding: gaps are smaller than absolute rows,
        # and each block's first entry is its absolute first row
        sections = encode_postings_sections(postings)
        delta = sections["post_rows_delta"]
        if len(postings):
            assert delta.max() <= postings.rows.max()
            assert (delta >= 0).all()
            starts = sections["post_block_offsets"][:-1]
            np.testing.assert_array_equal(
                delta[starts], postings.rows[starts]
            )


class TestBuildShards:
    def test_shards_partition_rows(self, result, stores):
        manifest = load_manifest(stores[4])
        doc_ids = []
        for info in manifest.shards:
            cont = Container(stores[4] / info.file)
            ids = np.asarray(cont.load("doc_ids"))
            assert len(ids) == info.n_docs
            doc_ids.append(ids)
        np.testing.assert_array_equal(
            np.concatenate(doc_ids), result.doc_ids
        )

    def test_model_round_trip(self, result, stores):
        model = load_model(stores[2])
        np.testing.assert_array_equal(
            model.association, result.association
        )
        np.testing.assert_array_equal(
            model.centroids, result.centroids
        )
        assert model.terms == [t.term for t in result.major_terms]
        assert model.major_terms() == result.major_terms
        proj = model.projection()
        assert proj is not None
        np.testing.assert_array_equal(
            proj.components, result.projection.components
        )

    def test_shard_postings_round_trip(self, postings, stores):
        manifest = load_manifest(stores[4])
        model = load_model(stores[4])
        for i, info in enumerate(manifest.shards):
            shard = ShardStore(
                Container(stores[4] / info.file), model
            )
            expect = postings.restrict(info.row_lo, info.row_hi)
            np.testing.assert_array_equal(
                shard.postings.rows, expect.rows
            )
            np.testing.assert_array_equal(
                shard.postings.tf, expect.tf
            )

    def test_requires_signatures(self, result, tmp_path):
        from dataclasses import replace

        stripped = replace(result, signatures=None)
        with pytest.raises(ValueError, match="signatures"):
            build_shards(stripped, tmp_path / "s", 2)

    def test_rejects_bad_shard_count(self, result, tmp_path):
        with pytest.raises(ValueError, match="nshards"):
            build_shards(result, tmp_path / "s", 0)

    def test_store_without_postings(self, result, tmp_path):
        out = tmp_path / "nopost"
        build_shards(result, out, 2)
        model = load_model(out)
        assert not model.has_postings
        manifest = load_manifest(out)
        shard = ShardStore(
            Container(out / manifest.shards[0].file), model
        )
        with pytest.raises(KeyError, match="postings"):
            _ = shard.postings


class TestReplication:
    def test_manifest_round_trip(self, replicated_store):
        manifest = load_manifest(replicated_store)
        assert manifest.replication == 2
        data = json.loads(
            (replicated_store / "manifest.json").read_text()
        )
        assert data["replication"] == 2

    def test_default_is_one(self, stores, tmp_path):
        assert load_manifest(stores[4]).replication == 1
        # every manifest field is required: one without the replica
        # count is corrupt, not silently unreplicated
        data = json.loads((stores[1] / "manifest.json").read_text())
        data.pop("replication")
        (tmp_path / "manifest.json").write_text(json.dumps(data))
        with pytest.raises(ShardFormatError) as err:
            load_manifest(tmp_path)
        assert "corrupt manifest" in str(err.value)
        assert "replication" in str(err.value)

    def test_rejects_bad_replication(self, result, tmp_path):
        with pytest.raises(ValueError, match="replication"):
            build_shards(result, tmp_path / "s", 2, replication=0)

    def test_error_context_is_optional(self):
        plain = ShardFormatError("/x/f", "bad magic")
        assert plain.context == ""
        assert str(plain) == "/x/f: bad magic"
        rich = ShardFormatError(
            "/x/f", "bad magic", context="shard 1 copy 0 on worker 3"
        )
        assert "shard 1 copy 0 on worker 3" in str(rich)
        assert rich.path == "/x/f" and rich.reason == "bad magic"
