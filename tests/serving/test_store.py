"""Property and corruption tests for the TNEMB1 embedding store.

The contract under test: write → mmap-load is bit-exact for any
(dtype, ids, shape); damaged files fail loudly with named errors
(truncation at open, bit rot at verify); and the text ↔ binary
conversion is lossless in both directions.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.io import load_embeddings, save_embeddings
from repro.serving.store import (
    HEADER_BYTES,
    MAGIC,
    EmbeddingStore,
    StoreCorruptionError,
    StoreFormatError,
    store_from_embeddings,
    write_store,
)

# ids: any printable text without the newline delimiter
_id_alphabet = st.characters(
    codec="utf-8", exclude_characters="\n", exclude_categories=("C",)
)
_ids = st.lists(
    st.text(alphabet=_id_alphabet, min_size=1, max_size=12),
    min_size=1,
    max_size=8,
    unique=True,
)


def _matrix(draw, rows: int):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    dim = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal((rows, dim)).astype(dtype)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), ids=_ids)
    def test_write_mmap_load_bit_exact(self, data, ids, tmp_path_factory):
        """Random dtypes/ids/shapes survive the store bit for bit."""
        matrix = _matrix(data.draw, len(ids))
        path = tmp_path_factory.mktemp("store") / "e.tnemb"
        write_store(path, ids, matrix)
        with EmbeddingStore(path) as store:
            assert store.dtype == matrix.dtype
            assert store.count == len(ids)
            assert store.dim == matrix.shape[1]
            assert store.matrix.tobytes() == matrix.tobytes()
            assert store.ids == list(ids)
            store.verify()
            for row, node in enumerate(ids):
                assert store.row_of(node) == row
                assert np.array_equal(store.vector(node), matrix[row])

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        matrix = rng.standard_normal((5, 3)).astype(np.float32)
        ids = [f"n{i}" for i in range(5)]
        a, b = tmp_path / "a.tnemb", tmp_path / "b.tnemb"
        write_store(a, ids, matrix)
        write_store(b, ids, matrix)
        assert a.read_bytes() == b.read_bytes()

    def test_vectors_gather_and_contains(self, tmp_path):
        matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
        path = write_store(tmp_path / "e.tnemb", list("abcd"), matrix)
        with EmbeddingStore(path) as store:
            assert np.array_equal(store.vectors(["d", "b"]), matrix[[3, 1]])
            assert "c" in store and "z" not in store
            assert len(store) == 4
            with pytest.raises(KeyError, match="'z' is not in store"):
                store.row_of("z")


class TestTextConversion:
    """store ↔ save_embeddings round trips are lossless for both dtypes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_text_round_trip_is_lossless(self, dtype, tmp_path):
        rng = np.random.default_rng(3)
        embeddings = {
            f"n{i}": rng.standard_normal(4).astype(dtype) for i in range(6)
        }
        store_path = store_from_embeddings(embeddings, tmp_path / "a.tnemb")
        with EmbeddingStore(store_path) as store:
            store.save_text(tmp_path / "e.txt")
        loaded = load_embeddings(tmp_path / "e.txt")
        assert all(v.dtype == dtype for v in loaded.values())
        assert all(
            np.array_equal(loaded[k], embeddings[k]) for k in embeddings
        )
        # ... and back to a byte-identical store
        again = store_from_embeddings(loaded, tmp_path / "b.tnemb")
        assert again.read_bytes() == store_path.read_bytes()

    def test_to_embeddings_preserves_dtype_and_order(self, tmp_path):
        matrix = np.arange(6, dtype=np.float32).reshape(3, 2)
        path = write_store(tmp_path / "e.tnemb", ["x", "y", "z"], matrix)
        with EmbeddingStore(path) as store:
            out = store.to_embeddings()
        assert list(out) == ["x", "y", "z"]
        assert all(v.dtype == np.float32 for v in out.values())


class TestWriteValidation:
    def test_rejects_bad_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="float32/float64"):
            write_store(
                tmp_path / "e", ["a"], np.array([[1]], dtype=np.int64)
            )

    def test_rejects_empty_matrix(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_store(tmp_path / "e", [], np.empty((0, 3)))

    def test_rejects_duplicate_ids(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            write_store(tmp_path / "e", ["a", "a"], np.ones((2, 2)))

    def test_rejects_newline_id(self, tmp_path):
        with pytest.raises(ValueError, match="newline"):
            write_store(tmp_path / "e", ["a\nb"], np.ones((1, 2)))

    def test_rejects_count_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="mismatch"):
            write_store(tmp_path / "e", ["a"], np.ones((2, 2)))

    def test_no_tmp_left_behind(self, tmp_path):
        write_store(tmp_path / "e.tnemb", ["a"], np.ones((1, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["e.tnemb"]


def _valid_store(tmp_path, dtype=np.float32):
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((6, 4)).astype(dtype)
    ids = [f"node-{i}" for i in range(6)]
    return write_store(tmp_path / "e.tnemb", ids, matrix)


class TestCorruption:
    @settings(max_examples=40, deadline=None)
    @given(fraction=st.floats(min_value=0.0, max_value=0.999))
    def test_truncation_raises_at_open(self, fraction, tmp_path_factory):
        """Any proper prefix of a store is rejected when opened."""
        tmp_path = tmp_path_factory.mktemp("trunc")
        path = _valid_store(tmp_path)
        data = path.read_bytes()
        cut = int(len(data) * fraction)
        path.write_bytes(data[:cut])
        with pytest.raises(StoreFormatError):
            EmbeddingStore(path)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=10_000))
    def test_bitflip_raises_at_verify(self, offset, tmp_path_factory):
        """Any flipped payload byte trips one of the CRCs."""
        tmp_path = tmp_path_factory.mktemp("rot")
        path = _valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        payload = len(data) - HEADER_BYTES
        pos = HEADER_BYTES + offset % payload
        data[pos] ^= 0x01
        path.write_bytes(bytes(data))
        with EmbeddingStore(path) as store:
            with pytest.raises(StoreCorruptionError, match="CRC mismatch"):
                store.verify()

    def test_matrix_and_ids_sections_named(self, tmp_path):
        path = _valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        flipped = bytearray(data)
        flipped[HEADER_BYTES] ^= 0x01  # first matrix byte
        path.write_bytes(bytes(flipped))
        with EmbeddingStore(path) as store:
            with pytest.raises(StoreCorruptionError, match="vector matrix"):
                store.verify()
        flipped = bytearray(data)
        flipped[-1] ^= 0x01  # last id-table byte
        path.write_bytes(bytes(flipped))
        with EmbeddingStore(path) as store:
            with pytest.raises(StoreCorruptionError, match="id table"):
                store.verify()

    def test_clean_file_verifies(self, tmp_path):
        with EmbeddingStore(_valid_store(tmp_path)) as store:
            store.verify()


class TestFormatRejection:
    def test_v0_magic_actionable(self, tmp_path):
        path = _valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"TNEMB0\x00\x00"
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="version-0.*--out-store"):
            EmbeddingStore(path)

    def test_unknown_magic_actionable(self, tmp_path):
        path = tmp_path / "e.tnemb"
        path.write_bytes(b"GARBAGE!" + b"\x00" * 64)
        with pytest.raises(
            StoreFormatError, match="not an embedding store"
        ):
            EmbeddingStore(path)

    def test_future_version_rejected(self, tmp_path):
        path = _valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="version 99"):
            EmbeddingStore(path)

    def test_bad_itemsize_rejected(self, tmp_path):
        path = _valid_store(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 12, 2)
        path.write_bytes(bytes(data))
        with pytest.raises(StoreFormatError, match="itemsize"):
            EmbeddingStore(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.tnemb"
        path.write_bytes(b"")
        with pytest.raises(StoreFormatError, match="empty"):
            EmbeddingStore(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = _valid_store(tmp_path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(StoreFormatError, match="promises"):
            EmbeddingStore(path)

    def test_magic_constant_shape(self):
        # the header layout is a stable on-disk contract
        assert MAGIC == b"TNEMB1\x00\x00"
        assert HEADER_BYTES == struct.calcsize("<8sIIIQQII")
        assert zlib.crc32(b"") == 0  # CRC convention the format relies on
