"""Dataset loading, binarization, toy generation, stream ordering."""

import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ocdgr import (
    ConfigError,
    DomainError,
    FormatError,
    StreamOrder,
    binarize,
    load_binary_text,
    load_idx,
    order_stream,
    toy_generate,
)

from conftest import mnist_dir, rng


def write_idx_pair(tmp_path, images, labels):
    """Serialize synthetic (count, rows, cols) images and labels in IDX format."""
    n, r, c = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">iiii", 0x803, n, r, c) + images.astype(np.uint8).tobytes())
    lbl_path.write_bytes(struct.pack(">ii", 0x801, n) + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestLoadIdx:
    def test_round_trip(self, tmp_path):
        images = rng(1).integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
        labels = np.arange(5, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        got_images, got_labels = load_idx(img, lbl)
        assert got_images.shape == (5, 12)
        assert (got_images == images.reshape(5, 12)).all()
        assert (got_labels == labels).all()

    def test_bad_magic(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        data = bytearray(img.read_bytes())
        data[3] = 0x99
        img.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            load_idx(img, lbl)

    def test_truncated_names_byte_range(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
        img.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((3, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(3, dtype=np.uint8))
        lbl.write_bytes(struct.pack(">ii", 0x801, 2) + b"\x00\x00")
        with pytest.raises(FormatError, match="mismatch"):
            load_idx(img, lbl)

    @pytest.mark.parametrize("header, offset", [
        ((-1, 2, 2), 4),   # count
        ((2, -2, 2), 8),   # rows
        ((2, 2, -1), 12),  # cols
    ])
    def test_negative_header_field_names_offset(self, tmp_path, header, offset):
        # the header fields are signed; a negative one must not reach the pixel arithmetic
        img = tmp_path / "images.idx"
        lbl = tmp_path / "labels.idx"
        img.write_bytes(struct.pack(">iiii", 0x803, *header) + bytes(8))
        lbl.write_bytes(struct.pack(">ii", 0x801, header[0]) + bytes(2))
        with pytest.raises(FormatError, match=f"negative .* at offset {offset}"):
            load_idx(img, lbl)

    def test_negative_label_count_names_offset(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8),
                                  np.zeros(2, dtype=np.uint8))
        lbl.write_bytes(struct.pack(">ii", 0x801, -1) + bytes(2))
        with pytest.raises(FormatError, match=f"{lbl.name}: negative .* at offset 4"):
            load_idx(img, lbl)

    @pytest.mark.skipif(mnist_dir() is None, reason="MNIST_DIR not set")
    def test_canonical_train_files(self):
        d = mnist_dir()
        images, labels = load_idx(os.path.join(d, "train-images-idx3-ubyte"),
                                  os.path.join(d, "train-labels-idx1-ubyte"))
        assert images.shape == (60_000, 784)
        assert labels.shape == (60_000,)


class TestBinarize:
    def test_all_zero(self):
        batch = binarize(np.zeros((2, 5)))
        assert not batch.rows.any()

    def test_threshold_boundary(self):
        batch = binarize(np.array([[127, 128]]))
        assert (batch.rows == [[0, 1]]).all()

    def test_stochastic_band(self):
        batch = binarize(np.full((100, 100), 51), mode="stochastic", rng=rng(2))
        assert 0.185 <= batch.rows.mean() <= 0.215

    def test_stochastic_needs_rng(self):
        with pytest.raises(ConfigError):
            binarize(np.zeros((1, 1)), mode="stochastic")

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            binarize(np.array([[300]]))

    def test_idempotent_on_binary_scaled(self):
        bits = (rng(3).random((4, 6)) < 0.5).astype(np.uint8)
        once = binarize(bits * 255)
        assert (once.rows == bits).all()

    def test_labels_carried(self):
        batch = binarize(np.zeros((3, 2)), labels=[4, 5, 6])
        assert (batch.labels == [4, 5, 6]).all()


class TestLoadBinaryText:
    def test_basic(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 1 1\n1 0 0\n")
        batch = load_binary_text(f)
        assert len(batch) == 2 and batch.n_v == 3

    def test_invalid_token_names_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 2 1\n")
        with pytest.raises(FormatError, match="line 1"):
            load_binary_text(f)

    def test_ragged_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("0 1\n1 0 1\n")
        with pytest.raises(FormatError, match="line 2"):
            load_binary_text(f)

    def test_comment_lines_skipped(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# header\n1 1\n\n0 0\n")
        assert len(load_binary_text(f)) == 2

    def test_empty_rejected(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# nothing\n")
        with pytest.raises(FormatError):
            load_binary_text(f)

    @pytest.mark.skipif(not os.environ.get("UCI_DNA_PATH"), reason="UCI_DNA_PATH not set")
    def test_dna_train_counts(self):
        batch = load_binary_text(os.environ["UCI_DNA_PATH"])
        assert len(batch) == 1400 and batch.n_v == 180


def reference_load_binary_text(path):
    """Token-by-token loader: the specification load_binary_text must match."""
    rows = []
    arity = None
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith("#"):
                continue
            tokens = line.split()
            if not tokens:
                continue
            if any(tok not in ("0", "1") for tok in tokens):
                bad = next(tok for tok in tokens if tok not in ("0", "1"))
                raise FormatError(f"{path}: non-binary token {bad!r} at line {lineno}")
            if arity is None:
                arity = len(tokens)
            elif len(tokens) != arity:
                raise FormatError(
                    f"{path}: ragged line {lineno} has {len(tokens)} tokens, expected {arity}"
                )
            rows.append([int(tok) for tok in tokens])
    if not rows:
        raise FormatError(f"{path}: no data rows")
    return np.array(rows, dtype=np.uint8)


@st.composite
def binary_texts(draw):
    """Texts in the loader's format with faults mixed in: bad tokens, ragged rows.

    Most lines are rows of one arity and most tokens are valid, so that many
    texts parse and the rest fail at varied lines.
    """
    arity = draw(st.integers(1, 6))
    token = st.sampled_from(["0", "1"] * 20 + ["2", "01", "1.0"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 8 + ["ragged", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["#", "# header 0 1", "#2 2"])))
        else:
            n = arity if kind == "row" else draw(st.integers(1, 7))
            sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
            pad = draw(st.sampled_from(["", " ", "\t"]))
            lines.append(pad + sep.join(draw(st.lists(token, min_size=n, max_size=n))) + pad)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


class TestLoadBinaryTextMatchesReference:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=binary_texts())
    def test_same_rows_or_same_error(self, tmp_path, text):
        f = tmp_path / "d.txt"
        f.write_bytes(text.encode("ascii"))
        try:
            expected = reference_load_binary_text(f)
        except FormatError as e:
            with pytest.raises(FormatError) as got:
                load_binary_text(f)
            assert str(got.value) == str(e)
            return
        rows = load_binary_text(f).rows
        assert rows.dtype == expected.dtype and rows.shape == expected.shape
        assert (rows == expected).all()


class TestToyGenerate:
    def test_defaults(self):
        data = toy_generate(1000, rng=rng(4))
        assert len(data) == 10_000 and data.n_v == 100
        class1 = data.rows[data.labels == 1]
        assert not class1[:, 10:].any()  # zeros outside the class block

    def test_zero_outside_block_all_classes(self):
        data = toy_generate(50, rng=rng(5))
        for c in range(1, 11):
            block = data.rows[data.labels == c]
            mask = np.ones(100, dtype=bool)
            mask[(c - 1) * 10:c * 10] = False
            assert not block[:, mask].any()

    def test_p_zero(self):
        assert not toy_generate(10, p=0.0, rng=rng(6)).rows.any()

    def test_active_block_mean(self):
        data = toy_generate(10_000, n_classes=1, rng=rng(7))
        assert 0.285 <= data.rows[:, :10].mean() <= 0.315

    def test_invalid_geometry(self):
        with pytest.raises(ConfigError):
            toy_generate(0, rng=rng())
        with pytest.raises(ConfigError):
            toy_generate(5, p=1.5, rng=rng())


class TestOrderStream:
    def test_stable_sort(self):
        from ocdgr import BinaryBatch
        data = BinaryBatch(np.eye(4, dtype=np.uint8), labels=[2, 0, 1, 0])
        out = order_stream(data, StreamOrder("sorted_by_class"))
        # stable sort by label: original indices 1, 3, 2, 0
        assert (out.rows == np.eye(4, dtype=np.uint8)[[1, 3, 2, 0]]).all()
        assert (out.labels == [0, 0, 1, 2]).all()

    def test_random_deterministic(self):
        data = toy_generate(20, rng=rng(8))
        a = order_stream(data, StreamOrder("random", seed=9))
        b = order_stream(data, StreamOrder("random", seed=9))
        assert (a.rows == b.rows).all()

    def test_random_is_permutation(self):
        from ocdgr import BinaryBatch
        data = BinaryBatch(np.eye(64, dtype=np.uint8), labels=np.arange(64))
        out = order_stream(data, StreamOrder("random", seed=10))
        assert (np.sort(out.labels) == np.arange(64)).all()

    def test_sorted_requires_labels(self):
        from ocdgr import BinaryBatch
        data = BinaryBatch(np.eye(3, dtype=np.uint8))
        with pytest.raises(ConfigError):
            order_stream(data, StreamOrder("sorted_by_class"))

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            StreamOrder("shuffled")
